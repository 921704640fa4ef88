"""Adaptive quadrature, empirical distributions, and KS machinery."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import (
    EmpiricalDistribution,
    InvalidParameterError,
    NumericFailureError,
    integrate_1d,
    integrate_2d_nested,
    ks_distance_bound,
)
from vlcnoma.quadrature import _KS_SLICE


class TestIntegrate1d:
    def test_breakpoint_makes_kink_exact(self):
        value = integrate_1d(lambda x: np.abs(x - 0.3), 0.0, 1.0, (0.3,))
        assert value == pytest.approx(0.29, abs=1e-14)

    def test_degree_seven_polynomial_exact(self):
        value = integrate_1d(lambda x: 7 * x**6 - 3 * x**2 + x, -1.0, 2.0, None)
        exact = (2.0**7 - (-1.0) ** 7) - (2.0**3 - (-1.0) ** 3) + (2.0**2 - 1.0) / 2
        assert value == pytest.approx(exact, rel=1e-12)

    def test_linearity(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        g = lambda x: np.cos(x) ** 2
        a = integrate_1d(f, 0.0, 2.0, None)
        b = integrate_1d(g, 0.0, 2.0, None)
        combined = integrate_1d(lambda x: 2.5 * f(x) - 4.0 * g(x), 0.0, 2.0, None)
        assert combined == pytest.approx(2.5 * a - 4.0 * b, rel=1e-10, abs=1e-12)

    def test_empty_interval_is_zero(self):
        assert integrate_1d(lambda x: x, 1.0, 1.0, None) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(InvalidParameterError):
            integrate_1d(lambda x: x, 1.0, 0.0, None)

    def test_budget_exhaustion_reports_partial_result(self):
        with pytest.raises(NumericFailureError) as info:
            integrate_1d(
                lambda x: np.abs(np.sin(50 / (x + 0.01))),
                0.0,
                1.0,
                rel_tol=1e-15,
                abs_tol=1e-300,
                max_subdivisions=16,
            )
        assert np.isfinite(info.value.estimate)
        assert info.value.error_bound > 0

    def test_non_finite_integrand_fails_fast(self):
        # NaN compares False against every tolerance, so without a finiteness
        # check no panel would ever split and the loop would never end
        failures = []

        def run():
            for bad in (np.nan, np.inf):
                try:
                    with np.errstate(invalid="ignore"):
                        integrate_1d(lambda x: np.where(x > 0.5, bad, x), 0.0, 1.0, None)
                except NumericFailureError as exc:
                    failures.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive()
        assert len(failures) == 2

    def test_breakpoints_outside_interval_ignored(self):
        value = integrate_1d(lambda x: np.abs(x - 0.5), 0.0, 1.0, (-5.0, 0.5, 7.0))
        assert value == pytest.approx(0.25, abs=1e-14)

    @given(
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(0.1, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_quadratic_exact_property(self, a, b, c, width):
        value = integrate_1d(lambda x: a * x**2 + b * x + c, 0.0, width, None)
        exact = a * width**3 / 3 + b * width**2 / 2 + c * width
        assert value == pytest.approx(exact, rel=1e-10, abs=1e-10)


class TestIntegrate2d:
    def test_separable_product(self):
        value = integrate_2d_nested(
            lambda r, s: r * np.sin(s),
            (0.0, 2.0),
            lambda r: ((0.0, np.pi),),
            None,
        )
        assert value == pytest.approx(2.0 * 2.0, rel=1e-9)

    def test_r_dependent_support(self):
        # integral of 1 over the triangle 0 <= s <= r <= 1 is 1/2
        value = integrate_2d_nested(
            lambda r, s: np.ones_like(s),
            (0.0, 1.0),
            lambda r: ((0.0, r),),
            None,
        )
        assert value == pytest.approx(0.5, rel=1e-10)

    def test_empty_inner_support_contributes_zero(self):
        value = integrate_2d_nested(
            lambda r, s: np.ones_like(s),
            (0.0, 1.0),
            lambda r: ((0.0, r),) if r > 0.5 else (),
            None,
        )
        assert value == pytest.approx(0.375, rel=1e-9)

    def test_multi_interval_support(self):
        value = integrate_2d_nested(
            lambda r, s: np.ones_like(s) * r,
            (0.0, 1.0),
            lambda r: ((0.0, 0.25), (0.75, 1.0)),
            None,
        )
        assert value == pytest.approx(0.25, rel=1e-10)


class TestEmpiricalDistribution:
    def test_cdf_and_quantile(self):
        emp = EmpiricalDistribution([3.0, 1.0, 2.0, 4.0])
        assert emp.cdf(2.5) == 0.5
        assert emp.cdf(0.0) == 0.0
        assert emp.cdf(4.0) == 1.0
        assert emp.quantile(0.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            EmpiricalDistribution([])


class TestKsDistance:
    """The default grid, every sample: the exact distance."""

    def test_single_sample_at_median(self):
        assert ks_distance_bound(np.array([0.0]), lambda x: np.full_like(x, 0.5)) == 0.5

    def test_cdf_identically_zero(self):
        samples = np.linspace(0.1, 1.0, 10)
        assert ks_distance_bound(samples, lambda x: np.zeros_like(x)) == 1.0

    def test_uniform_sample_agreement(self):
        rng = np.random.default_rng(5)
        s = rng.random(200_000)
        d = ks_distance_bound(s, lambda x: np.clip(x, 0.0, 1.0))
        assert d < 0.01

    def test_atom_with_left_limit(self):
        # mixture: mass 0.4 at zero, uniform elsewhere
        rng = np.random.default_rng(6)
        s = np.where(rng.random(100_000) < 0.4, 0.0, rng.random(100_000))
        cdf = lambda x: np.where(np.asarray(x) < 0, 0.0, 0.4 + 0.6 * np.clip(x, 0.0, 1.0))
        # the left limit at the atom is derived, so its mass is not counted as distance
        assert ks_distance_bound(s, cdf) < 0.01

    @pytest.mark.parametrize(
        "cdf",
        [
            lambda x: np.clip(x, 0.0, 1.0),
            lambda x: np.clip(x, 0.0, 1.0) ** 3,  # largest gap mid-sample
            lambda x: np.where(x > 0.999, 0.99, np.clip(x, 0.0, 1.0)),  # in the last slice
        ],
    )
    def test_slices_match_one_pass(self, cdf):
        rng = np.random.default_rng(9)
        # 200,000 samples span four evaluation slices, the last one partial
        four_slices = np.sort(rng.random(200_000))
        four_slices[:1000] = 0.0
        # a run of equal samples straddles the first slice boundary
        tied = np.sort(rng.random(3 * _KS_SLICE))
        tied[_KS_SLICE - 7 : _KS_SLICE + 9] = tied[_KS_SLICE - 7]
        all_equal = np.full(_KS_SLICE + 5, 0.5)
        one_past = np.sort(rng.random(_KS_SLICE + 1))
        for s in (four_slices, tied, all_equal, one_past):
            f = cdf(s)
            i = np.arange(1, s.size + 1)
            one_pass = max(
                np.max(i / s.size - f), np.max(np.where(s <= 0, 0, f) - (i - 1) / s.size)
            )
            assert ks_distance_bound(s, cdf) == float(one_pass)


class TestKsDistanceBound:
    def test_bound_dominates_exact(self):
        rng = np.random.default_rng(7)
        s = rng.exponential(size=50_000)
        cdf = lambda x: 1.0 - np.exp(-np.maximum(np.asarray(x, dtype=float), 0.0))
        exact = ks_distance_bound(s, cdf)
        for m in (16, 64, 256):
            bound = ks_distance_bound(s, cdf, grid_size=m)
            assert bound >= exact
            assert bound <= exact + 2.5 / m + 1e-12

    def test_bound_with_atom(self):
        rng = np.random.default_rng(8)
        s = np.where(rng.random(80_000) < 0.3, 0.0, rng.exponential(size=80_000))
        cdf = lambda x: np.where(
            np.asarray(x) < 0, 0.0, 0.3 + 0.7 * (1 - np.exp(-np.maximum(np.asarray(x), 0)))
        )
        exact = ks_distance_bound(s, cdf)
        bound = ks_distance_bound(s, cdf, grid_size=128)
        assert exact <= bound <= exact + 0.02
        # the 0.3 atom at zero is not counted as distance
        assert bound < 0.02

    @staticmethod
    def _value_grid_bound(samples, cdf, grid_size):
        """The rank-grid bound with its at-point term |H_t - F_t|, which the one rule drops."""
        s = np.sort(samples)
        n = s.size
        y = np.unique(s[np.unique(np.linspace(0, n - 1, min(grid_size, n)).round().astype(int))])
        f = np.asarray(cdf(y), dtype=float)
        f_left = np.where(y <= 0.0, 0.0, f)
        emp_right = np.searchsorted(s, y, side="right") / n
        emp_left = np.searchsorted(s, y, side="left") / n
        prev_f = np.concatenate(([0.0], f[:-1]))
        prev_emp = np.concatenate(([0.0], emp_right[:-1]))
        gap = np.maximum(emp_left - prev_f, f_left - prev_emp)
        at_point = np.abs(emp_right - f)
        return float(max(np.max(gap), np.max(at_point), 1.0 - f[-1], 0.0))

    @pytest.mark.parametrize("grid_size", [2, 8, 512, 50_000])
    @pytest.mark.parametrize("case", ["exponential", "atom", "tied"])
    def test_matches_value_grid_formula(self, case, grid_size):
        rng = np.random.default_rng(12)
        s = rng.exponential(size=20_000)
        if case == "atom":
            s = np.where(rng.random(s.size) < 0.3, 0.0, s)
        elif case == "tied":
            s = np.round(s, 2)
        atom = 0.3 if case == "atom" else 0.0
        cdf = lambda x: np.where(
            np.asarray(x) < 0, 0.0, atom + (1 - atom) * (1 - np.exp(-np.maximum(x, 0.0)))
        )
        expected = self._value_grid_bound(s, cdf, grid_size)
        assert ks_distance_bound(s, cdf, grid_size=grid_size) == expected

    def test_tiny_grid_rejected(self):
        with pytest.raises(InvalidParameterError):
            ks_distance_bound(np.array([1.0, 2.0]), lambda x: x, grid_size=1)
