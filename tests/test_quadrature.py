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
from vlcnoma import quadrature
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


def _kinked(c, k):
    """|x - c| exp(-k x) with level-dependent c and k: each level needs its own bisections."""
    return lambda x, level: np.abs(x - c[level]) * np.exp(-k[level] * x)


def _one_level(f, a, b, breakpoints):
    """The adaptive rule on one level as a plain loop, the reference for the batched one.

    Its panels stay kept first, then left halves, then right halves, and sum by ``.sum()``.
    """
    if a == b:
        return 0.0
    edges = np.array([a, *sorted({c for c in breakpoints if a < c < b}), b])
    lo, hi = edges[:-1], edges[1:]
    vals, errs = quadrature._panel_eval(f, lo, hi)
    while True:
        total, err = vals.sum(), errs.sum()
        tol = max(1e-12, 1e-8 * abs(total))
        if err <= tol:
            return total
        split = errs > np.maximum(tol * (hi - lo) / (b - a), np.finfo(float).tiny)
        if not split.any():
            split = errs >= errs.max()
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        new_vals, new_errs = quadrature._panel_eval(f, new_lo, new_hi)
        lo, hi = np.concatenate([lo[~split], new_lo]), np.concatenate([hi[~split], new_hi])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])


class TestLevelBatches:
    """Array bounds integrate many levels in one loop, each level as it would alone."""

    def test_each_level_as_alone(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 40
        c, k = rng.uniform(-0.5, 1.5, n), rng.uniform(0.0, 30.0, n)
        a = rng.uniform(-1.0, 0.5, n)
        b = a + rng.uniform(0.0, 2.0, n)
        b[[3, 17]] = a[[3, 17]]
        for i in (11, 12):  # duplicates of level 10
            a[i], b[i], c[i], k[i] = a[10], b[10], c[10], k[10]
        cut = a + 0.3 * (b - a)
        f = _kinked(c, k)
        # Seven levels a batch: the call spans several batches.
        monkeypatch.setattr(quadrature, "_LEVEL_BATCH", 7)
        got = integrate_1d(f, a, b, (0.25, cut))
        alone = [
            integrate_1d(lambda x: f(x, np.full(x.shape, i)), a[i], b[i], (0.25, cut[i]))
            for i in range(n)
        ]
        assert got.tobytes() == np.array(alone).tobytes()
        assert got[3] == got[17] == 0.0
        perm = rng.permutation(n)
        shuffled = integrate_1d(_kinked(c[perm], k[perm]), a[perm], b[perm], (0.25, cut[perm]))
        assert shuffled.tobytes() == got[perm].tobytes()

    def test_each_level_as_the_one_level_loop(self):
        rng = np.random.default_rng(6)
        n = 30
        c, k = rng.uniform(-0.5, 1.5, n), rng.uniform(0.0, 30.0, n)
        a = rng.uniform(-1.0, 0.5, n)
        b = a + rng.uniform(0.0, 2.0, n)
        f = _kinked(c, k)
        got = integrate_1d(f, a, b, (0.25, c))
        want = [
            _one_level(lambda x: f(x, np.full(x.shape, i)), a[i], b[i], (0.25, c[i]))
            for i in range(n)
        ]
        assert got.tobytes() == np.array(want).tobytes()

    def test_non_finite_level_raises_with_its_estimate(self):
        # Level 1 turns infinite past 0.5; levels 0 and 2 stay finite.
        def f(x, level):
            return np.where((level == 1) & (x > 0.5), np.inf, (level + 1.0) * x)

        with pytest.raises(NumericFailureError) as batch, np.errstate(invalid="ignore"):
            integrate_1d(f, np.zeros(3), np.ones(3))
        with pytest.raises(NumericFailureError) as alone, np.errstate(invalid="ignore"):
            integrate_1d(lambda x: np.where(x > 0.5, np.inf, 2.0 * x), 0.0, 1.0)
        assert batch.value.estimate == alone.value.estimate == np.inf
        assert str(batch.value) == str(alone.value)

    def test_panel_budget_is_per_level(self):
        def f(x, level):
            hard = np.abs(np.sin(50 / (x + 0.01)))
            return np.where(level < 40, (level + 1.0) * x * x, hard)

        tight = dict(rel_tol=1e-15, abs_tol=1e-300, max_subdivisions=16)
        # Forty one-panel levels hold more panels together than one level's budget.
        easy = integrate_1d(f, np.zeros(40), np.ones(40), max_subdivisions=1)
        assert easy == pytest.approx((np.arange(40) + 1.0) / 3.0, rel=1e-14)
        with pytest.raises(NumericFailureError) as batch:
            integrate_1d(f, np.zeros(41), np.ones(41), **tight)
        with pytest.raises(NumericFailureError) as alone:
            integrate_1d(lambda x: np.abs(np.sin(50 / (x + 0.01))), 0.0, 1.0, **tight)
        assert batch.value.estimate == alone.value.estimate
        assert batch.value.error_bound == alone.value.error_bound


class TestSegmentSums:
    """Each level's panels sum as numpy sums them alone, whatever the batch."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_sum_of_each_segment(self, order):
        rng = np.random.default_rng(3)
        # numpy adds up to 7 values in turn, more in eight lanes, past 128 by halves.
        count = np.array([7, 8, 129, 1, 2, 9, 15, 16, 17, 127, 128, 300])
        starts = np.cumsum(count) - count
        # Rows 2 and 3 of a four-row array, as the adaptive loop hands them over:
        # column-major after it reorders the panels, where a 2-D sum of a row's
        # segment would run down the columns.
        panels = rng.standard_normal((4, count.sum())) * np.exp(rng.uniform(-30, 30, count.sum()))
        panels[:, : count[0]] = -0.0
        panels = np.asarray(panels, order=order)
        got = quadrature._segment_sums(panels[2:], starts, count)
        want = [[row[s : s + c].copy().sum() for s, c in zip(starts, count)] for row in panels[2:]]
        assert got.tobytes() == np.array(want).tobytes()


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
