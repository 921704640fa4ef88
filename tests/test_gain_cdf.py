"""Closed-form gain distributions against limits, identities, and a quadrature oracle."""

import ast
import contextlib
import dataclasses
import functools
import inspect
import io
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from vlcnoma import (
    CDF_FAMILIES,
    DegenerateConditionError,
    FeedbackThresholds,
    InvalidParameterError,
    LedGeometry,
    MobilityModel,
    band_measure,
    band_mixture,
    cdf_gain_ranked,
    cdf_gain_unordered,
    cdf_strong_twobit_inst,
    cdf_strong_twobit_mean,
    cdf_weak_twobit_inst,
    cdf_weak_twobit_mean,
    channel_constant,
    dc_gain,
    edge_gain_distance,
    estimate,
    gain_halfangle,
    incidence_angle,
    integrate_1d,
    integrate_2d_nested,
    ks_distance_bound,
    nonzero_gain_probability,
    ramp_cdf_integral,
    sample_users,
)
from vlcnoma import gain_cdf, quadrature
from vlcnoma.cli import main
from vlcnoma.mobility import bound_crossing_radius, cdf_vertical_angle, fov_window_breakpoints


def mean_angle_bands(r, model, led, th, subset):
    """Mean-angle (lo, hi) bands that put a user at distance ``r`` into a two-bit set."""
    _, _, floor, cap = gain_cdf._twobit_set(model, led, th, subset)
    center = np.pi - np.arctan2(led.ell, r)
    return gain_cdf._clipped_bands(center, gain_cdf._mean_offsets(floor, cap), model)


class TestGainHalfangle:
    def test_saturated_gain_gives_zero(self, led_fov50):
        _, upsilon = channel_constant(led_fov50)
        assert gain_halfangle(2.0 / upsilon(3.0), 3.0, led_fov50) == 0.0

    def test_zero_gain_gives_right_angle(self, led_fov50):
        assert gain_halfangle(0.0, 3.0, led_fov50) == pytest.approx(np.pi / 2, rel=1e-14)

    def test_roundtrip_inversion(self, led_fov50):
        _, upsilon = channel_constant(led_fov50)
        for z in (0.1, 0.4, np.radians(50.0) - 1e-6):
            for r in (0.5, 3.0, 9.0):
                x = np.cos(z) ** 2 / upsilon(r)
                assert gain_halfangle(x, r, led_fov50) == pytest.approx(z, rel=1e-12)

    @pytest.mark.parametrize("r", [0.0, 3.0, 9.0])
    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
    def test_pinned_near_both_ends(self, led_fov50, r, delta):
        # References: arcsin of the sine near 0 and arccos of the cosine near
        # pi/2, each well conditioned there.
        _, upsilon = channel_constant(led_fov50)
        near_zero = np.cos(delta) ** 2 / upsilon(r)
        c = near_zero * upsilon(r)
        ref = np.arcsin(np.sqrt(1.0 - c))
        assert gain_halfangle(near_zero, r, led_fov50) == pytest.approx(ref, rel=1e-14)
        near_right = np.sin(delta) ** 2 / upsilon(r)
        ref = np.arccos(np.sqrt(near_right * upsilon(r)))
        assert gain_halfangle(near_right, r, led_fov50) == pytest.approx(ref, rel=1e-15)
        assert gain_halfangle(near_right, r, led_fov50) == pytest.approx(
            np.pi / 2 - delta, rel=1e-15
        )

    @given(st.floats(0.0, 1e-9), st.floats(0.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_range_property(self, x, r):
        from tests.conftest import make_noma  # noqa: F401  (fixture module import keeps paths uniform)

        led = __import__("vlcnoma").LedGeometry(
            ell=2.0, phi_hpbw=np.radians(60), area_r=1e-4, theta_fov=np.radians(50)
        )
        a = float(gain_halfangle(x, r, led))
        assert 0.0 <= a <= np.pi / 2


class TestEdgeGainDistance:
    def test_huge_gain_clamps_low(self, led_fov50):
        assert edge_gain_distance(1.0, led_fov50, cos_sq=1.0, lo=1.0, hi=10.0) == 1.0

    def test_vanishing_gain_clamps_high(self, led_fov50):
        assert edge_gain_distance(0.0, led_fov50, cos_sq=1.0, lo=1.0, hi=10.0) == 10.0
        assert edge_gain_distance(1e-300, led_fov50, cos_sq=1.0, lo=1.0, hi=10.0) == 10.0

    def test_exact_inversion_at_threshold(self, led_fov50):
        h_c, _ = channel_constant(led_fov50)
        m = led_fov50.lambertian_m
        d_th = 1.0
        cos_sq = np.cos(led_fov50.theta_fov) ** 2
        x = h_c**2 * cos_sq / (led_fov50.ell**2 + d_th**2) ** (m + 2)
        got = edge_gain_distance(x, led_fov50, cos_sq=cos_sq, lo=0.5, hi=10.0)
        assert got == pytest.approx(d_th, rel=1e-12)


@pytest.fixture(scope="module")
def validation_setup(model_dev30, led_fov60, thresholds_validation):
    return model_dev30, led_fov60, thresholds_validation


class TestUnorderedCdf:
    def test_zero_level(self, validation_setup):
        model, led, _ = validation_setup
        assert cdf_gain_unordered(0.0, model, led) == 0.0

    def test_support_maximum(self, validation_setup):
        model, led, _ = validation_setup
        _, upsilon = channel_constant(led)
        assert cdf_gain_unordered(1.0 / upsilon(model.d_min), model, led) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_median_regression(self, validation_setup):
        model, led, _ = validation_setup
        assert cdf_gain_unordered(4.64247e-13, model, led) == pytest.approx(
            0.49970845359306904, rel=1e-9
        )

    def test_monotone_grid(self, validation_setup):
        model, led, _ = validation_setup
        _, upsilon = channel_constant(led)
        xs = np.linspace(0.0, 1.2 / upsilon(model.d_min), 1000)
        vals = np.array([cdf_gain_unordered(x, model, led) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


# Ranks among 20 users of which at least 10 are lit.
RANKED = dict(total_users=20, k_min=10)


class TestRankedCdf:
    def test_single_user_reduces_to_unordered(self, validation_setup):
        model, led, _ = validation_setup
        for x in (1e-14, 4.6e-13, 2e-11):
            assert cdf_gain_ranked(x, 1, model, led, total_users=1, k_min=1) == pytest.approx(
                cdf_gain_unordered(x, model, led), rel=1e-12
            )

    def test_saturates_with_base(self, validation_setup):
        model, led, _ = validation_setup
        _, upsilon = channel_constant(led)
        top = 1.0 / upsilon(model.d_min)
        assert cdf_gain_ranked(top, 10, model, led, **RANKED) == pytest.approx(1.0, abs=1e-12)

    def test_rank10_regression(self, validation_setup):
        model, led, _ = validation_setup
        assert cdf_gain_ranked(4.64247e-13, 10, model, led, **RANKED) == pytest.approx(
            0.02258143183952437, rel=1e-9
        )

    def test_higher_rank_stochastically_larger(self, validation_setup):
        model, led, _ = validation_setup
        for x in (1e-13, 1e-12, 1e-11):
            low = cdf_gain_ranked(x, 10, model, led, **RANKED)
            high = cdf_gain_ranked(x, 1, model, led, **RANKED)
            assert low <= high + 1e-15

    @pytest.mark.parametrize("total_users,k_min", [(20, 10), (1000, 600)])
    def test_matches_scipy_order_statistic_mixture(self, validation_setup, total_users, k_min):
        model, led, _ = validation_setup
        p = nonzero_gain_probability(model, led)
        _, upsilon = channel_constant(led)
        xs = np.concatenate(([0.0], np.geomspace(1e-16, 1.05 / upsilon(model.d_min), 31)))
        base = cdf_gain_unordered(xs, model, led)
        ns = np.arange(k_min, total_users + 1)
        weights = stats.binom.pmf(ns, total_users, p) / stats.binom.sf(k_min - 1, total_users, p)
        for rank in (1, k_min // 2, k_min):
            ref = sum(w * special.betainc(rank, n - rank + 1, base) for n, w in zip(ns, weights))
            ref = np.clip(ref, 0.0, 1.0)
            got = cdf_gain_ranked(xs, rank, model, led, total_users=total_users, k_min=k_min)
            big = ref >= 1e-250
            assert np.all(np.abs(got[big] - ref[big]) <= 1e-11 * ref[big])
            assert np.all(got[~big] < 1e-240)

    def test_invalid_rank_rejected(self, validation_setup):
        model, led, _ = validation_setup
        with pytest.raises(InvalidParameterError):
            cdf_gain_ranked(1e-13, 11, model, led, **RANKED)
        with pytest.raises(InvalidParameterError):
            cdf_gain_ranked(1e-13, 0, model, led, **RANKED)
        with pytest.raises(InvalidParameterError):
            cdf_gain_ranked(1e-13, 1, model, led, total_users=20, k_min=21)


class TestInstantaneousSetCdfs:
    def test_weak_zero_level(self, validation_setup):
        model, led, th = validation_setup
        assert cdf_weak_twobit_inst(0.0, model, led, th) == 0.0

    def test_weak_saturation(self, validation_setup):
        model, led, th = validation_setup
        _, upsilon = channel_constant(led)
        assert cdf_weak_twobit_inst(1.0 / upsilon(th.dist_threshold), model, led, th) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_weak_regressions(self, validation_setup):
        model, led, th = validation_setup
        assert cdf_weak_twobit_inst(1e-14, model, led, th) == pytest.approx(
            0.2159063797407669, rel=1e-9
        )
        assert cdf_weak_twobit_inst(1e-12, model, led, th) == pytest.approx(
            0.6864341948861143, rel=1e-9
        )

    def test_strong_zero_level_and_saturation(self, validation_setup):
        model, led, th = validation_setup
        assert cdf_strong_twobit_inst(0.0, model, led, th) == 0.0
        assert cdf_strong_twobit_inst(1e-12, model, led, th) == 0.0
        assert cdf_strong_twobit_inst(1e-10, model, led, th) == pytest.approx(1.0, abs=1e-12)

    def test_reduction_identity(self, model_dev30, led_fov60):
        # widening the strong set to the whole population recovers the
        # unordered distribution
        full = FeedbackThresholds(dist_threshold=10.0, angle_threshold=np.radians(60.0))
        _, upsilon = channel_constant(led_fov60)
        xs = np.linspace(0.0, 1.0 / upsilon(0.0), 40)
        for x in xs:
            reduced = cdf_strong_twobit_inst(x, model_dev30, led_fov60, full)
            base = cdf_gain_unordered(x, model_dev30, led_fov60)
            assert reduced == pytest.approx(base, abs=1e-10)

    def test_monotone_grids(self, validation_setup):
        model, led, th = validation_setup
        _, upsilon = channel_constant(led)
        xs_w = np.linspace(0.0, 1.2 / upsilon(th.dist_threshold), 1000)
        vals_w = np.array([cdf_weak_twobit_inst(x, model, led, th) for x in xs_w])
        assert np.all(np.diff(vals_w) >= -1e-12)
        xs_s = np.linspace(0.0, 1.2 / upsilon(model.d_min), 1000)
        vals_s = np.array([cdf_strong_twobit_inst(x, model, led, th) for x in xs_s])
        assert np.all(np.diff(vals_s) >= -1e-12)


class TestStrongSetPastTheView:
    """An angle threshold past the field of view puts unlit users into the strong set."""

    TH = FeedbackThresholds(dist_threshold=5.0, angle_threshold=np.radians(70.0))

    def test_atom_is_the_unlit_share(self, model_dev25, led_fov50):
        model, led = model_dev25, led_fov50
        lo, hi = model.mean_angle_min, model.mean_angle_max

        def mass(half):
            def window(r):
                c = np.pi - np.arctan2(led.ell, r)
                return band_mixture(c + half, lo, hi, model) - band_mixture(c - half, lo, hi, model)

            bps = fov_window_breakpoints(half, model, led)
            return integrate_1d(window, model.d_min, self.TH.dist_threshold, bps)

        unlit = 1.0 - mass(led.theta_fov) / mass(self.TH.angle_threshold)
        assert unlit == pytest.approx(0.2341, abs=1e-4)
        # each integral meets a relative tolerance of 1e-8
        atom = cdf_strong_twobit_inst(0.0, model, led, self.TH)
        assert atom == pytest.approx(unlit, abs=1e-7)
        assert cdf_strong_twobit_inst(1e-300, model, led, self.TH) == pytest.approx(atom, abs=1e-7)
        assert cdf_strong_twobit_inst(-1.0, model, led, self.TH) == 0.0

    def test_levels_split_at_the_view_edge(self, monkeypatch, model_dev25, led_fov50):
        # Past the view a level's window caps at the fov.  Without the branch-edge
        # radii of that cap the adaptive rule bisects toward its kinks: ~40 panels
        # a level on these levels, ~28 with them.
        _, upsilon = channel_constant(led_fov50)
        levels = np.geomspace(1e-3, 1.0, 60) / upsilon(0.0)
        evaluate, panels = quadrature._panel_eval, []

        def counting(f, lo, hi):
            panels.append(lo.size)
            return evaluate(f, lo, hi)

        monkeypatch.setattr(quadrature, "_panel_eval", counting)
        cdf_strong_twobit_inst(levels, model_dev25, led_fov50, self.TH)
        assert sum(panels) / levels.size < 33

    def test_matches_its_sampler_within_dkw(self, model_dev25, led_fov50):
        # Dvoretzky-Kiefer-Wolfowitz with Massart's constant at alpha = 1e-4,
        # plus the grid slack of ks_distance_bound.
        model, led = model_dev25, led_fov50
        res = estimate(
            "twobit_inst_strong", 400_000, model, led, thresholds=self.TH, seed=3, workers=1
        )
        grid = 512
        d = ks_distance_bound(
            res.value, lambda x: cdf_strong_twobit_inst(x, model, led, self.TH), grid_size=grid
        )
        assert d <= np.sqrt(np.log(2.0 / 1e-4) / (2.0 * res.value.size)) + 2.0 / grid

    def test_weak_set_is_empty_in_both_twins(self, model_dev25, led_fov50):
        model, led = model_dev25, led_fov50
        with pytest.raises(DegenerateConditionError):
            cdf_weak_twobit_inst(1e-12, model, led, self.TH)
        with pytest.raises(DegenerateConditionError):
            estimate("twobit_inst_weak", 20_000, model, led, thresholds=self.TH, seed=0)


class TestClosedIntegral:
    def cases_grid(self, model, led):
        # offsets straddling every case boundary of the piecewise form
        lo, hi = model.mean_angle_min, model.mean_angle_max
        return (
            lo - np.pi - 0.2,
            lo - np.pi + 0.05,
            hi - np.pi + 0.05,
            lo - np.pi / 2 - 0.05,
            lo - np.pi / 2 + 0.05,
            hi - np.pi / 2 - 0.05,
            hi - np.pi / 2 + 0.3,
        )

    def quadrature_oracle(self, offset, y, z, model, led):
        def integrand(r):
            return cdf_vertical_angle(
                np.pi - np.arctan2(led.ell, r) + offset,
                MobilityModel(
                    model.d_min,
                    model.d_max,
                    model.mean_angle_min,
                    model.mean_angle_max,
                    0.0,
                ),
            )

        return integrate_1d(integrand, y, z, rel_tol=1e-12, abs_tol=1e-15)

    def test_saturated_branch(self, model_dev30, led_fov60):
        offset = model_dev30.mean_angle_max - np.pi / 2 + 0.1
        assert ramp_cdf_integral(offset, 2.0, 7.0, model_dev30, led_fov60) == pytest.approx(
            5.0, rel=1e-12
        )

    def test_vanishing_branch(self, model_dev30, led_fov60):
        offset = model_dev30.mean_angle_min - np.pi - 0.1
        assert ramp_cdf_integral(offset, 2.0, 7.0, model_dev30, led_fov60) == 0.0

    def test_matches_quadrature_on_random_triples(self, model_dev30, led_fov60):
        rng = np.random.default_rng(20)
        lo = model_dev30.mean_angle_min - np.pi - 0.3
        hi = model_dev30.mean_angle_max - np.pi / 2 + 0.3
        for _ in range(100):
            offset = rng.uniform(lo, hi)
            y = rng.uniform(0.0, 9.0)
            z = y + rng.uniform(0.01, 10.0 - y)
            closed = ramp_cdf_integral(offset, y, z, model_dev30, led_fov60)
            oracle = self.quadrature_oracle(offset, y, z, model_dev30, led_fov60)
            assert closed == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_continuity_across_case_boundaries(self, model_dev30, led_fov60):
        eps = 1e-9
        y, z = 1.5, 8.0
        lo, hi = model_dev30.mean_angle_min, model_dev30.mean_angle_max
        for boundary in (lo - np.pi, hi - np.pi, lo - np.pi / 2, hi - np.pi / 2):
            below = ramp_cdf_integral(boundary - eps, y, z, model_dev30, led_fov60)
            above = ramp_cdf_integral(boundary + eps, y, z, model_dev30, led_fov60)
            assert above - below == pytest.approx(0.0, abs=1e-8)

    def test_monotone_in_offset(self, model_dev30, led_fov60):
        offsets = np.linspace(-np.pi, 0.5, 120)
        vals = [
            ramp_cdf_integral(o, 1.0, 9.0, model_dev30, led_fov60) for o in offsets
        ]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_reversed_interval_rejected(self, model_dev30, led_fov60):
        with pytest.raises(InvalidParameterError):
            ramp_cdf_integral(0.0, 5.0, 1.0, model_dev30, led_fov60)


def test_one_twobit_set_table():
    """Outside ``FeedbackThresholds``, only the set table reads the two thresholds."""
    tree = ast.parse(inspect.getsource(gain_cdf))
    readers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Attribute)
        and node.attr in ("dist_threshold", "angle_threshold")
    }
    assert readers == {"_twobit_set"}


class TestBandMeasures:
    def test_weak_measure_regression(self, validation_setup):
        model, led, th = validation_setup
        assert band_measure(th.dist_threshold, model, led, th, "weak") == pytest.approx(
            3.861352060831427, rel=1e-10
        )

    def test_strong_measure_regression(self, validation_setup):
        model, led, th = validation_setup
        assert band_measure(model.d_min, model, led, th, "strong") == pytest.approx(
            0.1, rel=1e-9
        )

    def test_weak_measure_vanishes_at_dmax(self, validation_setup):
        model, led, th = validation_setup
        assert band_measure(model.d_max, model, led, th, "weak") == pytest.approx(0.0, abs=1e-12)

    def test_equal_thresholds_empty_weak_band(self, model_dev30, led_fov60):
        th = FeedbackThresholds(dist_threshold=1.0, angle_threshold=led_fov60.theta_fov)
        assert band_measure(1.0, model_dev30, led_fov60, th, "weak") == pytest.approx(
            0.0, abs=1e-12
        )
        # an empty band has zero width, also when the angle threshold passes the view edge
        for tt in (led_fov60.theta_fov, led_fov60.theta_fov + 0.1):
            th = FeedbackThresholds(dist_threshold=1.0, angle_threshold=tt)
            rs = np.array([0.0, 5.0, 10.0])
            bands = mean_angle_bands(rs, model_dev30, led_fov60, th, "weak")
            assert len(bands) == 2
            for lo, hi in bands:
                assert np.array_equal(lo, hi)

    def test_weak_measure_against_simulation(self, validation_setup):
        model, led, th = validation_setup
        from vlcnoma import incidence_angle, sample_users

        rng = np.random.default_rng(23)
        d, mean, _ = sample_users(model, rng, (400_000,))
        theta = np.abs(incidence_angle(d, mean, led.ell))
        member = (d > th.dist_threshold) & (theta > th.angle_threshold) & (
            theta <= led.theta_fov
        )
        prob = band_measure(th.dist_threshold, model, led, th, "weak") / model.delta_d
        assert prob == pytest.approx(member.mean(), abs=0.003)


class TestMeanSetCdfs:
    def test_weak_atom_at_zero(self, validation_setup):
        model, led, th = validation_setup
        atom = cdf_weak_twobit_mean(0.0, model, led, th)
        assert atom == pytest.approx(0.14568512926155847, rel=1e-8)

    def test_negative_level_is_zero(self, validation_setup):
        model, led, th = validation_setup
        assert cdf_weak_twobit_mean(-1e-15, model, led, th) == 0.0
        assert cdf_strong_twobit_mean(-1e-15, model, led, th) == 0.0

    def test_weak_regression(self, validation_setup):
        model, led, th = validation_setup
        assert cdf_weak_twobit_mean(1e-12, model, led, th) == pytest.approx(
            0.7369828519679741, rel=1e-7
        )

    def test_saturation(self, validation_setup):
        model, led, th = validation_setup
        _, upsilon = channel_constant(led)
        assert cdf_weak_twobit_mean(1.0 / upsilon(th.dist_threshold), model, led, th) == (
            pytest.approx(1.0, abs=1e-9)
        )
        assert cdf_strong_twobit_mean(1.0 / upsilon(model.d_min), model, led, th) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_zero_angle_threshold_degenerate(self, model_dev30, led_fov60):
        with pytest.raises((DegenerateConditionError, InvalidParameterError)):
            th = FeedbackThresholds(dist_threshold=1.0, angle_threshold=0.0)
            cdf_strong_twobit_mean(1e-12, model_dev30, led_fov60, th)

    def test_roundoff_mass_of_empty_set_is_degenerate(self):
        # The strong set (d <= 4 m) needs a mean angle within 5 degrees of an aim
        # angle of 135-153 degrees, outside the mean band [70, 100]: it is empty,
        # and only round-off gives it a mass.  Both twins must say so.
        led = LedGeometry(2.0, np.radians(60.0), 1e-4, np.radians(50.0))
        model = MobilityModel(2.0, 6.0, np.radians(70.0), np.radians(100.0), np.radians(20.0))
        th = FeedbackThresholds.from_fractions(model, led, 0.5, 0.1)
        assert abs(band_measure(model.d_min, model, led, th, "strong")) < 1e-12
        with pytest.raises(DegenerateConditionError):
            cdf_strong_twobit_mean(np.array([0.0, 1e-12, 1e-10, 1e-8]), model, led, th)
        with pytest.raises(DegenerateConditionError):
            estimate("twobit_mean_strong", 20_000, model, led, thresholds=th, seed=0)

    def test_monotone_coarse_grid(self, validation_setup):
        model, led, th = validation_setup
        _, upsilon = channel_constant(led)
        xs = np.linspace(0.0, 1.1 / upsilon(th.dist_threshold), 25)
        vals = [cdf_weak_twobit_mean(x, model, led, th) for x in xs]
        assert np.all(np.diff(vals) >= -1e-9)
        xs_s = np.linspace(0.0, 1.1 / upsilon(model.d_min), 25)
        vals_s = [cdf_strong_twobit_mean(x, model, led, th) for x in xs_s]
        assert np.all(np.diff(vals_s) >= -1e-9)


def _mean_set_geometry(fov_deg: float, dev_deg: float):
    """fov and deviation in degrees, mean band tracking the deviation, thresholds at 0.1."""
    led = LedGeometry(
        ell=2.0, phi_hpbw=np.radians(60.0), area_r=1e-4, theta_fov=np.radians(fov_deg)
    )
    model = MobilityModel(
        0.0, 10.0, np.radians(dev_deg), np.radians(180.0 - dev_deg), np.radians(dev_deg)
    )
    return model, led, FeedbackThresholds.from_fractions(model, led, 0.1, 0.1)


def _mean_set_levels(model, led, th, subset):
    """Level 0 and the 1-99.9% quantiles of the squared gain of sampled set members."""
    d, mean, inst = sample_users(model, np.random.default_rng(7), (200_000,))
    theta = np.abs(incidence_angle(d, mean, led.ell))
    near = d <= th.dist_threshold
    if subset == "weak":
        member = ~near & (theta > th.angle_threshold) & (theta <= led.theta_fov)
    else:
        member = near & (theta <= th.angle_threshold)
    gains = np.square(dc_gain(d[member], inst[member], led))
    probs = (0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    return np.concatenate(([0.0], np.quantile(gains, probs)))


def _nested_mean_set_cdf(xi, model, led, th, subset):
    """The mean-family CDF as a double integral: the inner mean-angle integral by
    a Gauss-Legendre rule on the pieces between the kinks of its linear integrand."""
    dev = model.max_deviation
    if subset == "weak":
        r_lo, r_hi = th.dist_threshold, model.d_max
        offsets = (led.theta_fov, -led.theta_fov, th.angle_threshold, -th.angle_threshold)
    else:
        r_lo, r_hi = model.d_min, th.dist_threshold
        offsets = (th.angle_threshold, -th.angle_threshold)
    static = tuple(
        bound_crossing_radius(off, bound, led.ell)
        for off in offsets
        for bound in (model.mean_angle_min, model.mean_angle_max)
    )

    def psi_of(r):
        return np.minimum(gain_halfangle(xi, r, led), led.theta_fov)

    def integrand(r, mean):
        center = np.pi - np.arctan2(led.ell, r)
        psi = psi_of(r)
        if dev == 0.0:
            return 1.0 - ((mean >= center - psi) & (mean <= center + psi)).astype(float)
        lo = mean - dev
        covered = np.clip((center + psi - lo) / (2 * dev), 0.0, 1.0) - np.clip(
            (center - psi - lo) / (2 * dev), 0.0, 1.0
        )
        return 1.0 - covered

    def inner_support(r):
        center = np.pi - np.arctan2(led.ell, r)
        psi = float(psi_of(r))
        cuts = (center - psi - dev, center - psi + dev, center + psi - dev, center + psi + dev)
        pieces = []
        for a, b in mean_angle_bands(r, model, led, th, subset):
            a, b = float(a), float(b)
            if b > a:
                pts = [a] + sorted(c for c in cuts if a < c < b) + [b]
                pieces.extend(zip(pts[:-1], pts[1:]))
        return pieces

    split = edge_gain_distance(xi, led, cos_sq=1.0, lo=r_lo, hi=r_hi)
    total = band_measure(split, model, led, th, subset)
    if split > r_lo:
        edge = edge_gain_distance(xi, led, cos_sq=np.cos(led.theta_fov) ** 2, lo=r_lo, hi=r_hi)
        bps = static + (edge,)
        total += integrate_2d_nested(integrand, (r_lo, split), inner_support, bps) / (
            model.delta_mean
        )
    return float(np.clip(total / band_measure(r_lo, model, led, th, subset), 0.0, 1.0))


MEAN_SET_CDFS = {"weak": cdf_weak_twobit_mean, "strong": cdf_strong_twobit_mean}


class TestMeanSetClosedInnerIntegral:
    """The mean-angle integral in closed form against a double-integral oracle."""

    @pytest.mark.parametrize("subset", ["weak", "strong"])
    @pytest.mark.parametrize("fov_deg,dev_deg", [(50, 25), (60, 30), (90, 0), (50, 10)])
    def test_matches_nested_quadrature(self, fov_deg, dev_deg, subset):
        model, led, th = _mean_set_geometry(fov_deg, dev_deg)
        xs = _mean_set_levels(model, led, th, subset)
        got = MEAN_SET_CDFS[subset](xs, model, led, th)
        oracle = np.array([_nested_mean_set_cdf(x, model, led, th, subset) for x in xs])
        assert np.all(np.abs(got - oracle) <= 1e-14)
        assert np.ptp(got) > 0.5

    def test_subnormal_deviation_takes_the_step_limit(self):
        # The closed form divides by twice the deviation; below the smallest
        # normal float the zero-deviation overlap is the exact value.
        base, led, th = _mean_set_geometry(50, 0)
        xs = np.array([0.0, 1e-14, 1e-13, 4.6e-13, 1e-12, 3e-12, 1e-11, 1e-10])
        for cdf in MEAN_SET_CDFS.values():
            ref = cdf(xs, base, led, th)
            for dev in (5e-324, 1e-310, 1e-300):
                model = dataclasses.replace(base, max_deviation=dev)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = cdf(xs, model, led, th)
                assert np.all(np.abs(got - ref) <= 1e-15)

    def test_no_runtime_path_reaches_the_nested_rule(self, monkeypatch, model_dev30, led_fov60):
        def forbidden(*args, **kwargs):
            raise AssertionError("integrate_2d_nested was called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "vlcnoma" and hasattr(module, "integrate_2d_nested"):
                monkeypatch.setattr(module, "integrate_2d_nested", forbidden)
        th = FeedbackThresholds.from_fractions(model_dev30, led_fov60, 0.1, 0.1)
        for cdf in MEAN_SET_CDFS.values():
            cdf(np.array([0.0, 1e-13, 1e-12]), model_dev30, led_fov60, th)
        argv = ["sweep-snr", "--mode", "TwoBitMean", "--trials", "2000", "--set", "workers=1"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0


class TestFeedbackThresholds:
    def test_from_fractions(self, model_dev25, led_fov50):
        th = FeedbackThresholds.from_fractions(model_dev25, led_fov50, 0.1, 0.1)
        assert th.dist_threshold == pytest.approx(1.0, rel=1e-12)
        assert th.angle_threshold == pytest.approx(np.radians(5.0), rel=1e-12)

    def test_fraction_bounds_enforced(self, model_dev25, led_fov50):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(InvalidParameterError):
                FeedbackThresholds.from_fractions(model_dev25, led_fov50, bad, 0.5)
            with pytest.raises(InvalidParameterError):
                FeedbackThresholds.from_fractions(model_dev25, led_fov50, 0.5, bad)

    def test_absolute_validation(self):
        with pytest.raises(InvalidParameterError):
            FeedbackThresholds(dist_threshold=-1.0, angle_threshold=0.1)
        with pytest.raises(InvalidParameterError):
            FeedbackThresholds(dist_threshold=1.0, angle_threshold=-0.1)


# The public function each family-table entry must reach.
PUBLIC_CDF = {
    "unordered": "cdf_gain_unordered",
    "ordered": "cdf_gain_ranked",
    "twobit_inst_weak": "cdf_weak_twobit_inst",
    "twobit_inst_strong": "cdf_strong_twobit_inst",
    "twobit_mean_weak": "cdf_weak_twobit_mean",
    "twobit_mean_strong": "cdf_strong_twobit_mean",
}


class TestFamilyTable:
    @pytest.fixture(params=["fig", "v"])
    def condition(
        self, request, model_dev30, led_fov60, thresholds_validation, model_dev25, led_fov50
    ):
        """The distribution-validation (fig) and sweep (v) setups: ranks among 20, 10 lit."""
        if request.param == "fig":
            model, led, th = model_dev30, led_fov60, thresholds_validation
        else:
            model, led = model_dev25, led_fov50
            th = FeedbackThresholds.from_fractions(model, led, 0.1, 0.1)
        return dict(model=model, led=led, thresholds=th, total_users=20, k_min=10)

    @pytest.mark.parametrize("family", list(CDF_FAMILIES))
    def test_entry_is_vectorized_public_call(self, family, condition, monkeypatch):
        model, led, th = condition["model"], condition["led"], condition["thresholds"]
        cdf = functools.partial(CDF_FAMILIES[family], **condition)
        _, upsilon = channel_constant(led)
        top = 1.0 / upsilon(model.d_min)
        xs = np.concatenate(([0.0], np.geomspace(1e-6 * top, 1.05 * top, 63)))
        vector = cdf(xs)
        assert vector.tobytes() == np.array([cdf(float(x)) for x in xs]).tobytes()
        name = PUBLIC_CDF[family]
        public = getattr(gain_cdf, name)
        args = {"cdf_gain_unordered": (model, led), "cdf_gain_ranked": (10, model, led)}
        kwargs = RANKED if name == "cdf_gain_ranked" else {}
        assert public(xs, *args.get(name, (model, led, th)), **kwargs).tobytes() == vector.tobytes()
        # the entry looks its public function up at call time, as a tracer rebinding it needs
        calls = []
        monkeypatch.setattr(gain_cdf, name, lambda *a, **k: calls.append(a) or public(*a, **k))
        assert cdf(xs[:3]).tobytes() == vector[:3].tobytes()
        assert len(calls) == 1

    def test_missing_condition_rejected(self, validation_setup):
        model, led, _ = validation_setup
        with pytest.raises(InvalidParameterError):
            CDF_FAMILIES["ordered"](1e-12, model, led)
        with pytest.raises(InvalidParameterError):
            CDF_FAMILIES["twobit_inst_weak"](1e-12, model, led)
