"""Mobility model: the angle mixture and its CDF, in-FOV probability, nonzero-count PMF."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from vlcnoma import (
    DegenerateConditionError,
    InvalidParameterError,
    LedGeometry,
    MobilityModel,
    band_mixture,
    binom_pmf,
    binom_tail,
    cdf_vertical_angle,
    dc_gain,
    integrate_1d,
    ks_distance_bound,
    nonzero_gain_probability,
    pmf_nonzero_count_truncated,
    sample_users,
)
from vlcnoma.mobility import MAX_TOTAL_USERS, fov_window_breakpoints


def model_with(dev_deg, lo_deg=None, hi_deg=None):
    dev = np.radians(dev_deg)
    lo = np.radians(lo_deg) if lo_deg is not None else dev
    hi = np.radians(hi_deg) if hi_deg is not None else np.pi - dev
    return MobilityModel(0.0, 10.0, lo, hi, dev)


def window_mass(r, half_width, model, led):
    """Mean-angle measure of |incidence angle| <= half_width at distance r, by band_mixture."""
    center = np.pi - np.arctan2(led.ell, r)
    lo, hi = model.mean_angle_min, model.mean_angle_max
    return band_mixture(center + half_width, lo, hi, model) - band_mixture(
        center - half_width, lo, hi, model
    )


class TestMobilityModel:
    def test_invalid_ranges_rejected(self):
        with pytest.raises(InvalidParameterError):
            MobilityModel(-1.0, 10.0, 0.5, 2.5, 0.1)
        with pytest.raises(InvalidParameterError):
            MobilityModel(0.0, 10.0, 2.5, 0.5, 0.1)
        with pytest.raises(InvalidParameterError):
            MobilityModel(0.0, 10.0, 0.5, 2.5, -0.1)

    def test_negative_zero_deviation_rejected(self):
        # -0.0 < 0 is False, and the sampler's uniform(0.0, -0.0) would raise
        with pytest.raises(InvalidParameterError):
            MobilityModel(0.0, 10.0, 0.5, 2.5, -0.0)
        MobilityModel(0.0, 10.0, 0.5, 2.5, 0.0)

    def test_deviation_band_must_stay_physical(self):
        # mean 10 degrees with deviation 30 dips below zero
        with pytest.raises(InvalidParameterError):
            model_with(30.0, lo_deg=10.0, hi_deg=150.0)


class TestAngleCdf:
    def test_symmetric_band_median_at_ninety(self, model_dev30):
        assert cdf_vertical_angle(np.pi / 2, model_dev30) == pytest.approx(0.5, abs=1e-14)

    def test_quarter_point_closed_form(self, model_dev30):
        # 30..150 mean band with deviation 30: shoulder value known in closed form
        assert cdf_vertical_angle(np.radians(45.0), model_dev30) == pytest.approx(
            0.140625, abs=1e-12
        )

    def test_support_edges(self, model_dev30):
        lo = model_dev30.mean_angle_min - model_dev30.max_deviation
        hi = model_dev30.mean_angle_max + model_dev30.max_deviation
        assert cdf_vertical_angle(lo, model_dev30) == 0.0
        assert cdf_vertical_angle(hi, model_dev30) == pytest.approx(1.0, abs=1e-14)
        assert cdf_vertical_angle(lo - 0.1, model_dev30) == 0.0
        assert cdf_vertical_angle(hi + 0.1, model_dev30) == 1.0

    def test_monotone_on_grid(self, model_dev30):
        xs = np.linspace(0.0, np.pi, 1000)
        vals = cdf_vertical_angle(xs, model_dev30)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_zero_deviation_reduces_to_uniform(self):
        model = model_with(0.0, lo_deg=30.0, hi_deg=150.0)
        xs = np.linspace(np.radians(30), np.radians(150), 200)
        uniform = (xs - model.mean_angle_min) / model.delta_mean
        np.testing.assert_allclose(cdf_vertical_angle(xs, model), uniform, atol=1e-14)

    def test_small_deviation_near_uniform(self):
        model = model_with(0.0, lo_deg=30.0, hi_deg=150.0)
        tiny = MobilityModel(
            0.0, 10.0, model.mean_angle_min, model.mean_angle_max, 1e-9
        )
        xs = np.linspace(np.radians(31), np.radians(149), 100)
        np.testing.assert_allclose(
            cdf_vertical_angle(xs, tiny), cdf_vertical_angle(xs, model), atol=1e-6
        )

    def test_wide_deviation_branch(self):
        # deviation wider than half the mean band exercises the other middle branch
        model = model_with(50.0, lo_deg=60.0, hi_deg=120.0)
        xs = np.linspace(0.0, np.pi, 500)
        vals = cdf_vertical_angle(xs, model)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] == 0.0 and vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_branch_continuity(self):
        for dev, lo, hi in ((20.0, 40.0, 140.0), (50.0, 60.0, 120.0), (30.0, 30.0, 150.0)):
            model = model_with(dev, lo_deg=lo, hi_deg=hi)
            knots = np.array(
                [
                    model.mean_angle_min - model.max_deviation,
                    model.mean_angle_min + model.max_deviation,
                    model.mean_angle_max - model.max_deviation,
                    model.mean_angle_max + model.max_deviation,
                ]
            )
            for k in knots:
                below = cdf_vertical_angle(k - 1e-13, model)
                above = cdf_vertical_angle(k + 1e-13, model)
                assert above - below == pytest.approx(0.0, abs=1e-12)

    def test_matches_empirical(self, model_dev30):
        rng = np.random.default_rng(42)
        _, _, inst = sample_users(model_dev30, rng, (400_000,))
        assert ks_distance_bound(inst, lambda x: cdf_vertical_angle(x, model_dev30)) < 0.004

    @given(st.floats(0.0, 45.0), st.floats(0.0, np.pi))
    @example(11.0, 3.1415926535897927)  # an ulp below the top, where the ramps round past 1
    @settings(max_examples=60, deadline=None)
    def test_cdf_bounds_property(self, dev_deg, x):
        model = model_with(dev_deg)
        v = float(cdf_vertical_angle(x, model))
        assert 0.0 <= v <= 1.0


def piecewise_cdf(x, model):
    """The piecewise form of the angle CDF, kept as an oracle for the band-mixture one."""
    x = np.asarray(x, dtype=float)
    lo, hi = model.mean_angle_min, model.mean_angle_max
    dev, dmean = model.max_deviation, model.delta_mean
    if dev < np.finfo(float).tiny:
        if dmean == 0.0:
            return np.where(x >= lo, 1.0, 0.0)
        return np.clip((x - lo) / dmean, 0.0, 1.0)
    if dmean == 0.0:
        return np.clip((x - lo + dev) / (2 * dev), 0.0, 1.0)
    z_lo = min(lo + dev, hi - dev)
    z_hi = max(lo + dev, hi - dev)
    ramp_up = ((x - lo + dev) / (2 * dev)) * ((x - lo + dev) / (2 * dmean))
    ramp_down = 1.0 - ((hi + dev - x) / (2 * dev)) * ((hi + dev - x) / (2 * dmean))
    if 2 * dev <= dmean:
        middle = (x - lo) / dmean
    else:
        middle = (x + dev - 0.5 * (lo + hi)) / (2 * dev)
    out = np.where(x < lo - dev, 0.0, np.where(x < z_lo, ramp_up, middle))
    return np.where(x >= z_hi, np.where(x < hi + dev, ramp_down, 1.0), out)


class TestBandMixture:
    @pytest.mark.parametrize(
        "dev,lo_deg,hi_deg",
        [
            (np.radians(25.0), 25.0, 155.0),  # 2 dev <= delta_mean
            (np.radians(50.0), 60.0, 120.0),  # 2 dev > delta_mean
            (0.0, 30.0, 150.0),
            (1e-310, 30.0, 150.0),  # subnormal
            (np.radians(20.0), 90.0, 90.0),  # point mean range
            (0.0, 90.0, 90.0),
        ],
    )
    def test_cdf_matches_the_piecewise_form(self, dev, lo_deg, hi_deg):
        model = MobilityModel(0.0, 10.0, np.radians(lo_deg), np.radians(hi_deg), dev)
        bottom = model.mean_angle_min - dev
        top = model.mean_angle_max + dev
        xs = np.concatenate(
            (np.linspace(bottom - 0.3, top + 0.3, 20_001), [bottom, top, np.nextafter(top, 0.0)])
        )
        got = cdf_vertical_angle(xs, model)
        assert np.max(np.abs(got - piecewise_cdf(xs, model))) <= 4e-15
        assert np.all(got[xs < bottom] == 0.0)
        assert np.all(got[xs >= top] == 1.0)
        scalar = cdf_vertical_angle(float(xs[7_000]), model)
        assert type(scalar) is float and scalar == got[7_000]

    def test_in_place_form_is_the_plain_formula(self):
        # The ramp integral w * (area((k - a) / w) - area((k - b) / w)), k = y + dev, bit for bit.
        model = model_with(25.0)
        rng = np.random.default_rng(11)
        lo, hi = model.mean_angle_min, model.mean_angle_max
        a = rng.uniform(lo, hi, 50_000)
        b = rng.uniform(a, hi)
        y = rng.uniform(0.0, np.pi, 50_000)
        w = 2.0 * model.max_deviation

        def area(u):
            c = np.clip(u, 0.0, 1.0)
            return 0.5 * c * c + np.maximum(u - 1.0, 0.0)

        k = y + model.max_deviation
        plain = w * (area((k - a) / w) - area((k - b) / w))
        assert band_mixture(y, a, b, model).tobytes() == plain.tobytes()
        assert band_mixture(y[0], a[0], b[0], model) == plain[0]
        assert type(band_mixture(y[0], a[0], b[0], model)) is float


class TestSampling:
    def test_sampler_respects_ranges(self, model_dev25):
        rng = np.random.default_rng(3)
        d, mean, inst = sample_users(model_dev25, rng, (10_000,))
        assert d.min() >= model_dev25.d_min and d.max() <= model_dev25.d_max
        assert mean.min() >= model_dev25.mean_angle_min
        assert mean.max() <= model_dev25.mean_angle_max
        assert np.all(np.abs(inst - mean) <= model_dev25.max_deviation)

    def test_fixed_draw_count_per_user(self, model_dev25):
        # each sampled user consumes the same number of stream draws, so
        # prefixes of a common stream agree
        a = sample_users(model_dev25, np.random.default_rng(9), (4, 3))
        b = sample_users(model_dev25, np.random.default_rng(9), (4, 3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestInFovProbability:
    def test_probability_matches_simulation(self, model_dev25, led_fov50):
        p = nonzero_gain_probability(model_dev25, led_fov50)
        rng = np.random.default_rng(17)
        d, mean, inst = sample_users(model_dev25, rng, (400_000,))
        frac = np.mean(dc_gain(d, inst, led_fov50) > 0)
        assert p == pytest.approx(frac, abs=0.003)

    def test_window_mixture_consistency(self, model_dev25, led_fov50):
        # the in-view mass at one radius lies in [0, delta_mean] and shrinks with the window
        r = 4.0
        half = led_fov50.theta_fov
        per_r = window_mass(r, half, model_dev25, led_fov50)
        assert 0.0 <= per_r <= model_dev25.delta_mean
        narrower = window_mass(r, half / 4, model_dev25, led_fov50)
        assert narrower <= per_r

    @pytest.mark.parametrize("fov_deg", [30.0, 50.0, 60.0, 90.0])
    @pytest.mark.parametrize("dev_deg", [0.0, 10.0, 25.0, 30.0])
    def test_equals_direct_window_integral(self, dev_deg, fov_deg):
        # The band integral of the CDF families, over the whole field of view,
        # is the distance average of the in-view mixture difference bit for bit.
        model = model_with(dev_deg)
        led = LedGeometry(2.0, np.radians(60.0), 1e-4, np.radians(fov_deg))
        total = integrate_1d(
            lambda r: window_mass(r, led.theta_fov, model, led),
            model.d_min,
            model.d_max,
            fov_window_breakpoints(led.theta_fov, model, led),
        )
        p = total / model.delta_mean / model.delta_d
        assert nonzero_gain_probability(model, led) == min(max(p, 0.0), 1.0)

    def test_fig_reference_value(self, model_dev30, led_fov60):
        assert nonzero_gain_probability(model_dev30, led_fov60) == pytest.approx(
            0.495322, abs=2e-6
        )


class TestNonzeroCountPmf:
    def test_pmf_sums_to_one(self, model_dev25, led_fov50):
        p = nonzero_gain_probability(model_dev25, led_fov50)
        ks = np.arange(21)
        assert stats.binom.pmf(ks, 20, p).sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf_nonzero_count_truncated(ks, 20, p, 10).sum() == pytest.approx(1.0, abs=1e-10)

    def test_truncation_zeroes_low_counts(self):
        vals = pmf_nonzero_count_truncated(np.arange(21), 20, 0.4, 10)
        assert np.all(vals[:10] == 0.0)
        assert np.all(vals[10:] >= 0.0)

    def test_impossible_truncation_rejected(self):
        with pytest.raises(DegenerateConditionError):
            pmf_nonzero_count_truncated(np.arange(21), 20, 1e-300, 10)

    def test_invalid_count_parameters(self):
        ks = np.arange(21)
        with pytest.raises(InvalidParameterError, match="need at least one user"):
            pmf_nonzero_count_truncated(ks, 0, 0.5, 1)
        with pytest.raises(InvalidParameterError, match="success probability"):
            pmf_nonzero_count_truncated(ks, 20, 1.5, 10)
        with pytest.raises(InvalidParameterError, match="k_min must lie"):
            pmf_nonzero_count_truncated(ks, 20, 0.5, 25)


# scipy is the oracle: success probabilities at and next to both ends, and in the bulk.
ORACLE_PS = np.array([0.0, 1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12, 1.0])


def assert_matches_oracle(got, ref):
    """Within 1e-11 relative wherever the oracle is at least 1e-250, and as tiny elsewhere."""
    assert np.all(np.isfinite(got))
    big = ref >= 1e-250
    assert np.all(np.abs(got[big] - ref[big]) <= 1e-11 * ref[big])
    assert np.all((got[~big] >= 0.0) & (got[~big] < 1e-240))


class TestBinomial:
    @pytest.mark.parametrize("n", [1, 2, 20, 200, MAX_TOTAL_USERS])
    def test_pmf_matches_scipy(self, n):
        k = np.arange(-1, n + 2)[:, None]
        got = binom_pmf(k, n, ORACLE_PS)
        assert got.shape == (n + 3, ORACLE_PS.size)
        assert_matches_oracle(got, stats.binom.pmf(k, n, ORACLE_PS))
        assert np.all(got[[0, -1]] == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 20, 200, MAX_TOTAL_USERS])
    def test_tail_matches_scipy(self, n):
        for k_min in range(1, n + 1):
            got = binom_tail(k_min, n, ORACLE_PS)
            assert_matches_oracle(got, stats.binom.sf(k_min - 1, n, ORACLE_PS))
            # the ranked CDF's order-statistic term, I_x(rank, n - rank + 1)
            assert_matches_oracle(got, special.betainc(k_min, n - k_min + 1, ORACLE_PS))

    def test_pmf_broadcasts_over_sizes(self):
        ns = np.arange(0, MAX_TOTAL_USERS + 1, 37)[:, None]
        for k in (0, 1, 36):
            assert_matches_oracle(binom_pmf(k, ns, ORACLE_PS), stats.binom.pmf(k, ns, ORACLE_PS))

    def test_scalar_cases(self):
        assert binom_pmf(0, 0, 0.3) == 1.0
        assert binom_pmf(3, 5, 0.0) == 0.0 and binom_pmf(5, 5, 1.0) == 1.0
        assert isinstance(binom_tail(2, 5, 0.4), float)
        assert binom_tail(6, 5, 0.4) == 0.0 and binom_tail(0, 5, 0.4) == pytest.approx(1.0)

    def test_tail_of_one_level_ignores_the_others(self):
        ps = np.linspace(0.0, 1.0, 64)
        vector = binom_tail(10, 20, ps)
        assert vector.tobytes() == np.array([binom_tail(10, 20, p) for p in ps]).tobytes()

    @pytest.mark.parametrize("n", [-1, MAX_TOTAL_USERS + 1, [5, MAX_TOTAL_USERS + 1]])
    def test_size_outside_table_rejected(self, n):
        with pytest.raises(InvalidParameterError):
            binom_pmf(0, n, 0.5)

    @pytest.mark.parametrize("p", [0.0, 1e-300, 0.5, 1.0])
    @pytest.mark.parametrize("k_min", [1, 2, 500, MAX_TOTAL_USERS])
    def test_truncated_pmf_at_the_edges(self, p, k_min):
        ks = np.arange(MAX_TOTAL_USERS + 1)
        if p == 0.0 or (p == 1e-300 and k_min > 1):
            # no representable mass at or above k_min
            with pytest.raises(DegenerateConditionError):
                pmf_nonzero_count_truncated(ks, MAX_TOTAL_USERS, p, k_min)
            return
        weights = pmf_nonzero_count_truncated(ks, MAX_TOTAL_USERS, p, k_min)
        assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
        assert np.all(weights[:k_min] == 0.0)
        assert abs(weights.sum() - 1.0) <= 1e-12
