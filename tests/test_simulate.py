"""Monte Carlo engine: trial semantics, conditioning, noise, and determinism."""

import numpy as np
import pytest
from scipy import stats

from vlcnoma import (
    DegenerateConditionError,
    FeedbackThresholds,
    InvalidParameterError,
    LedGeometry,
    MobilityModel,
    NoiseConfig,
    collect_scheduled_gains,
    estimate,
    incidence_angle,
    ks_distance_bound,
    nonzero_count_histogram,
    nonzero_gain_probability,
    outage_gain_thresholds,
    outage_pair_analytic,
    prob_incidence_within,
    rate_stats,
    sample_users,
    sum_rate_noma,
)
from vlcnoma.quadrature import QuadratureSpec, integrate_1d
from vlcnoma import simulate
from vlcnoma.rates import FEEDBACK_MODES
from vlcnoma.simulate import _group_masks, _observe, _uniform_pick
from vlcnoma.gain_cdf import cdf_gain_ranked
from tests.conftest import make_noma


class TestApplyNoise:
    """Observation noise of ``_observe``, the one noise path of the engine."""

    def test_disabled_is_identity(self):
        d, mean, inst = np.array([3.0]), np.array([1.2]), np.array([1.4])
        rng = np.random.default_rng(0)
        for noise in (None, NoiseConfig(0.05, 2.5, enabled=False)):
            out = _observe(d, mean, inst, noise, rng)
            assert out[0] is d and out[1] is mean and out[2] is inst
        # nothing was drawn from the stream
        assert rng.random() == np.random.default_rng(0).random()

    def test_zero_sigma_is_identity(self):
        d, mean, inst = np.array([3.0]), np.array([1.2]), np.array([1.4])
        out = _observe(d, mean, inst, NoiseConfig(0.0, 0.0, enabled=True), np.random.default_rng(0))
        np.testing.assert_array_equal(out[0], d)
        np.testing.assert_array_equal(out[1], mean)
        np.testing.assert_array_equal(out[2], inst)

    def test_sample_std_matches_sigma(self):
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        angle = np.full(200_000, 1.3)
        d_obs, _, _ = _observe(np.full(200_000, 5.0), angle, angle, noise, np.random.default_rng(1))
        assert np.std(d_obs - 5.0) == pytest.approx(0.05, rel=0.01)

    def test_angle_sigma_in_degrees(self):
        noise = NoiseConfig(sigma_d=0.0, sigma_phi=2.5, enabled=True)
        angle = np.full(100_000, 1.3)
        _, _, inst_obs = _observe(
            np.full(100_000, 5.0), angle, angle, noise, np.random.default_rng(2)
        )
        assert np.std(inst_obs - 1.3) == pytest.approx(np.radians(2.5), rel=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            NoiseConfig(sigma_d=-0.1)

    def test_matches_out_of_place_formula_bit_for_bit(self, model_dev25):
        noise = NoiseConfig(sigma_d=0.8, sigma_phi=2.5, enabled=True)
        d, mean, inst = sample_users(model_dev25, np.random.default_rng(3), (300, 20))
        # large distance noise so the clamp at zero is exercised
        got = _observe(d, mean, inst, noise, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        sigma_phi = np.radians(noise.sigma_phi)
        want = (
            np.maximum(d + noise.sigma_d * rng.standard_normal(d.shape), 0.0),
            mean + sigma_phi * rng.standard_normal(mean.shape),
            inst + sigma_phi * rng.standard_normal(inst.shape),
        )
        assert np.any(want[0] == 0.0)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("draws", [1, 2])
    def test_fewer_draws_keep_the_leading_ones(self, draws):
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        true = tuple(np.full(50, v) for v in (5.0, 1.2, 1.4))
        full = _observe(*true, noise, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        part = _observe(*true, noise, rng, draws)
        for k in range(draws):
            assert part[k].tobytes() == full[k].tobytes()
        assert all(part[k] is true[k] for k in range(draws, 3))
        # only the leading draws left the stream
        after = np.random.default_rng(5)
        after.standard_normal(50 * draws)
        assert rng.random() == after.random()


class TestIndividualTrial:
    def test_outcome_structure(self, model_dev25, led_fov50):
        gain_w, gain_s, trials = collect_scheduled_gains(
            2_000, make_noma(), model_dev25, led_fov50, total_users=20, seed=3
        )
        assert trials == 2_000
        assert 0 < gain_w.size == gain_s.size < trials
        assert np.all(gain_s >= gain_w) and np.all(gain_w >= 0.0)

    def test_two_users_huge_snr_no_outage(self):
        # wide-open field of view, feasible split, enormous SNR: whenever both
        # gains are nonzero neither user is in outage
        led = LedGeometry(2.0, np.radians(60), 1e-4, np.radians(90))
        model = MobilityModel(0.0, 10.0, np.radians(25), np.radians(155), np.radians(25))
        cfg = make_noma(snr_db=320.0, weak_rank=1, strong_rank=2)
        gain_w, gain_s, _ = collect_scheduled_gains(300, cfg, model, led, total_users=2, seed=4)
        threshold_weak, threshold_strong, _ = outage_gain_thresholds(cfg)
        lit = gain_w > 0.0
        assert np.all(gain_w[lit] > threshold_weak)
        assert np.all(gain_s[lit] > threshold_strong)
        assert lit.sum() > 50

    def test_mean_angle_equals_full_csi_at_zero_deviation(self, led_fov50):
        model = MobilityModel(0.0, 10.0, np.radians(25), np.radians(155), 0.0)
        a = collect_scheduled_gains(
            5_000, make_noma(mode="FullCSI"), model, led_fov50, total_users=20, seed=6
        )
        b = collect_scheduled_gains(
            5_000, make_noma(mode="MeanAngle"), model, led_fov50, total_users=20, seed=6
        )
        assert a[0].size > 0
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_population_must_cover_rank(self, model_dev25, led_fov50):
        with pytest.raises(InvalidParameterError):
            collect_scheduled_gains(
                1_000, make_noma(), model_dev25, led_fov50, total_users=5, seed=0
            )


class TestGroupTrial:
    def test_outcome_structure(self, model_dev30, led_fov60, thresholds_validation):
        cfg = make_noma(mode="TwoBitInstantaneous", thresholds=thresholds_validation)
        gain_w, gain_s, trials = collect_scheduled_gains(
            2_000, cfg, model_dev30, led_fov60, total_users=20, seed=5
        )
        assert 0 < gain_w.size == gain_s.size <= trials
        assert np.all(gain_w >= 0.0) and np.all(gain_s >= 0.0)

    def test_strong_pick_always_in_fov_for_inst_mode(self, model_dev30, led_fov60):
        # instantaneous-angle membership guarantees nonzero true gain when
        # the angle threshold sits inside the field of view
        th = FeedbackThresholds(1.0, np.radians(6.0))
        cfg = make_noma(mode="TwoBitInstantaneous", thresholds=th)
        _, gain_s, _ = collect_scheduled_gains(
            400, cfg, model_dev30, led_fov60, total_users=20, seed=6
        )
        assert np.all(gain_s > 0.0)
        assert gain_s.size > 20

    def test_mean_mode_strong_pick_can_be_zero(self, model_dev30, led_fov60):
        # mean-angle membership tolerates instantaneous angles outside the
        # FOV, so zero-gain picks must appear and count as outage
        th = FeedbackThresholds(dist_threshold=9.5, angle_threshold=np.radians(55.0))
        cfg = make_noma(mode="TwoBitMean", thresholds=th)
        gain_w, gain_s, trials = collect_scheduled_gains(
            600, cfg, model_dev30, led_fov60, total_users=20, seed=7
        )
        zero = gain_s == 0.0
        assert zero.sum() > 0
        # the strong user earns nothing on those trials: only the weak rate is left
        threshold_weak, _, _ = outage_gain_thresholds(cfg)
        served = rate_stats(gain_w[zero], gain_s[zero], trials, cfg).value
        assert served == pytest.approx(cfg.rate_weak * np.mean(gain_w[zero] > threshold_weak))

    def test_one_bit_distance_membership(self, model_dev25, led_fov50):
        th = FeedbackThresholds(dist_threshold=5.0, angle_threshold=np.radians(5.0))
        cfg = make_noma(mode="OneBitDistance", thresholds=th)
        rng = np.random.default_rng(8)
        d, mean, inst = sample_users(model_dev25, rng, (200, 20))
        weak_mask, strong_mask = _group_masks(cfg.feedback_mode, th, led_fov50, d, mean, inst)
        u = rng.random((200, 2))
        weak_idx, weak_ok = _uniform_pick(weak_mask, u[:, 0])
        strong_idx, strong_ok = _uniform_pick(strong_mask, u[:, 1])
        scheduled = weak_ok & strong_ok
        rows = np.arange(200)
        assert scheduled.sum() > 150
        assert np.all(d[rows, weak_idx][scheduled] > th.dist_threshold)
        assert np.all(d[rows, strong_idx][scheduled] <= th.dist_threshold)

    def test_weak_set_empty_when_threshold_at_dmax(self, model_dev25, led_fov50):
        th = FeedbackThresholds(dist_threshold=10.0, angle_threshold=np.radians(5.0))
        cfg = make_noma(mode="OneBitDistance", thresholds=th)
        gain_w, _, _ = collect_scheduled_gains(
            200, cfg, model_dev25, led_fov50, total_users=20, seed=9
        )
        assert gain_w.size == 0


def _uniform_pick_reference(mask, u):
    """The cumsum/argmax rule that ``_uniform_pick`` must reproduce."""
    count = mask.sum(axis=1)
    target = (u * np.maximum(count, 1)).astype(np.int64) + 1
    idx = np.argmax(np.cumsum(mask, axis=1) == target[:, None], axis=1)
    return idx, count > 0


class TestUniformPick:
    @pytest.mark.parametrize("width", [1, 2, 20, 1000])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.3, 1.0])
    def test_matches_cumsum_rule(self, p, width):
        rng = np.random.default_rng(width)
        mask = rng.random((300, width)) < p
        for u in (rng.random(300), np.zeros(300), np.full(300, np.nextafter(1.0, 0.0))):
            idx, ok = _uniform_pick(mask, u)
            want_idx, want_ok = _uniform_pick_reference(mask, u)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(ok, want_ok)
            assert np.all(mask[ok, idx[ok]])


class TestEstimate:
    def test_sum_rate_matches_analytic(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=200.0)
        res = estimate("sum_rate", 200_000, cfg, model_dev25, led_fov50, total_users=20, seed=7)
        p = outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20)
        assert res.value == pytest.approx(sum_rate_noma(*p, cfg), abs=0.05)

    def test_scheduling_probability_matches_binomial_tail(self, model_dev25, led_fov50):
        trials = 300_000
        res = estimate(
            "sum_rate", trials, make_noma(), model_dev25, led_fov50, total_users=20, seed=11
        )
        p = nonzero_gain_probability(model_dev25, led_fov50)
        tail = float(stats.binom.sf(9, 20, p))
        se = np.sqrt(tail * (1 - tail) / trials)
        assert abs(res.sched_prob - tail) < 3 * se

    def test_outage_pair_metric(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=200.0)
        res = estimate("outage_pair", 100_000, cfg, model_dev25, led_fov50, total_users=20, seed=3)
        p_weak, p_strong = outage_pair_analytic(cfg, model_dev25, led_fov50, total_users=20)
        assert res.value[0] == pytest.approx(p_weak, abs=0.01)
        assert res.value[1] == pytest.approx(p_strong, abs=0.01)

    def test_all_outage_configuration(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=60.0)
        res = estimate("sum_rate", 20_000, cfg, model_dev25, led_fov50, total_users=20, seed=5)
        assert res.value == 0.0
        assert res.stderr == 0.0

    def test_zero_scheduled_trials_degenerate(self, model_dev25, led_fov50):
        th = FeedbackThresholds(dist_threshold=10.0, angle_threshold=np.radians(5.0))
        cfg = make_noma(mode="OneBitDistance", thresholds=th)
        with pytest.raises(DegenerateConditionError):
            estimate("sum_rate", 2_000, cfg, model_dev25, led_fov50, total_users=20, seed=0)

    def test_unknown_metric_and_family(self, model_dev25, led_fov50):
        with pytest.raises(InvalidParameterError):
            estimate("median", 1_000, make_noma(), model_dev25, led_fov50, total_users=20)
        with pytest.raises(InvalidParameterError):
            estimate(
                "conditional_cdf_samples", 1_000, make_noma(), model_dev25, led_fov50,
                total_users=20, family="not_a_family",
            )

    def test_trial_count_validated(self, model_dev25, led_fov50):
        with pytest.raises(InvalidParameterError):
            estimate("sum_rate", 0, make_noma(), model_dev25, led_fov50, total_users=20)


class TestDeterminism:
    def test_worker_count_has_no_effect(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=210.0)
        kw = dict(total_users=20, seed=13)
        one = estimate("sum_rate", 150_000, cfg, model_dev25, led_fov50, workers=1, **kw)
        four = estimate("sum_rate", 150_000, cfg, model_dev25, led_fov50, workers=4, **kw)
        assert one.value == four.value
        assert one.stderr == four.stderr
        assert one.sched_prob == four.sched_prob

    def test_same_seed_same_gains(self, model_dev30, led_fov60, thresholds_validation):
        cfg = make_noma(mode="TwoBitMean", thresholds=thresholds_validation)
        a = collect_scheduled_gains(
            100_000, cfg, model_dev30, led_fov60, total_users=20, seed=17, workers=2
        )
        b = collect_scheduled_gains(
            100_000, cfg, model_dev30, led_fov60, total_users=20, seed=17, workers=5
        )
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("mode", FEEDBACK_MODES)
    def test_block_size_does_not_change_gains(
        self, mode, noisy, model_dev25, led_fov50, monkeypatch
    ):
        total_users = 20
        cfg = make_noma(mode=mode, thresholds=FeedbackThresholds(1.0, np.radians(5.0)))
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=noisy)
        # A smaller chunk keeps one-row blocks affordable; the default block
        # size still splits it (3,276 + 820 rows).  The second chunk is partial.
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 4096)
        trials = simulate.CHUNK_TRIALS + 17

        def collect():
            return collect_scheduled_gains(
                trials, cfg, model_dev25, led_fov50,
                total_users=total_users, noise=noise, seed=23, workers=1,
            )

        want = collect()
        assert want[0].size > 0
        # uneven blocks, one row per block, and the whole chunk in one block
        for entries in (137, total_users - 1, simulate.CHUNK_TRIALS * total_users):
            monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", entries)
            got = collect()
            for g, w in zip(got[:2], want[:2]):
                assert g.tobytes() == w.tobytes(), entries

    def test_different_seeds_differ(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=205.0)
        a = estimate("sum_rate", 50_000, cfg, model_dev25, led_fov50, total_users=20, seed=1)
        b = estimate("sum_rate", 50_000, cfg, model_dev25, led_fov50, total_users=20, seed=2)
        assert a.value != b.value


class TestConditionalSamples:
    def test_ordered_rank_gain_matches_analytic(self, model_dev30, led_fov60):
        res = estimate(
            "conditional_cdf_samples", 150_000, make_noma(), model_dev30, led_fov60,
            total_users=20, seed=19, family="ordered", rank=10,
        )
        # the grid bound dominates the exact distance at a fraction of its integrals
        d = ks_distance_bound(
            res.value,
            lambda x: cdf_gain_ranked(x, 10, model_dev30, led_fov60, total_users=20, k_min=10),
            grid_size=2048,
        )
        assert d < 0.012

    def test_unordered_samples_are_nonzero_gains(self, model_dev30, led_fov60):
        res = estimate(
            "conditional_cdf_samples", 20_000, make_noma(), model_dev30, led_fov60,
            total_users=20, seed=21, family="unordered",
        )
        assert np.all(res.value > 0.0)

    def test_mean_weak_family_keeps_atom(self, model_dev30, led_fov60, thresholds_validation):
        cfg = make_noma(mode="TwoBitMean", thresholds=thresholds_validation)
        res = estimate(
            "conditional_cdf_samples", 50_000, cfg, model_dev30, led_fov60,
            total_users=20, seed=23, family="twobit_mean_weak",
        )
        zero_frac = np.mean(res.value == 0.0)
        assert zero_frac == pytest.approx(0.1457, abs=0.01)

    def test_inst_weak_family_matches_membership(self, model_dev30, led_fov60, thresholds_validation):
        cfg = make_noma(thresholds=thresholds_validation)
        res = estimate(
            "conditional_cdf_samples", 50_000, cfg, model_dev30, led_fov60,
            total_users=20, seed=25, family="twobit_inst_weak",
        )
        assert np.all(res.value > 0.0)
        # conditioning probability equals the single-user weak-set measure,
        # mixing the incidence-angle band over the distance range past d_th
        def band_prob(r):
            return prob_incidence_within(
                r, led_fov60.theta_fov, model_dev30, led_fov60
            ) - prob_incidence_within(
                r, thresholds_validation.angle_threshold, model_dev30, led_fov60
            )

        span = model_dev30.d_max - model_dev30.d_min
        expected = integrate_1d(
            band_prob, thresholds_validation.dist_threshold, model_dev30.d_max,
            QuadratureSpec(),
        ) / span
        assert res.sched_prob == pytest.approx(expected, abs=0.01)

    def test_rank_validated(self, model_dev30, led_fov60):
        with pytest.raises(InvalidParameterError):
            estimate(
                "conditional_cdf_samples", 5_000, make_noma(), model_dev30, led_fov60,
                total_users=20, family="ordered", rank=11,
            )


class TestNonzeroCountHistogram:
    def test_histogram_matches_binomial(self, model_dev30, led_fov60):
        trials = 400_000
        counts = nonzero_count_histogram(trials, 20, model_dev30, led_fov60, seed=29)
        assert counts.sum() == trials
        p = nonzero_gain_probability(model_dev30, led_fov60)
        pmf = stats.binom.pmf(np.arange(21), 20, p)
        tv = 0.5 * np.abs(counts / trials - pmf).sum()
        assert tv < 0.01

    def test_worker_independence(self, model_dev30, led_fov60):
        a = nonzero_count_histogram(100_000, 20, model_dev30, led_fov60, seed=31, workers=1)
        b = nonzero_count_histogram(100_000, 20, model_dev30, led_fov60, seed=31, workers=6)
        np.testing.assert_array_equal(a, b)


class TestNoisyScheduling:
    def test_noise_leaves_true_gains_clean(self, model_dev25, led_fov50):
        # noisy ranking may swap picks, but every reported gain must still be
        # a true gain realizable by some user
        cfg = make_noma(snr_db=250.0)
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        clean = estimate(
            "sum_rate", 150_000, cfg, model_dev25, led_fov50, total_users=20, seed=37
        )
        noisy = estimate(
            "sum_rate", 150_000, cfg, model_dev25, led_fov50, total_users=20, seed=37,
            noise=noise,
        )
        assert noisy.sched_prob == clean.sched_prob  # scheduling uses true gains
        assert noisy.value != clean.value  # ranking uses the noisy gains
        assert abs(noisy.value - clean.value) < 0.5

    def test_rate_stats_empty_rejected(self):
        with pytest.raises(DegenerateConditionError):
            rate_stats(np.array([]), np.array([]), 100, make_noma())
