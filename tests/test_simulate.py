"""Monte Carlo engine: trial semantics, conditioning, noise, and determinism."""

import ast
import inspect
import math
import threading
import warnings

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
    band_mixture,
    collect_scheduled_gains,
    dc_gain,
    estimate,
    incidence_angle,
    ks_distance_bound,
    nonzero_count_histogram,
    nonzero_gain_probability,
    oma_gain_thresholds,
    outage_gain_thresholds,
    outage_pair_analytic,
    rate_stats,
    sample_users,
    sum_rate_noma,
)
from vlcnoma.quadrature import integrate_1d
from vlcnoma import gain_cdf, geometry, simulate
from vlcnoma.geometry import lit_gain
from vlcnoma.rates import FEEDBACK_MODES
from vlcnoma.simulate import _group_masks, _noise, _observe, _row_count, _uniform_pick
from vlcnoma.gain_cdf import CDF_FAMILIES, cdf_gain_ranked
from vlcnoma.cli import main
from tests.conftest import collect_gain_pairs, make_noma, noma_outage


def levels(*cfgs):
    """A threshold set: the NOMA outage levels of each config."""
    return [outage_gain_thresholds(cfg) for cfg in cfgs]


def test_one_chunk_driver():
    """Only ``_map_chunks`` seeds a chunk's generator, draws its users and makes its buffers."""
    tree = ast.parse(inspect.getsource(simulate))
    callers = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("_chunk_rng", "sample_users", "_block_buffers")
    }
    assert callers == {"_map_chunks"}


def test_chunks_run_on_pool_threads_in_the_callers_context(model_dev25):
    # Off the main thread even at one worker, whose heap can pin freed chunk
    # arrays, and under the caller's numpy error state at any worker count.
    def seen_here():
        return threading.current_thread() is threading.main_thread(), np.geterr()["over"]

    def start(rng, n):
        at_start = seen_here()
        return lambda rows, true, buffer: (at_start, seen_here())

    for workers in (1, 2):
        with np.errstate(over="raise"):
            seen = simulate._map_chunks(start, 2 * simulate.CHUNK_TRIALS, model_dev25, 0, workers)
        # one single-user block per chunk
        assert seen == [((False, "raise"), (False, "raise"))] * 2


@pytest.mark.parametrize("total_users", [0, -3])
def test_chunk_driver_rejects_fewer_than_one_user(model_dev25, led_fov50, total_users):
    with pytest.raises(InvalidParameterError, match="at least one user"):
        nonzero_count_histogram(1000, total_users, model_dev25, led_fov50, workers=1)


class TestUserBlocks:
    """A chunk's row blocks are its whole-chunk draw, read at PCG64 stream offsets."""

    # ``per_trial`` is the shape of a trial's users in the whole-chunk draw:
    # one user is drawn as (n,), the same stream as the driver's (n, 1).
    @pytest.mark.parametrize("entries", [1_000, None])
    @pytest.mark.parametrize("per_trial", [(), (7,), (1_000,)])
    def test_blocks_equal_the_whole_chunk_draw(self, per_trial, entries, monkeypatch):
        # Deviation 0: the instantaneous angle is a zero-width uniform draw.
        model = MobilityModel(0.0, 10.0, np.radians(25.0), np.radians(155.0), 0.0)
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 4096)
        if entries is not None:
            monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", entries)
        seed, started, users = 41, [], math.prod(per_trial)

        def start(rng, n):
            chunk = {"n": n, "after": rng.standard_normal(3), "rows": [], "true": [], "buffers": []}
            started.append(chunk)

            def step(rows, true, buffer):
                # A block is valid only until the next is drawn, so each is copied as it is read.
                chunk["rows"].append(rows)
                chunk["true"].append([v.copy() for v in true])
                chunk["buffers"].append(buffer)
                return chunk

            return step

        # a full chunk, then a partial one
        steps = simulate._map_chunks(start, simulate.CHUNK_TRIALS + 999, model, seed, 2, users)
        # Results come in chunk and block order: each chunk's blocks in a run.
        chunks = [s for i, s in enumerate(steps) if i == 0 or s is not steps[i - 1]]
        assert len(started) == len(chunks) == 2  # start runs once per chunk
        assert len(steps) == sum(len(c["rows"]) for c in chunks)
        assert [c["n"] for c in chunks] == [simulate.CHUNK_TRIALS, 999]
        for c, chunk in enumerate(chunks):
            n, rows = chunk["n"], chunk["rows"]
            assert rows[0].start == 0 and rows[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
            # every block of a chunk gets the chunk's one buffer
            assert all(b is chunk["buffers"][0] for b in chunk["buffers"])
            rng = simulate._chunk_rng(seed, c)
            want = sample_users(model, rng, (n, *per_trial))
            for g, w in zip(zip(*chunk["true"]), want):
                assert np.concatenate(g).tobytes() == w.tobytes()
            # the chunk's generator goes on where the whole-chunk draw left it
            assert chunk["after"].tobytes() == rng.standard_normal(3).tobytes()
        if entries is None and not per_trial:
            assert len(chunks[0]["rows"]) == 1  # a single-user chunk is one block

    @pytest.mark.parametrize("per_trial", [(), (7,)])
    def test_blocks_of_a_chunk_share_its_buffers(self, per_trial, monkeypatch):
        model = MobilityModel(0.0, 10.0, np.radians(25.0), np.radians(155.0), 0.1)
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 4096)
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 1_000)

        def start(_, n):
            first = []

            def step(rows, true, buffer):
                if not first:
                    first.extend(true)
                return rows.start, all(np.shares_memory(a, b) for a, b in zip(first, true))

            return step

        users = math.prod(per_trial)
        blocks = simulate._map_chunks(start, 2 * simulate.CHUNK_TRIALS, model, 0, 2, users)
        starts = [lo for lo, _ in blocks]
        # two equal chunks, each of more than two blocks
        assert [i for i, lo in enumerate(starts) if lo == 0] == [0, len(starts) // 2]
        assert len(starts) > 4
        assert all(shared for _, shared in blocks)

    def test_single_user_samplers_read_each_block_before_the_next(
        self, model_dev25, led_fov50, monkeypatch
    ):
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 4096)
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 1_000)
        trials, seed = simulate.CHUNK_TRIALS + 999, 5
        d, _, inst = (
            np.concatenate(v)
            for v in zip(
                *(
                    sample_users(model_dev25, simulate._chunk_rng(seed, c), (n,))
                    for c, n in enumerate(simulate._chunk_sizes(trials))
                )
            )
        )
        got = simulate.sample_vertical_angles(trials, model_dev25, seed=seed, workers=2)
        assert got.tobytes() == inst.tobytes()
        gain_sq = np.square(dc_gain(d, inst, led_fov50))
        got = estimate("unordered", trials, model_dev25, led_fov50, seed=seed, workers=2)
        assert got.tobytes() == gain_sq[gain_sq > 0.0].tobytes()


def observe(d, mean, inst, noise, rng, reads=(True, True, True)):
    """The engine's two noise steps on whole arrays of users: one block of every row."""
    drawn = _noise(noise, rng, d.shape, reads)
    return _observe((d, mean, inst), drawn, slice(None), simulate._block_buffers())


class TestApplyNoise:
    """Observation noise of ``_noise`` and ``_observe``, the one noise path of the engine."""

    def test_disabled_is_identity(self):
        d, mean, inst = np.array([3.0]), np.array([1.2]), np.array([1.4])
        rng = np.random.default_rng(0)
        for noise in (None, NoiseConfig(0.05, 2.5, enabled=False)):
            out = observe(d, mean, inst, noise, rng)
            assert out[0] is d and out[1] is mean and out[2] is inst
        # nothing was drawn from the stream
        assert rng.random() == np.random.default_rng(0).random()

    def test_zero_sigma_is_identity(self):
        d, mean, inst = np.array([3.0]), np.array([1.2]), np.array([1.4])
        out = observe(d, mean, inst, NoiseConfig(0.0, 0.0, enabled=True), np.random.default_rng(0))
        np.testing.assert_array_equal(out[0], d)
        np.testing.assert_array_equal(out[1], mean)
        np.testing.assert_array_equal(out[2], inst)

    def test_sample_std_matches_sigma(self):
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        angle = np.full(200_000, 1.3)
        d_obs, _, _ = observe(np.full(200_000, 5.0), angle, angle, noise, np.random.default_rng(1))
        assert np.std(d_obs - 5.0) == pytest.approx(0.05, rel=0.01)

    def test_angle_sigma_in_degrees(self):
        noise = NoiseConfig(sigma_d=0.0, sigma_phi=2.5, enabled=True)
        angle = np.full(100_000, 1.3)
        _, _, inst_obs = observe(
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
        got = observe(d, mean, inst, noise, np.random.default_rng(4))
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
        full = observe(*true, noise, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        part = observe(*true, noise, rng, (True,) * draws)
        for k in range(draws):
            assert part[k].tobytes() == full[k].tobytes()
        assert all(part[k] is true[k] for k in range(draws, 3))
        # only the leading draws left the stream
        after = np.random.default_rng(5)
        after.standard_normal(50 * draws)
        assert rng.random() == after.random()

    @pytest.mark.parametrize("reads", [(True, False, True), (True, True, False), (True, False)])
    def test_unread_draws_only_move_the_stream(self, reads, monkeypatch):
        # A scratch array smaller than a noise array: the unread one is drawn in pieces.
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 7)
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        true = tuple(np.full((5, 10), v) for v in (5.0, 1.2, 1.4))
        full = observe(*true, noise, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        part = observe(*true, noise, rng, reads)
        for k, read in enumerate(reads):
            if read:
                assert part[k].tobytes() == full[k].tobytes()
            else:
                assert part[k] is true[k]
        # every flagged variable left the stream, read or not
        after = np.random.default_rng(6)
        after.standard_normal(50 * len(reads))
        assert rng.random() == after.random()


class TestIndividualTrial:
    def test_outcome_structure(self, model_dev25, led_fov50):
        trials = 2_000
        [(gain_w, gain_s)] = collect_gain_pairs(
            trials, [(make_noma(), None)], model_dev25, led_fov50, total_users=20, seed=3
        )
        assert 0 < gain_w.size == gain_s.size < trials
        assert np.all(gain_s >= gain_w) and np.all(gain_w >= 0.0)

    def test_two_users_huge_snr_no_outage(self):
        # wide-open field of view, feasible split, enormous SNR: whenever both
        # gains are nonzero neither user is in outage
        led = LedGeometry(2.0, np.radians(60), 1e-4, np.radians(90))
        model = MobilityModel(0.0, 10.0, np.radians(25), np.radians(155), np.radians(25))
        cfg = make_noma(snr_db=320.0, weak_rank=1, strong_rank=2)
        [(gain_w, gain_s)] = collect_gain_pairs(
            300, [(cfg, None)], model, led, total_users=2, seed=4
        )
        threshold_weak, threshold_strong = outage_gain_thresholds(cfg)
        lit = gain_w > 0.0
        assert np.all(gain_w[lit] > threshold_weak)
        assert np.all(gain_s[lit] > threshold_strong)
        assert lit.sum() > 50

    def test_mean_angle_equals_full_csi_at_zero_deviation(self, led_fov50):
        model = MobilityModel(0.0, 10.0, np.radians(25), np.radians(155), 0.0)
        [a] = collect_gain_pairs(
            5_000, [(make_noma(mode="FullCSI"), None)], model, led_fov50, total_users=20, seed=6
        )
        [b] = collect_gain_pairs(
            5_000, [(make_noma(mode="MeanAngle"), None)], model, led_fov50, total_users=20, seed=6
        )
        assert a[0].size > 0
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_population_must_cover_rank(self, model_dev25, led_fov50):
        with pytest.raises(InvalidParameterError):
            collect_scheduled_gains(
                1_000, [(make_noma(), None, [levels(make_noma())])], model_dev25, led_fov50,
                total_users=5, seed=0,
            )


class TestGroupTrial:
    def test_outcome_structure(self, model_dev30, led_fov60, thresholds_validation):
        cfg = make_noma(mode="TwoBitInstantaneous", thresholds=thresholds_validation)
        trials = 2_000
        [(gain_w, gain_s)] = collect_gain_pairs(
            trials, [(cfg, None)], model_dev30, led_fov60, total_users=20, seed=5
        )
        assert 0 < gain_w.size == gain_s.size <= trials
        assert np.all(gain_w >= 0.0) and np.all(gain_s >= 0.0)

    def test_strong_pick_always_in_fov_for_inst_mode(self, model_dev30, led_fov60):
        # instantaneous-angle membership guarantees nonzero true gain when
        # the angle threshold sits inside the field of view
        th = FeedbackThresholds(1.0, np.radians(6.0))
        cfg = make_noma(mode="TwoBitInstantaneous", thresholds=th)
        [(_, gain_s)] = collect_gain_pairs(
            400, [(cfg, None)], model_dev30, led_fov60, total_users=20, seed=6
        )
        assert np.all(gain_s > 0.0)
        assert gain_s.size > 20

    def test_mean_mode_strong_pick_can_be_zero(self, model_dev30, led_fov60):
        # mean-angle membership tolerates instantaneous angles outside the
        # FOV, so zero-gain picks must appear and count as outage
        th = FeedbackThresholds(dist_threshold=9.5, angle_threshold=np.radians(55.0))
        cfg = make_noma(mode="TwoBitMean", thresholds=th)
        [(gain_w, gain_s)] = collect_gain_pairs(
            600, [(cfg, None)], model_dev30, led_fov60, total_users=20, seed=7
        )
        zero = gain_s == 0.0
        assert zero.sum() > 0
        # the strong user earns nothing on those trials: only the weak rate is left
        threshold_weak, _ = outage_gain_thresholds(cfg)
        [(served, _)] = score(gain_w[zero], gain_s[zero], [cfg])
        assert served == pytest.approx(
            cfg.rate_weak * np.mean(gain_w[zero] > threshold_weak)
        )

    def test_one_bit_distance_membership(self, model_dev25, led_fov50):
        th = FeedbackThresholds(dist_threshold=5.0, angle_threshold=np.radians(5.0))
        cfg = make_noma(mode="OneBitDistance", thresholds=th)
        rng = np.random.default_rng(8)
        d, mean, inst = sample_users(model_dev25, rng, (200, 20))
        reads = FEEDBACK_MODES[cfg.feedback_mode].reads
        weak_mask, strong_mask = _group_masks(
            reads, th, led_fov50, d, (d, mean, inst)[reads], simulate._block_buffers()
        )
        u = rng.random((200, 2))
        weak_count, strong_count = _row_count(weak_mask), _row_count(strong_mask)
        weak_idx = _uniform_pick(weak_mask, weak_count, u[:, 0])
        strong_idx = _uniform_pick(strong_mask, strong_count, u[:, 1])
        scheduled = (weak_count > 0) & (strong_count > 0)
        rows = np.arange(200)
        assert scheduled.sum() > 150
        assert np.all(d[rows, weak_idx][scheduled] > th.dist_threshold)
        assert np.all(d[rows, strong_idx][scheduled] <= th.dist_threshold)

    def test_weak_set_empty_when_threshold_at_dmax(self, model_dev25, led_fov50):
        th = FeedbackThresholds(dist_threshold=10.0, angle_threshold=np.radians(5.0))
        cfg = make_noma(mode="OneBitDistance", thresholds=th)
        [(scheduled, _)] = collect_scheduled_gains(
            200, [(cfg, None, [levels(cfg)])], model_dev25, led_fov50, total_users=20, seed=9
        )
        assert scheduled == 0


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
            count = _row_count(mask)
            idx, ok = _uniform_pick(mask, count, u), count > 0
            want_idx, want_ok = _uniform_pick_reference(mask, u)
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(ok, want_ok)
            assert np.all(mask[ok, idx[ok]])

    # Each side of the einsum / add.reduce switch, and the uint16 bound.
    @pytest.mark.parametrize("width", [1, 5, 20, 127, 128, 255, 256, 1000, 1 << 16])
    def test_row_count_is_count_nonzero(self, width):
        rng = np.random.default_rng(width)
        mask = rng.random((7, width)) < 0.4
        mask[0], mask[1] = False, True  # an empty row and a full one
        count = _row_count(mask)
        assert count.tolist() == np.count_nonzero(mask, axis=1).tolist()
        assert count[0] == 0 and count[1] == width


def rate_oracle(gain_w, gain_s, cfg, thresholds=None):
    """One point scored on its trials' rate array: ``ndarray.mean`` and ``var(ddof=1)``."""
    t_weak, t_strong = thresholds or outage_gain_thresholds(cfg)
    rate = cfg.rate_weak * (gain_w > t_weak) + cfg.rate_strong * (gain_s > t_strong)
    n = rate.size
    stderr = float(np.sqrt(rate.var(ddof=1) / n)) if n > 1 else 0.0
    return float(rate.mean()), stderr


def comparisons(gain_w, gain_s, thresholds):
    """Per point ``[n_w, n_s, n_ws]`` of a threshold set, each point's own comparisons."""
    counts = []
    for t_weak, t_strong in thresholds:
        w, s = gain_w > t_weak, gain_s > t_strong
        counts.append([int(np.count_nonzero(c)) for c in (w, s, w & s)])
    return counts


def score(gain_w, gain_s, cfgs, thresholds=None):
    """``rate_stats`` of gain pairs held whole, on their per-point comparisons."""
    counts = comparisons(gain_w, gain_s, thresholds or levels(*cfgs))
    return rate_stats(gain_w.size, counts, cfgs)


class TestRateStatsByCounts:
    """Counts score a sequence of points in one pass as each point's own rate array does."""

    # Gains per block in these checks: the engine's rule runs on uneven slices.
    SLICE = 1 << 12

    @classmethod
    def check(cls, gain_w, gain_s, cfgs, thresholds=None):
        thresholds = thresholds or levels(*cfgs)
        want_counts = comparisons(gain_w, gain_s, thresholds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # The block rule on each slice, summed, gives each point's own comparisons.
            set_levels = simulate._levels(np.array(thresholds))
            picks = np.stack([gain_w, gain_s], axis=1)
            blocks = sum(
                simulate._clear_counts(picks[lo : lo + cls.SLICE], set_levels)
                for lo in range(0, len(picks), cls.SLICE)
            )
            assert simulate._point_counts(blocks, set_levels) == want_counts
            got = rate_stats(gain_w.size, want_counts, cfgs)
        assert len(got) == len(cfgs)
        for (mean, stderr), cfg, t in zip(got, cfgs, thresholds):
            want_mean, want_stderr = rate_oracle(gain_w, gain_s, cfg, t)
            # Whole rates sum exactly either way, others to an ulp; the standard
            # error may move a few ulps.
            whole = float(cfg.rate_weak).is_integer() and float(cfg.rate_strong).is_integer()
            assert mean == pytest.approx(want_mean, rel=0.0 if whole else 1e-15, abs=0.0)
            assert stderr == pytest.approx(want_stderr, rel=1e-14, abs=0.0)

    @staticmethod
    def gains(n, seed=0):
        rng = np.random.default_rng(seed)
        return 10.0 ** rng.uniform(-22, -16, n), 10.0 ** rng.uniform(-22, -16, n)

    def test_snr_grid_across_slices(self):
        """Co-monotone thresholds over more gains than one slice: the staircase counts."""
        gain_w, gain_s = self.gains(5 * self.SLICE + 123)
        self.check(gain_w, gain_s, [make_noma(snr_db=s) for s in np.arange(140.0, 251.0, 5.0)])

    def test_gains_exactly_at_a_threshold_do_not_clear(self):
        cfgs = [make_noma(snr_db=s) for s in (150.0, 200.0, 200.0, 220.0)]
        pairs = np.array(levels(*cfgs))
        gain_w, gain_s = self.gains(5000, seed=1)
        gain_w[::3], gain_s[1::3] = np.resize(pairs[:, 0], 1667), np.resize(pairs[:, 1], 1667)
        self.check(gain_w, gain_s, cfgs)
        self.check(gain_w, gain_s, cfgs[1:2])

    def test_unsorted_and_crossing_thresholds(self):
        """Points whose two thresholds order them differently count one by one."""
        gain_w, gain_s = self.gains(3 * self.SLICE + 7, seed=2)
        thresholds = [(1e-18, 1e-20), (1e-20, 1e-17), (1e-19, 1e-19), (1e-17, 1e-21)]
        t_w, t_s = np.transpose(thresholds)
        gain_w[::5] = np.resize(t_w, gain_w[::5].size)
        gain_s[::7] = np.resize(t_s, gain_s[::7].size)
        cfgs = [make_noma(rate_weak=r, rate_strong=9.0 - r) for r in (1.0, 2.0, 3.0, 4.0)]
        self.check(gain_w, gain_s, cfgs, thresholds)
        cfgs = [make_noma(rate_weak=r, rate_strong=7.123456789 - r) for r in (1e-3, 0.3, 1.7, 2.5)]
        self.check(gain_w, gain_s, cfgs, thresholds)

    def test_constant_paper_literal_oma_thresholds(self):
        cfgs = [make_noma(snr_db=s) for s in (140.0, 190.0, 250.0)]
        thresholds = [oma_gain_thresholds(c, "paper_literal") for c in cfgs]
        assert len(set(thresholds)) == 1
        # levels near the gains' own scale, so that both sides clear on some trials
        gain_w, gain_s = (g * thresholds[0][k] * 1e19 for k, g in enumerate(self.gains(3000, 3)))
        self.check(gain_w, gain_s, cfgs, thresholds)

    def test_infeasible_split_is_certain_outage_without_warnings(self):
        """An infeasible split's infinite thresholds, among finite ones, clear no trial."""
        infeasible = make_noma(beta_weak=0.6, beta_strong=0.55)
        assert outage_gain_thresholds(infeasible) == (np.inf, np.inf)
        cfgs = [make_noma(snr_db=160.0), infeasible, infeasible, make_noma(snr_db=240.0)]
        gain_w, gain_s = self.gains(4000, seed=4)
        self.check(gain_w, gain_s, cfgs)
        assert score(gain_w, gain_s, [infeasible]) == [(0.0, 0.0)]

    def test_one_scheduled_trial_has_no_spread(self):
        gain_w, gain_s = self.gains(1, seed=5)
        self.check(gain_w, gain_s, [make_noma(snr_db=s) for s in (140.0, 250.0)])
        assert score(gain_w, gain_s, [make_noma()])[0][1] == 0.0

    def test_empty_collection_is_degenerate(self):
        for cfgs in ([make_noma()], [make_noma(), make_noma(snr_db=150.0)]):
            with pytest.raises(DegenerateConditionError, match="no scheduled trials"):
                rate_stats(0, [[0, 0, 0]] * len(cfgs), cfgs)

    @pytest.mark.parametrize(
        "sets",
        [
            [[]],  # an empty set
            [[(1e-19, 1e-19, 1e-19)]],  # not pairs
            [[1e-19, 1e-19]],  # a flat pair, not a set of pairs
            [[(1e-19,), (1e-19, 1e-19)]],  # ragged
            [[("weak", "strong")]],  # not numbers
            [[(1e-19, 1e-19), (np.nan, 1e-19)]],  # a NaN level
            [],  # no set at all
        ],
        ids=["empty", "triples", "flat", "ragged", "text", "nan", "no_set"],
    )
    def test_bad_threshold_sets_fail_at_the_call(self, sets, model_dev25, led_fov50, monkeypatch):
        """Both twins refuse a bad set by one check, before any chunk runs or family is called."""

        def never(*args, **kwargs):
            raise AssertionError("a chunk ran or a family was called")

        monkeypatch.setattr(simulate, "_map_chunks", never)
        for family in CDF_FAMILIES:
            monkeypatch.setitem(CDF_FAMILIES, family, never)
        cfg = make_noma()
        with pytest.raises(InvalidParameterError, match="threshold set"):
            collect_scheduled_gains(
                1_000, [(cfg, None, [levels(cfg)]), (cfg, None, sets)], model_dev25, led_fov50,
                total_users=20,
            )
        # A good set ahead of a bad one does not let the bad one through.
        for analytic_sets in (sets, [levels(cfg), *sets]) if sets else [sets]:
            with pytest.raises(InvalidParameterError, match="threshold set"):
                outage_pair_analytic(cfg, analytic_sets, model_dev25, led_fov50, total_users=20)


class TestInfiniteLevels:
    """A +inf level is certain outage on its side in both twins, whatever its neighbours."""

    @pytest.mark.parametrize(
        "mode", sorted(name for name, mode in FEEDBACK_MODES.items() if mode.families)
    )
    def test_infinite_side_is_certain_outage(
        self, mode, model_dev30, led_fov60, thresholds_validation, monkeypatch
    ):
        cfgs = [
            make_noma(snr_db=db, mode=mode, thresholds=thresholds_validation) for db in (200.0, 250.0)
        ]
        finite = levels(*cfgs)
        # An infeasible split's point, and one whose strong target no gain meets.
        points = [finite[0], (np.inf, np.inf), (finite[0][0], np.inf), finite[1]]
        # The same points and a crossing one, which is no staircase.
        sets = [points, [*points, (finite[0][0], finite[1][1] / 10.0)]]
        assert [simulate._levels(np.array(pairs))[3] for pairs in sets] == [True, False]
        shared = dict(total_users=20)

        seen = []
        for name in set(FEEDBACK_MODES[mode].families):

            def spy(x, *args, _family=CDF_FAMILIES[name], **kwargs):
                seen.append(np.array(x))
                return _family(x, *args, **kwargs)

            monkeypatch.setitem(CDF_FAMILIES, name, spy)
        got, crossing = outage_pair_analytic(cfgs[0], sets, model_dev30, led_fov60, **shared)
        assert seen and all(np.all(np.isfinite(x)) for x in seen)
        alone = [
            outage_pair_analytic(cfgs[0], [[pair]], model_dev30, led_fov60, **shared)[0][0]
            for pair in finite
        ]
        # Exactly 1.0 on each infinite side, and a finite side's bits as its point alone.
        assert got == [alone[0], (1.0, 1.0), (alone[0][0], 1.0), alone[1]] == crossing[:4]

        [(scheduled, counts)] = collect_scheduled_gains(
            20_000, [(cfgs[0], None, sets)], model_dev30, led_fov60, seed=2, **shared
        )
        [(_, [want])] = collect_scheduled_gains(
            20_000, [(cfgs[0], None, [finite])], model_dev30, led_fov60, seed=2, **shared
        )
        # No trial clears an infinite side; a finite side clears as its point alone does.
        assert scheduled > 0 and want[0][0] > 0
        assert counts[0] == [want[0], [0, 0, 0], [want[0][0], 0, 0], want[1]] == counts[1][:4]


def sum_rate(trials, cfg, model, led, *, total_users=20, noise=None, **kw):
    """Monte Carlo (sum rate, stderr, scheduling probability), as the sweeps compute them."""
    [(scheduled, [counts])] = collect_scheduled_gains(
        trials, [(cfg, noise, [levels(cfg)])], model, led, total_users=total_users, **kw
    )
    [(mean, stderr)] = rate_stats(scheduled, counts, [cfg])
    return mean, stderr, scheduled / trials


class TestEstimate:
    def test_sum_rate_matches_analytic(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=200.0)
        mean, _, _ = sum_rate(200_000, cfg, model_dev25, led_fov50, seed=7)
        p = noma_outage(cfg, model_dev25, led_fov50, total_users=20)
        assert mean == pytest.approx(sum_rate_noma(*p, cfg), abs=0.05)

    def test_scheduling_probability_matches_binomial_tail(self, model_dev25, led_fov50):
        trials = 300_000
        _, _, sched_prob = sum_rate(trials, make_noma(), model_dev25, led_fov50, seed=11)
        p = nonzero_gain_probability(model_dev25, led_fov50)
        tail = float(stats.binom.sf(9, 20, p))
        se = np.sqrt(tail * (1 - tail) / trials)
        assert abs(sched_prob - tail) < 3 * se

    def test_outage_pair_metric(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=200.0)
        # Both twins take the same threshold set.
        sets = [levels(cfg)]
        [(n, [[(n_w, n_s, _)]])] = collect_scheduled_gains(
            100_000, [(cfg, None, sets)], model_dev25, led_fov50, total_users=20, seed=3
        )
        [[(p_weak, p_strong)]] = outage_pair_analytic(
            cfg, sets, model_dev25, led_fov50, total_users=20
        )
        # A pick in outage stays at or below its threshold: it does not clear it.
        assert (n - n_w) / n == pytest.approx(p_weak, abs=0.01)
        assert (n - n_s) / n == pytest.approx(p_strong, abs=0.01)

    def test_all_outage_configuration(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=60.0)
        mean, stderr, _ = sum_rate(20_000, cfg, model_dev25, led_fov50, seed=5)
        assert mean == 0.0
        assert stderr == 0.0

    def test_zero_scheduled_trials_degenerate(self, model_dev25, led_fov50):
        th = FeedbackThresholds(dist_threshold=10.0, angle_threshold=np.radians(5.0))
        cfg = make_noma(mode="OneBitDistance", thresholds=th)
        with pytest.raises(DegenerateConditionError):
            sum_rate(2_000, cfg, model_dev25, led_fov50, seed=0)

    def test_unknown_family(self, model_dev25, led_fov50):
        with pytest.raises(InvalidParameterError):
            estimate("not_a_family", 1_000, model_dev25, led_fov50)

    def test_trial_count_validated(self, model_dev25, led_fov50):
        cfg = make_noma()
        for run in (
            lambda: collect_scheduled_gains(
                0, [(cfg, None, [levels(cfg)])], model_dev25, led_fov50, total_users=20
            ),
            lambda: estimate("unordered", 0, model_dev25, led_fov50),
            lambda: estimate("ordered", 0, model_dev25, led_fov50, total_users=20, k_min=10),
            lambda: nonzero_count_histogram(0, 20, model_dev25, led_fov50),
            lambda: simulate.sample_vertical_angles(0, model_dev25),
        ):
            with pytest.raises(InvalidParameterError, match="need at least one trial"):
                run()


class TestDeterminism:
    def test_worker_count_has_no_effect(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=210.0)
        kw = dict(total_users=20, seed=13)
        one = sum_rate(150_000, cfg, model_dev25, led_fov50, workers=1, **kw)
        four = sum_rate(150_000, cfg, model_dev25, led_fov50, workers=4, **kw)
        assert one == four

    def test_same_seed_same_gains(self, model_dev30, led_fov60, thresholds_validation):
        cfg = make_noma(mode="TwoBitMean", thresholds=thresholds_validation)
        [a] = collect_gain_pairs(
            100_000, [(cfg, None)], model_dev30, led_fov60, total_users=20, seed=17, workers=2
        )
        [b] = collect_gain_pairs(
            100_000, [(cfg, None)], model_dev30, led_fov60, total_users=20, seed=17, workers=5
        )
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("mode", tuple(FEEDBACK_MODES))
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
            [gains] = collect_gain_pairs(
                trials, [(cfg, noise)], model_dev25, led_fov50,
                total_users=total_users, seed=23, workers=1,
            )
            return gains

        want = collect()
        assert want[0].size > 0
        # uneven blocks, one row per block, and the whole chunk in one block
        for entries in (137, total_users - 1, simulate.CHUNK_TRIALS * total_users):
            monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", entries)
            got = collect()
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), entries

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("mode", tuple(FEEDBACK_MODES))
    def test_counts_do_not_depend_on_block_size_or_workers(
        self, mode, noisy, model_dev25, led_fov50, monkeypatch
    ):
        # Every block scores its picks, so the summed counts must not see the blocks.
        cfg = make_noma(mode=mode, thresholds=FeedbackThresholds(1.0, np.radians(5.0)))
        cfgs = [make_noma(snr_db=db) for db in np.arange(140.0, 251.0, 5.0)]
        sets = [levels(*cfgs), [oma_gain_thresholds(c) for c in cfgs]]
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=noisy)
        # Two full chunks and a partial one, each of two default blocks.
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 4096)
        trials = 2 * simulate.CHUNK_TRIALS + 17

        def collect(workers):
            return collect_scheduled_gains(
                trials, [(cfg, noise, sets)], model_dev25, led_fov50,
                total_users=20, seed=31, workers=workers,
            )

        want = collect(1)
        assert want[0][0] > 0
        assert collect(3) == want
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 1 << 9)
        assert collect(1) == want
        assert collect(3) == want

    def test_different_seeds_differ(self, model_dev25, led_fov50):
        cfg = make_noma(snr_db=205.0)
        a, _, _ = sum_rate(50_000, cfg, model_dev25, led_fov50, seed=1)
        b, _, _ = sum_rate(50_000, cfg, model_dev25, led_fov50, seed=2)
        assert a != b


class TestSharedDraw:
    """Runs of one call share a draw of the users, and each gets its own run's counts."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("total_users", [5, 20, 1000])
    def test_each_run_is_the_run_alone(self, total_users, workers, model_dev25, led_fov50,
                                       monkeypatch):
        # Two full chunks and a partial one, each of several row blocks.
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", max(16, 40_000 // total_users))
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", simulate.CHUNK_TRIALS * total_users // 3)
        trials = 2 * simulate.CHUNK_TRIALS + simulate.CHUNK_TRIALS // 3
        th = FeedbackThresholds.from_fractions(model_dev25, led_fov50, 0.1, 0.1)
        rank = min(10, total_users)
        noisy = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        cfgs = [make_noma(mode=m, thresholds=th, strong_rank=rank) for m in FEEDBACK_MODES]
        # The NOMA and OMA levels of an SNR grid, so that the counts see the gains' spread.
        grid = [make_noma(snr_db=db) for db in np.arange(140.0, 251.0, 5.0)]
        sets = [levels(*grid), [oma_gain_thresholds(c) for c in grid]]
        kw = dict(total_users=total_users, seed=29, workers=workers)

        def collect(runs):
            runs = [(cfg, n, sets) for cfg, n in runs]
            return collect_scheduled_gains(trials, runs, model_dev25, led_fov50, **kw)

        alone = {(cfg, n): collect([(cfg, n)])[0] for cfg in cfgs for n in (None, noisy)}
        for runs in (
            [(cfg, n) for cfg in cfgs for n in (None, noisy)],  # clean and noisy per mode
            [(cfg, noisy) for cfg in cfgs],  # the six noisy modes
        ):
            got = collect(runs)
            assert len(got) == len(runs)
            for run, counts in zip(runs, got):
                assert counts == alone[run], run
        assert all(scheduled > 0 for scheduled, _ in alone.values())
        # Clean and noisy runs of a mode that ranks on noisy reports count differently.
        assert alone[cfgs[0], None] != alone[cfgs[0], noisy]


class TestScoringInTheChunk:
    """The counts scored block by block are each point's comparisons on the gains held whole."""

    GRID = [make_noma(snr_db=db) for db in np.arange(140.0, 251.0, 5.0)]
    SETS = {
        # An SNR grid: co-monotone levels, a staircase.
        "staircase": [levels(*GRID)],
        # The same levels with the strong side reversed: every point counts its own.
        "crossing": [[(w, s) for (w, _), (_, s) in zip(levels(*GRID), levels(*GRID[::-1]))]],
        # The NOMA levels and the OMA ones, scored on the same picks.
        "noma_and_oma": [levels(*GRID), [oma_gain_thresholds(c) for c in GRID]],
    }

    @pytest.mark.parametrize("case", sorted(SETS))
    @pytest.mark.parametrize("mode", tuple(FEEDBACK_MODES))
    def test_counts_are_comparisons_on_the_oracle_gains(
        self, mode, case, model_dev25, led_fov50, monkeypatch
    ):
        sets = self.SETS[case]
        if case == "crossing":
            assert not simulate._levels(np.array(sets[0]))[3]
        else:
            assert all(simulate._levels(np.array(pairs))[3] for pairs in sets)
        # Two full chunks and a partial one, several blocks each.
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 4096)
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 1 << 14)
        trials = 2 * simulate.CHUNK_TRIALS + 999
        cfg = make_noma(mode=mode, thresholds=FeedbackThresholds(1.0, np.radians(5.0)))
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        kw = dict(total_users=20, seed=37, workers=2)
        [(gain_w, gain_s)] = collect_gain_pairs(
            trials, [(cfg, noise)], model_dev25, led_fov50, **kw
        )
        [(scheduled, counts)] = collect_scheduled_gains(
            trials, [(cfg, noise, sets)], model_dev25, led_fov50, **kw
        )
        assert scheduled == gain_w.size > 0
        assert counts == [comparisons(gain_w, gain_s, pairs) for pairs in sets]
        # Some points clear on some trials and not on others, so the counts pin the gains.
        assert any(0 < n_w < scheduled for n_w, _, _ in counts[0])


class TestNoiseMemory:
    """A noisy chunk holds the noise arrays its mode reads, and no other."""

    @pytest.mark.parametrize("mode", ["TwoBitMean", "OneBitDistance"])
    def test_peak_below_one_array_more_than_read(self, mode, model_dev25, led_fov50,
                                                  monkeypatch):
        import tracemalloc

        # One chunk whose noise arrays are large beside its row-block buffers.
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", 8192)
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 4096)
        total_users = 20
        array_bytes = simulate.CHUNK_TRIALS * total_users * 8
        cfg = make_noma(mode=mode, thresholds=FeedbackThresholds(1.0, np.radians(5.0)))
        reads = len({0, FEEDBACK_MODES[mode].reads})

        def peak(noise):
            tracemalloc.start()
            try:
                collect_scheduled_gains(
                    simulate.CHUNK_TRIALS, [(cfg, noise, [levels(cfg)])], model_dev25, led_fov50,
                    total_users=total_users, seed=2, workers=1,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=True)
        extra = peak(noise) - peak(None)
        assert reads * array_bytes <= extra < (reads + 1) * array_bytes


class TestGainEvaluations:
    """A row block's gain-kernel calls and incidence-angle evaluations, pinned per mode.

    The gain kernel is ``lit_gain``, which ``dc_gain`` calls too.  FullCSI and
    MeanAngle take the incidence angle of every user once, for the lit test and
    the true gains, then evaluate the true gain, plus their ranking metric unless
    it is that true gain, on the rows with at least strong_rank lit users only;
    the metric takes the observed incidence angle of those rows.  The other modes
    evaluate only the picked pair: ``DistanceOnly`` on every row, the threshold
    modes on their scheduled rows only, after their angle bit on every user.
    """

    # Per block: the shapes that reach the gain kernel, then the incidence angle.
    # "block" is every user of the block, "kept" its rows with strong_rank lit
    # users, "pair" the two picked users of each row, "scheduled" those of each
    # row with an observed user in both feedback sets.
    GROUP = (["scheduled"], ["block", "scheduled"])
    PER_BLOCK = {
        ("FullCSI", False): (["kept"], ["block"]),
        ("FullCSI", True): (["kept", "kept"], ["block", "kept"]),
        ("MeanAngle", False): (["kept", "kept"], ["block", "kept"]),
        ("MeanAngle", True): (["kept", "kept"], ["block", "kept"]),
        ("TwoBitInstantaneous", False): GROUP,
        ("TwoBitInstantaneous", True): GROUP,
        ("TwoBitMean", False): GROUP,
        ("TwoBitMean", True): GROUP,
        ("OneBitDistance", False): (["scheduled"], ["scheduled"]),
        ("OneBitDistance", True): (["scheduled"], ["scheduled"]),
        ("DistanceOnly", False): (["pair"], ["pair"]),
        ("DistanceOnly", True): (["pair"], ["pair"]),
    }

    def test_every_mode_is_pinned(self):
        assert {mode for mode, _ in self.PER_BLOCK} == set(FEEDBACK_MODES)

    @pytest.mark.parametrize("mode, noisy", sorted(PER_BLOCK))
    def test_calls_per_row_block(self, mode, noisy, model_dev25, led_fov50, monkeypatch):
        calls = {"gain": [], "angle": []}

        def counted(kind, fn):
            def wrapper(*args, **kwargs):
                calls[kind].append(np.shape(args[1]))
                return fn(*args, **kwargs)

            return wrapper

        # dc_gain reaches both through the geometry module, simulate through its own names
        for module in (geometry, simulate):
            monkeypatch.setattr(module, "lit_gain", counted("gain", lit_gain))
            monkeypatch.setattr(module, "incidence_angle", counted("angle", incidence_angle))
        cfg = make_noma(mode=mode, thresholds=FeedbackThresholds(1.0, np.radians(5.0)))
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=noisy)
        trials, total_users, seed = 5_000, 20, 3
        collect_scheduled_gains(
            trials, [(cfg, noise, [levels(cfg)])], model_dev25, led_fov50,
            total_users=total_users, seed=seed, workers=1,
        )
        monkeypatch.undo()  # the reference below goes uncounted
        step = simulate._BLOCK_ENTRIES // total_users
        blocks = [slice(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
        assert len(blocks) > 1
        # One chunk: its blocks hold the users of one whole-chunk draw.
        rng = simulate._chunk_rng(seed, 0)
        d, mean, inst = sample_users(model_dev25, rng, (trials, total_users))
        lit = np.abs(incidence_angle(d, inst, led_fov50.ell)) <= led_fov50.theta_fov
        schedulable = np.count_nonzero(lit, axis=1) >= cfg.strong_rank
        # about 30% of the rows at this geometry reach the gains of a gain ranking
        assert 0 < schedulable.sum() < trials / 2
        observed = observe(d, mean, inst, noise, rng)
        reads = FEEDBACK_MODES[mode].reads
        sets = _group_masks(
            reads, cfg.thresholds, led_fov50, observed[0], observed[reads],
            simulate._block_buffers(),
        )
        scheduled = np.all([np.count_nonzero(s, axis=1) > 0 for s in sets], axis=0)
        if FEEDBACK_MODES[mode].group:
            assert 0 < scheduled.sum() < trials

        def shape(blk, name):
            rows = blk.stop - blk.start
            return {
                "block": (rows, total_users),
                "kept": (int(np.count_nonzero(schedulable[blk])), total_users),
                "pair": (rows, 2),
                "scheduled": (int(np.count_nonzero(scheduled[blk])), 2),
            }[name]

        for kind, names in zip(("gain", "angle"), self.PER_BLOCK[mode, noisy]):
            assert calls[kind] == [shape(blk, name) for blk in blocks for name in names], kind
        if (mode, noisy) == ("FullCSI", False):
            # the incidence angle of every user, once
            assert sum(math.prod(s) for s in calls["angle"]) == trials * total_users


def _individual_reference(trials, cfg, model, led, *, total_users, noise, seed):
    """The scheduled gain pairs of one chunk, with gains and picks on every row."""
    rng = simulate._chunk_rng(seed, 0)
    d, mean, inst = sample_users(model, rng, (trials, total_users))
    d_obs, mean_obs, inst_obs = observe(d, mean, inst, noise, rng)
    gain_sq = np.square(dc_gain(d, inst, led))
    scheduled = np.count_nonzero(gain_sq > 0.0, axis=1) >= cfg.strong_rank
    angle_obs = inst_obs if cfg.feedback_mode == "FullCSI" else mean_obs
    metric = np.square(dc_gain(d_obs, angle_obs, led))
    order = np.argsort(metric, axis=1, kind="stable")
    apparent = np.count_nonzero(metric > 0.0, axis=1)
    picks = []
    for rank in (cfg.weak_rank, cfg.strong_rank):
        # rank among the apparent-nonzero users, or the strongest when too few
        pos = total_users - apparent + np.minimum(rank, np.maximum(apparent, 1)) - 1
        user = np.take_along_axis(order, np.clip(pos, 0, total_users - 1)[:, None], 1)
        gain = np.take_along_axis(gain_sq, user, 1)[:, 0]
        picks.append(np.where(apparent > 0, gain, 0.0)[scheduled])
    return picks


def _group_reference(trials, cfg, model, led, *, total_users, noise, seed):
    """The scheduled gain pairs of one chunk of a threshold mode, picks and gains on every row.

    The mode's uniforms are one whole-chunk draw here, the engine's block by block.
    """
    rng = simulate._chunk_rng(seed, 0)
    d, mean, inst = sample_users(model, rng, (trials, total_users))
    observed = observe(d, mean, inst, noise, rng)
    u = rng.random((trials, 2))
    reads = FEEDBACK_MODES[cfg.feedback_mode].reads
    sets = _group_masks(
        reads, cfg.thresholds, led, observed[0], observed[reads], simulate._block_buffers()
    )
    picks = [_uniform_pick_reference(mask, u[:, k]) for k, mask in enumerate(sets)]
    scheduled = picks[0][1] & picks[1][1]
    users = np.stack([idx for idx, _ in picks], axis=1)
    d, inst = (np.take_along_axis(a, users, axis=1) for a in (d, inst))
    return np.square(dc_gain(d, inst, led))[scheduled].T


class TestSchedulableRows:
    """Gains only on rows with ``strong_rank`` lit users change no scheduled pick."""

    @pytest.mark.parametrize("fov, dev", [(50, 0), (50, 25), (90, 0), (90, 25)])
    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("mode", ["FullCSI", "MeanAngle"])
    def test_matches_every_row_reference(self, mode, noisy, fov, dev):
        led = LedGeometry(2.0, np.radians(60.0), 1e-4, np.radians(fov))
        model = MobilityModel(0.0, 10.0, np.radians(25.0), np.radians(155.0), np.radians(dev))
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=noisy)
        # three row blocks in one chunk
        trials, total_users, seed = 8_000, 20, 41
        for strong_rank in (2, 10, 20):
            cfg = make_noma(mode=mode, strong_rank=strong_rank)
            kw = dict(total_users=total_users, seed=seed)
            [got] = collect_gain_pairs(trials, [(cfg, noise)], model, led, workers=1, **kw)
            want = _individual_reference(trials, cfg, model, led, noise=noise, **kw)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), strong_rank
            if (fov, strong_rank) == (50, 20):
                assert got[0].size == 0

    @pytest.mark.parametrize("noisy", [False, True])
    def test_rows_where_no_user_looks_lit_pick_zero(self, noisy):
        # Mean angles of 40-80 degrees meet a 20-degree field of view only near
        # the LED, while a 40-degree deviation brings instantaneous ones inside
        # it: most scheduled rows see no user lit at its mean angle.
        led = LedGeometry(2.0, np.radians(60.0), 1e-4, np.radians(20.0))
        model = MobilityModel(0.0, 10.0, np.radians(40.0), np.radians(80.0), np.radians(40.0))
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=noisy)
        cfg = make_noma(mode="MeanAngle", strong_rank=2)
        trials, kw = 8_000, dict(total_users=20, seed=41)
        rng = simulate._chunk_rng(kw["seed"], 0)
        d, mean, inst = sample_users(model, rng, (trials, kw["total_users"]))
        d_obs, mean_obs, _ = observe(d, mean, inst, noise, rng)
        scheduled = np.count_nonzero(dc_gain(d, inst, led) > 0.0, axis=1) >= cfg.strong_rank
        dark = np.count_nonzero(dc_gain(d_obs, mean_obs, led) > 0.0, axis=1) == 0
        assert np.count_nonzero(scheduled & dark) > 300
        assert np.count_nonzero(scheduled & ~dark) > 50
        [got] = collect_gain_pairs(trials, [(cfg, noise)], model, led, workers=1, **kw)
        want = _individual_reference(trials, cfg, model, led, noise=noise, **kw)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("mode", ["TwoBitInstantaneous", "TwoBitMean", "OneBitDistance"])
    def test_group_picks_match_every_row_reference(self, mode, noisy, model_dev25, led_fov50):
        # Picks and gains only on the rows with a user in both sets, three row blocks.
        noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=noisy)
        th = FeedbackThresholds.from_fractions(model_dev25, led_fov50, 0.1, 0.1)
        cfg = make_noma(mode=mode, thresholds=th)
        kw = dict(total_users=20, seed=43)
        [got] = collect_gain_pairs(
            8_000, [(cfg, noise)], model_dev25, led_fov50, workers=1, **kw
        )
        want = _group_reference(8_000, cfg, model_dev25, led_fov50, noise=noise, **kw)
        assert 0 < want[0].size < 8_000
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("mode", ["FullCSI", "MeanAngle"])
    def test_no_schedulable_row_is_degenerate(self, mode, model_dev25, capsys):
        led = LedGeometry(2.0, np.radians(60.0), 1e-4, np.radians(10.0))
        cfg = make_noma(mode=mode, strong_rank=20)
        for noisy in (False, True):
            noise = NoiseConfig(sigma_d=0.05, sigma_phi=2.5, enabled=noisy)
            with pytest.raises(DegenerateConditionError):
                sum_rate(2_000, cfg, model_dev25, led, noise=noise)
        argv = ["sweep-snr", "--trials", "2000", "--mode", mode, "--set", "strong_rank=20"]
        assert main([*argv, "--set", "theta_fov_deg=10"]) == 3
        assert "no scheduled trials" in capsys.readouterr().err


class TestDistancePick:
    """``DistanceOnly`` picks ranks of the stable order of decreasing observed distance."""

    def test_users_tied_at_the_zero_clamp_keep_their_order(self, model_dev25, led_fov50):
        # A large sigma_d clamps many observed distances at zero; at strong_rank =
        # total_users the strong pick is the last user of that tie.
        trials, total_users, seed = 5_000, 5, 12
        noise = NoiseConfig(sigma_d=5.0, enabled=True)
        cfg = make_noma(mode="DistanceOnly", strong_rank=total_users)
        kw = dict(total_users=total_users, seed=seed, workers=1)
        [got] = collect_gain_pairs(trials, [(cfg, noise)], model_dev25, led_fov50, **kw)
        rng = simulate._chunk_rng(seed, 0)
        d, mean, inst = sample_users(model_dev25, rng, (trials, total_users))
        d_obs = observe(d, mean, inst, noise, rng, reads=(True,))[0]
        assert np.count_nonzero(np.count_nonzero(d_obs == 0.0, axis=1) >= 2) > trials / 10
        order = np.argsort(-d_obs, axis=1, kind="stable")
        users = order[:, [cfg.weak_rank - 1, cfg.strong_rank - 1]]
        d, inst = (np.take_along_axis(a, users, axis=1) for a in (d, inst))
        want = np.square(dc_gain(d, inst, led_fov50))
        for g, w in zip(got, want.T):
            assert g.tobytes() == w.tobytes()


class TestConditionalSamples:
    def test_ordered_rank_gain_matches_analytic(self, model_dev30, led_fov60):
        samples = estimate(
            "ordered", 150_000, model_dev30, led_fov60, total_users=20, k_min=10, rank=10, seed=19
        )
        # the grid bound dominates the exact distance at a fraction of its integrals
        d = ks_distance_bound(
            samples,
            lambda x: cdf_gain_ranked(x, 10, model_dev30, led_fov60, total_users=20, k_min=10),
            grid_size=2048,
        )
        assert d < 0.012

    def test_unordered_samples_are_nonzero_gains(self, model_dev30, led_fov60):
        samples = estimate("unordered", 20_000, model_dev30, led_fov60, seed=21)
        assert np.all(samples > 0.0)

    def test_mean_weak_family_keeps_atom(self, model_dev30, led_fov60, thresholds_validation):
        samples = estimate(
            "twobit_mean_weak", 50_000, model_dev30, led_fov60,
            thresholds=thresholds_validation, seed=23,
        )
        zero_frac = np.mean(samples == 0.0)
        assert zero_frac == pytest.approx(0.1457, abs=0.01)

    def test_inst_weak_family_matches_membership(self, model_dev30, led_fov60, thresholds_validation):
        trials = 50_000
        samples = estimate(
            "twobit_inst_weak", trials, model_dev30, led_fov60,
            thresholds=thresholds_validation, seed=25,
        )
        assert np.all(samples > 0.0)
        # conditioning probability equals the single-user weak-set measure,
        # mixing the incidence-angle band over the distance range past d_th
        lo, hi = model_dev30.mean_angle_min, model_dev30.mean_angle_max

        def within(r, half):
            center = np.pi - np.arctan2(led_fov60.ell, r)
            return band_mixture(center + half, lo, hi, model_dev30) - band_mixture(
                center - half, lo, hi, model_dev30
            )

        def band_prob(r):
            return within(r, led_fov60.theta_fov) - within(
                r, thresholds_validation.angle_threshold
            )

        span = model_dev30.d_max - model_dev30.d_min
        expected = integrate_1d(
            band_prob, thresholds_validation.dist_threshold, model_dev30.d_max
        ) / model_dev30.delta_mean / span
        assert samples.size / trials == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize(
        "family", [f"twobit_{b}_{s}" for b in ("inst", "mean") for s in ("weak", "strong")]
    )
    def test_set_probability_is_table_mass(
        self, family, model_dev30, led_fov60, thresholds_validation
    ):
        # Each two-bit set's conditioning probability is its mass from the set
        # table over the distance range, within 4 binomial standard errors.
        model, led, th = model_dev30, led_fov60, thresholds_validation
        subset = family.rsplit("_", 1)[1]
        r_lo, r_hi, floor, cap = gain_cdf._twobit_set(model, led, th, subset)
        if "_inst_" in family:
            # the band integral is in mean-angle measure
            mass = gain_cdf._band_integral(model, led, r_lo, r_hi, floor, cap)()
            mass /= model.delta_mean
        else:
            mass = gain_cdf.band_measure(r_lo, model, led, th, subset)
        p = mass / model.delta_d
        trials = 1_000_000
        prob = estimate(family, trials, model, led, thresholds=th, seed=5).size / trials
        z = (prob - p) / np.sqrt(p * (1.0 - p) / trials)
        assert abs(z) <= 4.0, (p, prob)

    def test_rank_validated(self, model_dev30, led_fov60):
        with pytest.raises(InvalidParameterError):
            estimate("ordered", 5_000, model_dev30, led_fov60, total_users=20, k_min=10, rank=11)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ordered_is_the_full_csi_pick(self, workers, model_dev25, led_fov50):
        # Two full chunks and a partial one; the weak pick at rank 3, the strong at rank 10.
        n = 2 * simulate.CHUNK_TRIALS + 999
        kw = dict(total_users=20, seed=7, workers=workers)
        for rank, cfg, side in ((3, make_noma(weak_rank=3), 0), (10, make_noma(), 1)):
            samples = estimate("ordered", n, model_dev25, led_fov50, k_min=10, rank=rank, **kw)
            [picks] = collect_gain_pairs(n, [(cfg, None)], model_dev25, led_fov50, **kw)
            assert samples.tobytes() == picks[side].tobytes(), rank
            assert samples.size > 0

    @pytest.mark.parametrize("family", sorted(CDF_FAMILIES))
    def test_twins_reject_bad_conditioning_alike(self, family, model_dev25, led_fov50):
        # A family's analytic CDF and its sampler take the same conditioning keywords.
        for condition in (
            {},
            dict(total_users=20, k_min=10, rank=11),
            dict(total_users=20, k_min=21),
        ):
            twins = (
                lambda: CDF_FAMILIES[family](1e-12, model_dev25, led_fov50, **condition),
                lambda: estimate(family, 2_000, model_dev25, led_fov50, **condition),
            )
            rejected = []
            for twin in twins:
                try:
                    twin()
                    rejected.append(False)
                except InvalidParameterError:
                    rejected.append(True)
            assert rejected[0] == rejected[1], condition


class TestNonzeroCountHistogram:
    def test_histogram_matches_binomial(self, model_dev30, led_fov60):
        trials = 400_000
        counts = nonzero_count_histogram(trials, 20, model_dev30, led_fov60, seed=29)
        assert counts.sum() == trials
        p = nonzero_gain_probability(model_dev30, led_fov60)
        pmf = stats.binom.pmf(np.arange(21), 20, p)
        tv = 0.5 * np.abs(counts / trials - pmf).sum()
        assert tv < 0.01

    def test_lit_test_is_dc_gains(self, led_fov90):
        # Flat beneath the LED, light arrives at exactly 90 degrees: inside a
        # 90-degree field of view, so dc_gain is positive and the user is lit.
        model = MobilityModel(0.0, 5e-324, 0.0, 0.0, 0.0)
        d, _, inst = sample_users(model, np.random.default_rng(0), (8,))
        assert np.all(dc_gain(d, inst, led_fov90) > 0.0)
        counts = nonzero_count_histogram(1_000, 3, model, led_fov90, seed=1)
        np.testing.assert_array_equal(counts, [0, 0, 0, 1_000])

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
        clean, _, clean_prob = sum_rate(150_000, cfg, model_dev25, led_fov50, seed=37)
        noisy, _, noisy_prob = sum_rate(150_000, cfg, model_dev25, led_fov50, seed=37, noise=noise)
        assert noisy_prob == clean_prob  # scheduling uses true gains
        assert noisy != clean  # ranking uses the noisy gains
        assert abs(noisy - clean) < 0.5

    @pytest.mark.parametrize("rates", [(2.0, 10.0), (0.3, 1.7), (1e-3, 7.123456789)])
    @pytest.mark.parametrize("n", [1, 2, 3, 1_000, 300_001])
    def test_rate_stats_matches_mean_and_var(self, n, rates):
        # More inputs of the one scoring check, against the rate-array oracle.
        rng = np.random.default_rng(n)
        gain_w, gain_s = rng.random(n), rng.random(n)
        cfg = make_noma(rate_weak=rates[0], rate_strong=rates[1])
        TestRateStatsByCounts.check(gain_w, gain_s, [cfg], [(0.4, 0.7)])

    def test_rate_stats_empty_rejected(self):
        with pytest.raises(DegenerateConditionError):
            rate_stats(0, [[0, 0, 0]], [make_noma()])
