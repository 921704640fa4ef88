"""Monte Carlo trial engine for all six feedback/scheduling modes.

Trials run in vectorized chunks of fixed size.  Each chunk owns a generator
derived from the root seed and the chunk index, and chunk results are
combined in chunk order, so aggregates are bit-identical for a given
(seed, configuration) regardless of the worker count.  A chunk draws its
users row block by row block, each small enough for its temporaries to stay
in cache, so its memory is bounded by the block, not by the user count; only
observation noise, when enabled, is drawn for the whole chunk.  A block
picks, then evaluates the gains of the picks: group modes and the distance
ranking pick from observed values alone, so only the two picked users of a
row get a gain, while gain rankings run the lit test on every user and
evaluate gains only on the rows with at least ``strong_rank`` lit users.
Every step is row-wise, so the block size never changes the output.

Observables can be perturbed by measurement noise; scheduling and ranking
then use the noisy values while outage is always judged on the true gains.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditionError, InvalidParameterError, require_finite
from .gain_cdf import CDF_FAMILIES, FeedbackThresholds, ordered_rank
from .geometry import LedGeometry, dc_gain, incidence_angle
from .mobility import MobilityModel, sample_users
from .rates import FEEDBACK_MODES, NomaConfig, outage_gain_thresholds

__all__ = [
    "CHUNK_TRIALS",
    "NoiseConfig",
    "EstimateResult",
    "collect_scheduled_gains",
    "rate_stats",
    "estimate",
    "nonzero_count_histogram",
    "sample_vertical_angles",
]

CHUNK_TRIALS = 1 << 16
# User entries per row block of a chunk: 0.5 MB per float temporary, L2-sized.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class NoiseConfig:
    """Feedback measurement noise: distance in meters, angle in degrees."""

    sigma_d: float = 0.0
    sigma_phi: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        require_finite(self, "sigma_d", "sigma_phi")
        if self.sigma_d < 0 or self.sigma_phi < 0:
            raise InvalidParameterError("noise standard deviations must be nonnegative")


@dataclass(frozen=True)
class EstimateResult:
    """Aggregate of a Monte Carlo run plus the observed scheduling probability."""

    value: object
    stderr: float
    sched_prob: float
    trials: int
    scheduled_trials: int


def _noise(noise: NoiseConfig | None, rng, shape, draws: int = 3):
    """Observation noise of (distance, mean angle, instantaneous angle), drawn whole.

    Only the first ``draws`` get noise: one normal per user each, in that
    order, scaled by its standard deviation.  Nothing is drawn when disabled.
    """
    if noise is None or not noise.enabled:
        return ()
    sigma_phi = math.radians(noise.sigma_phi)
    scaled = []
    for sigma in (noise.sigma_d, sigma_phi, sigma_phi)[:draws]:
        z = rng.standard_normal(shape)
        z *= sigma
        scaled.append(z)
    return scaled


def _observe(true, scaled, rows):
    """Observed (distance, mean, inst) of the users in ``rows``: ``true`` plus its noise.

    ``true`` holds those rows' values and ``scaled`` the chunk's :func:`_noise`;
    a variable without noise comes back as it is, for callers that never read it.
    """
    if not scaled:
        return true
    observed = [z[rows] + value for z, value in zip(scaled, true)]
    # Observed distance is clamped at zero so the geometry stays on its branch.
    np.maximum(observed[0], 0.0, out=observed[0])
    return (*observed, *true[len(scaled):])


def _lit_count(d, phi, led):
    """Lit users per row, by the lit test of ``dc_gain``: incidence within the field of view."""
    return np.count_nonzero(np.abs(incidence_angle(d, phi, led.ell)) <= led.theta_fov, axis=1)


def _take_ranked(ranked, count, rank):
    """Per ascending row, the ``rank``-th smallest of its ``count`` largest entries.

    A row with fewer than ``rank`` such entries gives its largest entry.
    """
    total = ranked.shape[1]
    pos = total - count + np.minimum(rank, np.maximum(count, 1)) - 1
    return np.take_along_axis(ranked, np.clip(pos, 0, total - 1)[:, None], 1)[:, 0]


def _gain_sq_at(pick, d, inst, led):
    """Squared true gains of the users at the row-wise indices ``pick``."""
    d, inst = (np.take_along_axis(a, pick, axis=1) for a in (d, inst))
    return np.square(dc_gain(d, inst, led))


def _individual_batch(blocks, scaled, reads, ranks, led):
    """Squared true gains at ``ranks`` (weak, strong) of a rank-based chunk's scheduled rows."""
    picks = []
    for rows, true in blocks:
        d, _, inst = true
        observed = _observe(true, scaled, rows)
        total_users = d.shape[1]
        # Ranking on the true instantaneous angle ranks by the true gain itself, so
        # its sorted values are the picks; every other ranking picks users by index.
        by_value = observed[reads] is inst
        if reads == 0:
            # Farther observed distance = presumed weaker; every trial is scheduled.
            ranked = np.argsort(-observed[0], axis=1, kind="stable")
            apparent = np.full(ranked.shape[0], total_users)
        else:
            # A row with fewer lit users than the strong rank has fewer nonzero
            # gains, so it stays unscheduled and only the others get gains.
            lit = np.flatnonzero(_lit_count(d, inst, led) >= ranks[1])
            gain_sq = np.square(dc_gain(d[lit], inst[lit], led))
            nonzero = np.count_nonzero(gain_sq > 0.0, axis=1)
            if by_value:
                ranked, apparent = np.sort(gain_sq, axis=1), nonzero
            else:
                # Rank by the gain at the observed angle the mode reads.
                metric = np.square(dc_gain(observed[0][lit], observed[reads][lit], led))
                ranked = np.argsort(metric, axis=1, kind="stable")
                apparent = np.count_nonzero(metric > 0.0, axis=1)
        # Rank among the apparent-nonzero pool; when it is shorter than the
        # requested rank, fall back to the strongest available pick.
        pick = np.stack([_take_ranked(ranked, apparent, r) for r in ranks], axis=1)
        if by_value:
            picked = pick
        elif reads == 0:
            picked = _gain_sq_at(pick, d, inst, led)
        else:
            picked = np.take_along_axis(gain_sq, pick, axis=1)
        picked = np.where((apparent > 0)[:, None], picked, 0.0)
        picks.append(picked if reads == 0 else picked[nonzero >= ranks[1]])
    return np.concatenate(picks).T


def _uniform_pick(mask, u):
    """Index of a uniformly chosen True entry per row, and whether one exists.

    Row ``i`` with ``c`` True entries picks its ``floor(u[i] * c)``-th (from 0);
    an empty row gives index 0.
    """
    rows, width = mask.shape
    count = np.count_nonzero(mask, axis=1)
    # Flat positions of the True entries, row by row; the sentinel keeps the
    # lookup of trailing empty rows in bounds.
    flat = np.append(np.flatnonzero(mask), 0)
    start = np.cumsum(count) - count
    target = (u * np.maximum(count, 1)).astype(np.int64)
    ok = count > 0
    idx = np.where(ok, flat[start + target] - np.arange(rows) * width, 0)
    return idx, ok


def _group_masks(reads, th, led, d_obs, angle_obs):
    """Weak and strong sets of a group mode: a distance bit, plus an angle bit if ``reads > 0``."""
    far = d_obs > th.dist_threshold
    if reads == 0:
        return far, ~far
    theta_obs = np.abs(incidence_angle(d_obs, angle_obs, led.ell))
    weak_mask = far & (theta_obs > th.angle_threshold) & (theta_obs <= led.theta_fov)
    strong_mask = ~far & (theta_obs <= th.angle_threshold)
    return weak_mask, strong_mask


def _group_batch(u, blocks, scaled, reads, thresholds, led):
    """Squared true gains (weak, strong) of the scheduled rows of a threshold-feedback chunk."""
    picks = []
    for rows, true in blocks:
        d, _, inst = true
        observed = _observe(true, scaled, rows)
        weak_mask, strong_mask = _group_masks(reads, thresholds, led, observed[0], observed[reads])
        weak_idx, weak_ok = _uniform_pick(weak_mask, u[rows, 0])
        strong_idx, strong_ok = _uniform_pick(strong_mask, u[rows, 1])
        pick = np.stack((weak_idx, strong_idx), axis=1)
        picks.append(_gain_sq_at(pick, d, inst, led)[weak_ok & strong_ok])
    return np.concatenate(picks).T


def _chunk_sizes(trials: int):
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    full, rem = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def _chunk_rng(seed: int, index: int):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _map_chunks(fn, trials: int, model: MobilityModel, seed: int, workers, per_trial=()):
    """``fn(rng, n, blocks)`` of every chunk, in chunk order: the one chunk driver.

    Chunk ``c`` of ``n`` trials owns the generator of (seed, c).  Its users
    are those that ``sample_users(model, rng, (n, *per_trial))`` would draw,
    handed to ``fn`` as ``blocks``: an iterator, read once and in order, of
    ``(rows, (d, mean, inst))`` over row slices of about ``_BLOCK_ENTRIES``
    user entries.  A uniform draw takes exactly one PCG64 output, so each
    variable is read block by block from its own copy of the generator,
    advanced to where that variable starts, and ``rng`` reaches ``fn`` past
    all three; ``fn`` may draw more from it.
    Chunks run on pool threads even at one worker (chunk arrays freed on the
    main thread can stay pinned in its heap, ~30 MB more peak memory), each in
    a copy of the caller's context, so that its ``np.errstate`` holds there.
    """
    sizes = _chunk_sizes(trials)
    users = math.prod(per_trial)
    caller = contextvars.copy_context()

    def chunk(c: int, n: int):
        # Copy k starts k * n * users outputs in: distance, mean, inst, then the rest.
        copies = [_chunk_rng(seed, c) for _ in range(4)]
        for k, g in enumerate(copies):
            g.bit_generator.advance(k * n * users)
        streams, rng = tuple(copies[:3]), copies[3]
        step = max(1, _BLOCK_ENTRIES // users)

        def blocks():
            for lo in range(0, n, step):
                rows = slice(lo, min(lo + step, n))
                yield rows, sample_users(model, streams, (rows.stop - lo, *per_trial))

        return fn(rng, n, blocks())

    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda c, n: caller.copy().run(chunk, c, n), range(len(sizes)), sizes))


def collect_scheduled_gains(
    trials: int,
    cfg: NomaConfig,
    model: MobilityModel,
    led: LedGeometry,
    *,
    total_users: int,
    noise: NoiseConfig | None = None,
    seed: int = 0,
    workers: int | None = None,
):
    """True squared gains of the picked pair over every scheduled trial.

    The picks do not depend on the transmit SNR, so one collection supports
    rate evaluation on a whole SNR grid via :func:`rate_stats`.
    Returns ``(gain_sq_weak, gain_sq_strong, trials)``.
    """
    # strong_rank >= 2, so this also rejects an empty population
    if cfg.strong_rank > total_users:
        raise InvalidParameterError("strong_rank exceeds total_users")
    mode = FEEDBACK_MODES[cfg.feedback_mode]
    if mode.group and cfg.thresholds is None:
        raise InvalidParameterError("group modes need feedback thresholds")

    def chunk(rng, n, blocks):
        # A group mode draws all three noise arrays, read or not, before its uniforms.
        scaled = _noise(noise, rng, (n, total_users), 3 if mode.group else mode.reads + 1)
        if mode.group:
            return _group_batch(rng.random((n, 2)), blocks, scaled, mode.reads, cfg.thresholds, led)
        return _individual_batch(blocks, scaled, mode.reads, (cfg.weak_rank, cfg.strong_rank), led)

    parts = _map_chunks(chunk, trials, model, seed, workers, (total_users,))
    gain_sq_weak = np.concatenate([p[0] for p in parts])
    gain_sq_strong = np.concatenate([p[1] for p in parts])
    return gain_sq_weak, gain_sq_strong, trials


def rate_stats(gain_sq_weak, gain_sq_strong, trials: int, cfg: NomaConfig, thresholds=None):
    """Mean sum rate over scheduled trials, from collected pick gains, as an EstimateResult.

    A user meets its target rate when its squared gain clears its entry of
    ``thresholds``, a (weak, strong) pair that defaults to the NOMA outage levels.
    """
    n = gain_sq_weak.size
    if n == 0:
        raise DegenerateConditionError("no scheduled trials")
    threshold_weak, threshold_strong = thresholds or outage_gain_thresholds(cfg)[:2]
    # One buffer, reused in place: the steps of ndarray.mean and var(ddof=1).
    rate = np.multiply(gain_sq_weak > threshold_weak, cfg.rate_weak)
    np.add(rate, cfg.rate_strong, out=rate, where=gain_sq_strong > threshold_strong)
    total = rate.sum()
    stderr = 0.0
    if n > 1:
        rate -= total / n
        rate *= rate
        stderr = float(np.sqrt(rate.sum() / (n - 1) / n))
    return EstimateResult(float(total / n), stderr, n / trials, trials, n)


# (mode, side) of the pick whose gain CDF each family is, but "unordered".
_FAMILY_PICKS = {
    family: (name, side)
    for name, mode in FEEDBACK_MODES.items()
    for side, family in enumerate(mode.families or ())
}


def estimate(
    family: str,
    trials: int,
    model: MobilityModel,
    led: LedGeometry,
    *,
    thresholds: FeedbackThresholds | None = None,
    total_users: int | None = None,
    k_min: int | None = None,
    rank: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> EstimateResult:
    """Squared true gains drawn under the conditioning of a CDF family.

    ``family`` is one of ``CDF_FAMILIES`` and takes the conditioning keywords
    of its analytic CDF there.  ``ordered`` keeps the gain at ascending
    ``rank`` (default ``k_min``) among the nonzero users of each trial of
    ``total_users`` with at least ``k_min`` of them: the noise-free
    ``FullCSI`` pick at ranks ``(rank, k_min)``.  Every other family keeps the
    single users inside its set.  The samples come back as ``value`` and the
    fraction of draws that met the condition as ``sched_prob``.
    """
    if family not in CDF_FAMILIES:
        raise InvalidParameterError(f"family must be one of {tuple(CDF_FAMILIES)}, got {family!r}")
    mode, side = _FAMILY_PICKS.get(family, (None, None))
    if mode is not None and not FEEDBACK_MODES[mode].group:
        rank = ordered_rank(total_users, k_min, rank)

        def chunk(_, n, blocks):
            return _individual_batch(blocks, (), FEEDBACK_MODES[mode].reads, (rank, k_min), led)[0]

        parts = _map_chunks(chunk, trials, model, seed, workers, (total_users,))
    else:
        if mode is not None and thresholds is None:
            raise InvalidParameterError("set-conditioned families need feedback thresholds")

        def kept(true):
            gain_sq = np.square(dc_gain(true[0], true[2], led))
            if mode is None:
                return gain_sq[gain_sq > 0.0]
            reads = FEEDBACK_MODES[mode].reads
            return gain_sq[_group_masks(reads, thresholds, led, true[0], true[reads])[side]]

        def chunk(_, n, blocks):
            return np.concatenate([kept(true) for _, true in blocks])

        parts = _map_chunks(chunk, trials, model, seed, workers)
    samples = np.concatenate(parts)
    if samples.size == 0:
        raise DegenerateConditionError("conditioning event never occurred")
    return EstimateResult(samples, 0.0, samples.size / trials, trials, samples.size)


def nonzero_count_histogram(
    trials: int,
    total_users: int,
    model: MobilityModel,
    led: LedGeometry,
    *,
    seed: int = 0,
    workers: int | None = None,
):
    """Histogram (length ``total_users + 1``) of how many users have nonzero gain per trial."""

    def chunk(_, n, blocks):
        return sum(
            np.bincount(_lit_count(d, inst, led), minlength=total_users + 1)
            for _, (d, _, inst) in blocks
        )

    counts = _map_chunks(chunk, trials, model, seed, workers, (total_users,))
    return np.sum(counts, axis=0)


def sample_vertical_angles(
    trials: int, model: MobilityModel, *, seed: int = 0, workers: int | None = None
):
    """Instantaneous vertical angles of ``trials`` single users, drawn chunk by chunk."""

    def chunk(_, n, blocks):
        return np.concatenate([inst for _, (_, _, inst) in blocks])

    return np.concatenate(_map_chunks(chunk, trials, model, seed, workers))
