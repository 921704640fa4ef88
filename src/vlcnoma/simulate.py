"""Monte Carlo trial engine for all six feedback/scheduling modes.

Trials run in vectorized chunks of fixed size.  Each chunk owns a generator
derived from the root seed and the chunk index, and chunk results are
combined in chunk order, so aggregates are bit-identical for a given
(seed, configuration) regardless of the worker count.  A chunk draws all its
random numbers first, then evaluates gains, ranks and picks in row blocks
small enough for their temporaries to stay in cache; every step is row-wise,
so the block size never changes the output.

Observables can be perturbed by measurement noise; scheduling and ranking
then use the noisy values while outage is always judged on the true gains.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditionError, InvalidParameterError, require_finite
from .gain_cdf import CDF_SAMPLE_FAMILIES
from .geometry import LedGeometry, UserState, dc_gain, incidence_angle, mean_dc_gain
from .mobility import MobilityModel, sample_users
from .rates import GROUP_MODES, MODE_FAMILIES, NomaConfig, outage_gain_thresholds

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
    stderr: object
    sched_prob: float
    trials: int
    scheduled_trials: int


def _observe(dist, mean, inst, noise: NoiseConfig | None, rng):
    """Noisy copies of the observables; draws three normals per user when enabled."""
    if noise is None or not noise.enabled:
        return dist, mean, inst
    sigma_phi = math.radians(noise.sigma_phi)
    # Observed distance is clamped at zero so the geometry stays on its branch.
    dist_obs = np.maximum(dist + noise.sigma_d * rng.standard_normal(dist.shape), 0.0)
    mean_obs = mean + sigma_phi * rng.standard_normal(mean.shape)
    inst_obs = inst + sigma_phi * rng.standard_normal(inst.shape)
    return dist_obs, mean_obs, inst_obs


def _row_blocks(n: int, total_users: int):
    """Row slices of a chunk, each about ``_BLOCK_ENTRIES`` user entries."""
    step = max(1, _BLOCK_ENTRIES // total_users)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _take_ranked(ranked, count, rank):
    """Per ascending row, the ``rank``-th smallest of its ``count`` largest entries.

    A row with fewer than ``rank`` such entries gives its largest entry.
    """
    total = ranked.shape[1]
    pos = total - count + np.minimum(rank, np.maximum(count, 1)) - 1
    return np.take_along_axis(ranked, np.clip(pos, 0, total - 1)[:, None], 1)[:, 0]


def _individual_batch(rng, n, total_users, cfg, model, led, noise):
    """(scheduled, gain_sq_weak, gain_sq_strong) of one chunk of rank-based scheduling."""
    d, mean, inst = sample_users(model, rng, (n, total_users))
    d_obs, mean_obs, inst_obs = _observe(d, mean, inst, noise, rng)
    mode = cfg.feedback_mode
    # Noise-free FullCSI ranks by the true gain itself, so its sorted values
    # are the picks; every other ranking picks users by index.
    by_value = mode == "FullCSI" and d_obs is d
    scheduled = np.ones(n, dtype=bool)
    gain_sq_weak = np.empty(n)
    gain_sq_strong = np.empty(n)
    for blk in _row_blocks(n, total_users):
        gain_sq = np.square(dc_gain(UserState(d[blk], mean[blk], inst[blk]), led))
        rows = np.arange(gain_sq.shape[0])
        if mode == "DistanceOnly":
            # Farther observed distance = presumed weaker; every trial is scheduled.
            ranked = np.argsort(-d_obs[blk], axis=1, kind="stable")
            apparent = np.full(rows.size, total_users)
        else:
            nonzero = np.count_nonzero(gain_sq > 0.0, axis=1)
            scheduled[blk] = nonzero >= cfg.strong_rank
            if by_value:
                ranked, apparent = np.sort(gain_sq, axis=1), nonzero
            else:
                if mode == "FullCSI":
                    metric = np.square(
                        dc_gain(UserState(d_obs[blk], mean_obs[blk], inst_obs[blk]), led)
                    )
                else:
                    metric = np.square(mean_dc_gain(d_obs[blk], mean_obs[blk], led))
                ranked = np.argsort(metric, axis=1, kind="stable")
                apparent = np.count_nonzero(metric > 0.0, axis=1)
        # Rank among the apparent-nonzero pool; when it is shorter than the
        # requested rank, fall back to the strongest available pick.
        have_pick = apparent > 0
        for out, rank in ((gain_sq_weak, cfg.weak_rank), (gain_sq_strong, cfg.strong_rank)):
            pick = _take_ranked(ranked, apparent, rank)
            out[blk] = np.where(have_pick, pick if by_value else gain_sq[rows, pick], 0.0)
    return scheduled, gain_sq_weak, gain_sq_strong


def _uniform_pick(mask, u):
    """Index of a uniformly chosen True entry per row, and whether one exists."""
    count = mask.sum(axis=1)
    target = (u * np.maximum(count, 1)).astype(np.int64) + 1
    idx = np.argmax(np.cumsum(mask, axis=1) == target[:, None], axis=1)
    return idx, count > 0


def _group_masks(mode, th, led, d_obs, mean_obs, inst_obs):
    """Weak and strong selection sets of a group feedback mode, from observed values."""
    if mode == "OneBitDistance":
        weak_mask = d_obs > th.dist_threshold
        return weak_mask, ~weak_mask
    angle_src = inst_obs if mode == "TwoBitInstantaneous" else mean_obs
    theta_obs = np.abs(incidence_angle(d_obs, angle_src, led.ell))
    far = d_obs > th.dist_threshold
    weak_mask = far & (theta_obs > th.angle_threshold) & (theta_obs <= led.theta_fov)
    strong_mask = ~far & (theta_obs <= th.angle_threshold)
    return weak_mask, strong_mask


def _group_batch(rng, n, total_users, cfg, model, led, noise):
    """(scheduled, gain_sq_weak, gain_sq_strong) of one chunk of threshold-feedback scheduling."""
    d, mean, inst = sample_users(model, rng, (n, total_users))
    d_obs, mean_obs, inst_obs = _observe(d, mean, inst, noise, rng)
    u = rng.random((n, 2))
    scheduled = np.empty(n, dtype=bool)
    gain_sq_weak = np.empty(n)
    gain_sq_strong = np.empty(n)
    for blk in _row_blocks(n, total_users):
        gain_sq = np.square(dc_gain(UserState(d[blk], mean[blk], inst[blk]), led))
        rows = np.arange(gain_sq.shape[0])
        weak_mask, strong_mask = _group_masks(
            cfg.feedback_mode, cfg.thresholds, led, d_obs[blk], mean_obs[blk], inst_obs[blk]
        )
        weak_idx, weak_ok = _uniform_pick(weak_mask, u[blk, 0])
        strong_idx, strong_ok = _uniform_pick(strong_mask, u[blk, 1])
        scheduled[blk] = weak_ok & strong_ok
        gain_sq_weak[blk] = np.where(weak_ok, gain_sq[rows, weak_idx], 0.0)
        gain_sq_strong[blk] = np.where(strong_ok, gain_sq[rows, strong_idx], 0.0)
    return scheduled, gain_sq_weak, gain_sq_strong


def _chunk_sizes(trials: int):
    full, rem = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def _chunk_rng(seed: int, index: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _map_chunks(fn, trials: int, workers: int | None):
    sizes = _chunk_sizes(trials)
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    if workers <= 1 or len(sizes) <= 1:
        return [fn(c, size) for c, size in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes))


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
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    # strong_rank >= 2, so this also rejects an empty population
    if cfg.strong_rank > total_users:
        raise InvalidParameterError("strong_rank exceeds total_users")
    if cfg.feedback_mode in GROUP_MODES and cfg.thresholds is None:
        raise InvalidParameterError("group modes need feedback thresholds")
    batch = _group_batch if cfg.feedback_mode in GROUP_MODES else _individual_batch

    def chunk(c: int, size: int):
        scheduled, gain_sq_weak, gain_sq_strong = batch(
            _chunk_rng(seed, c), size, total_users, cfg, model, led, noise
        )
        return gain_sq_weak[scheduled], gain_sq_strong[scheduled]

    parts = _map_chunks(chunk, trials, workers)
    gain_sq_weak = np.concatenate([p[0] for p in parts])
    gain_sq_strong = np.concatenate([p[1] for p in parts])
    return gain_sq_weak, gain_sq_strong, trials


def rate_stats(gain_sq_weak, gain_sq_strong, trials: int, cfg: NomaConfig) -> EstimateResult:
    """Mean sum rate over scheduled trials, from collected pick gains."""
    n = gain_sq_weak.size
    if n == 0:
        raise DegenerateConditionError("no scheduled trials")
    threshold_weak, threshold_strong, _ = outage_gain_thresholds(cfg)
    rate = cfg.rate_weak * (gain_sq_weak > threshold_weak) + cfg.rate_strong * (
        gain_sq_strong > threshold_strong
    )
    mean = float(rate.mean())
    stderr = float(np.sqrt(rate.var(ddof=1) / n)) if n > 1 else 0.0
    return EstimateResult(mean, stderr, n / trials, trials, n)


def _outage_stats(gain_sq_weak, gain_sq_strong, trials: int, cfg: NomaConfig) -> EstimateResult:
    n = gain_sq_weak.size
    if n == 0:
        raise DegenerateConditionError("no scheduled trials")
    threshold_weak, threshold_strong, _ = outage_gain_thresholds(cfg)
    p_weak = float(np.mean(gain_sq_weak <= threshold_weak))
    p_strong = float(np.mean(gain_sq_strong <= threshold_strong))

    def se(p):
        return math.sqrt(p * (1.0 - p) / (n - 1)) if n > 1 else 0.0

    return EstimateResult((p_weak, p_strong), (se(p_weak), se(p_strong)), n / trials, trials, n)


def _single_user_condition(family: str, cfg, led):
    """Membership test on true observables for single-user conditional sampling."""
    if family == "unordered":
        return lambda d, mean, inst, gain_sq: gain_sq > 0.0
    th = cfg.thresholds
    if th is None:
        raise InvalidParameterError("set-conditioned families need feedback thresholds")
    # A two-bit family is the weak or strong set of the group mode pairing it.
    mode, side = next((m, p.index(family)) for m, p in MODE_FAMILIES.items() if family in p)
    return lambda d, mean, inst, gain_sq: _group_masks(mode, th, led, d, mean, inst)[side]


def _cdf_sample_chunks(family, trials, cfg, model, led, rank, seed, workers, total_users):
    if family == "ordered":
        if rank is None:
            rank = cfg.strong_rank
        if not 1 <= rank <= cfg.strong_rank:
            raise InvalidParameterError("rank must lie in [1, strong_rank]")

        def chunk(c: int, size: int):
            rng = _chunk_rng(seed, c)
            d, mean, inst = sample_users(model, rng, (size, total_users))
            gain_sq = np.square(dc_gain(UserState(d, mean, inst), led))
            nonzero = np.count_nonzero(gain_sq > 0.0, axis=1)
            keep = nonzero >= cfg.strong_rank
            return _take_ranked(np.sort(gain_sq[keep], axis=1), nonzero[keep], rank)

    else:
        membership = _single_user_condition(family, cfg, led)

        def chunk(c: int, size: int):
            rng = _chunk_rng(seed, c)
            d, mean, inst = sample_users(model, rng, (size,))
            gain_sq = np.square(dc_gain(UserState(d, mean, inst), led))
            return gain_sq[membership(d, mean, inst, gain_sq)]

    return np.concatenate(_map_chunks(chunk, trials, workers))


def estimate(
    metric: str,
    trials: int,
    cfg: NomaConfig,
    model: MobilityModel,
    led: LedGeometry,
    *,
    total_users: int,
    noise: NoiseConfig | None = None,
    seed: int = 0,
    workers: int | None = None,
    family: str | None = None,
    rank: int | None = None,
) -> EstimateResult:
    """Monte Carlo estimate of a metric with its standard error.

    ``sum_rate`` and ``outage_pair`` average over scheduled trials, matching
    the conditioning of the analytic path, and report the scheduling
    probability alongside.  ``conditional_cdf_samples`` returns raw squared
    gains drawn under the conditioning of the ``family`` (one of
    ``CDF_SAMPLE_FAMILIES``); ``rank`` applies to the ``ordered`` family.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    if metric in ("sum_rate", "outage_pair"):
        collected = collect_scheduled_gains(
            trials, cfg, model, led,
            total_users=total_users, noise=noise, seed=seed, workers=workers,
        )
        stats = rate_stats if metric == "sum_rate" else _outage_stats
        return stats(*collected, cfg)
    if metric == "conditional_cdf_samples":
        if family not in CDF_SAMPLE_FAMILIES:
            raise InvalidParameterError(
                f"family must be one of {CDF_SAMPLE_FAMILIES}, got {family!r}"
            )
        samples = _cdf_sample_chunks(
            family, trials, cfg, model, led, rank, seed, workers, total_users
        )
        if samples.size == 0:
            raise DegenerateConditionError("conditioning event never occurred")
        return EstimateResult(samples, 0.0, samples.size / trials, trials, samples.size)
    raise InvalidParameterError(f"unknown metric {metric!r}")


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
    if trials < 1:
        raise InvalidParameterError("need at least one trial")

    def chunk(c: int, size: int):
        rng = _chunk_rng(seed, c)
        d, mean, inst = sample_users(model, rng, (size, total_users))
        theta = np.abs(incidence_angle(d, inst, led.ell))
        # Equivalent to dc_gain > 0: inside the view cone with positive cosine.
        lit = (theta <= led.theta_fov) & (theta < np.pi / 2)
        return np.bincount(lit.sum(axis=1), minlength=total_users + 1)

    counts = _map_chunks(chunk, trials, workers)
    return np.sum(counts, axis=0)


def sample_vertical_angles(
    trials: int, model: MobilityModel, *, seed: int = 0, workers: int | None = None
):
    """Instantaneous vertical angles of ``trials`` single users, drawn chunk by chunk."""
    if trials < 1:
        raise InvalidParameterError("need at least one trial")

    def chunk(c: int, size: int):
        return sample_users(model, _chunk_rng(seed, c), (size,))[2]

    return np.concatenate(_map_chunks(chunk, trials, workers))
