"""Monte Carlo trial engine for all six feedback/scheduling modes.

Trials run in vectorized chunks of fixed size through one driver,
:func:`_map_chunks`.  Each chunk owns a generator derived from the root seed
and the chunk index, and results are combined in chunk order, so aggregates
are bit-identical for a given (seed, configuration) regardless of the worker
count.  The driver draws a chunk's users row block by row block, each small
enough for its temporaries to stay in cache, so memory is bounded by the
block, not by the user count; an entry point's ``start(rng, n)`` makes each
chunk's ``step(rows, true, buffer)`` and joins or sums what the steps return.
One collection serves several runs, (config, noise) pairs that share the
users: each block is drawn once and handed to every run's step in turn, and
each run reads its own copy of the chunk's generator past the users, so it
gets the bytes it would get alone.  A run with observation noise draws the
noise arrays its mode reads whole for the chunk and scales them block by
block; an array the mode never reads is drawn through a block-sized scratch
array only to keep the stream where the run alone would have it.  The users
and the float arrays a step computes over a block's rows live in the chunk's
buffers, made for its first block and reused by each later one
(:func:`_block_buffers`), as block-sized temporaries made afresh block after
block fault their pages back in; only the smaller ones (boolean tests, the lit
users' flat indices) and the stable ``argsort`` of a ranking metric are made
anew.  So a block, and all computed from it in a buffer, is valid only until
the next block is drawn, and a step copies what it keeps.  A step has one of
two shapes, named for what its mode reads first.  Pick, then gain:
``OneBitDistance``, ``TwoBitInstantaneous``, ``TwoBitMean`` and
``DistanceOnly`` pick from observed values alone, so only the two picked users
of a row get a gain, and the threshold modes pick only on their scheduled
rows, those with a user in both feedback sets.  Gain, then rank: ``FullCSI``,
``MeanAngle`` and the ``ordered`` sampler run the lit test on every user,
evaluate gains only on the rows with at least ``strong_rank`` lit users, and
rank them.  Every step is row-wise, so the block size never changes the output.

Observables can be perturbed by measurement noise; scheduling and ranking
then use the noisy values while outage is always judged on the true gains.
:func:`rate_stats` scores the points of a collection group in one pass, by counts.
"""

from __future__ import annotations

import contextvars
import copy
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditionError, InvalidParameterError, require_finite
from .gain_cdf import CDF_FAMILIES, FeedbackThresholds, ordered_rank
from .geometry import LedGeometry, dc_gain, incidence_angle, lit_gain, lit_mask
from .mobility import MobilityModel, sample_users
from .rates import FEEDBACK_MODES, NomaConfig, outage_gain_thresholds

__all__ = [
    "CHUNK_TRIALS",
    "NoiseConfig",
    "collect_scheduled_gains",
    "rate_stats",
    "estimate",
    "nonzero_count_histogram",
    "sample_vertical_angles",
]

CHUNK_TRIALS = 1 << 16
# User entries per row block of a chunk: 0.5 MB per float temporary, L2-sized.
_BLOCK_ENTRIES = 1 << 16
# Trials per slice of the scoring counts: 64 KB index temporaries.  Slices of
# a chunk, 0.5 MB each, raised a sweep's peak RSS by 1-2 MB.
_SCORE_SLICE = 1 << 13


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


def _noise(noise: NoiseConfig | None, rng, shape, reads):
    """Observation noise of (distance, mean angle, instantaneous angle), as unscaled normals.

    ``reads`` flags, in that order, the variables to draw: one normal per user
    each, from ``rng``.  A flagged one comes back as ``(normals, sigma)``, drawn
    whole; an unflagged one is drawn through a block-sized scratch array, which
    only moves ``rng`` on, and comes back as ``None``.  Nothing is drawn when disabled.
    """
    if noise is None or not noise.enabled:
        return ()
    sigma_phi = math.radians(noise.sigma_phi)
    size = math.prod(shape)
    drawn = []
    for read, sigma in zip(reads, (noise.sigma_d, sigma_phi, sigma_phi)):
        if read:
            drawn.append((rng.standard_normal(shape), sigma))
            continue
        # Normals are drawn one after another, so a draw in pieces is the whole draw.
        scratch = np.empty(min(size, _BLOCK_ENTRIES))
        for lo in range(0, size, scratch.size):
            rng.standard_normal(out=scratch[: size - lo])
        drawn.append(None)
    return drawn


def _observe(true, drawn, rows, buffer):
    """Observed (distance, mean, inst) of the users in ``rows``: ``true`` plus its noise.

    ``true`` holds those rows' values and ``drawn`` the chunk's :func:`_noise`;
    a variable without noise comes back as it is, for callers that never read it.
    A noisy one is ``normals * sigma + true``, computed in the chunk's buffer
    ``observed<k>`` (:func:`_block_buffers`).
    """
    observed = list(true)
    for k, noisy in enumerate(drawn):
        if noisy is None:
            continue
        z, sigma = noisy
        value = np.multiply(z[rows], sigma, out=buffer(f"observed{k}", true[k]))
        np.add(value, true[k], out=value)
        if k == 0:
            # Observed distance is clamped at zero so the geometry stays on its branch.
            np.maximum(value, 0.0, out=value)
        observed[k] = value
    return observed


def _block_buffers():
    """``buffer(name, block, rows=None, dtype=None)``: the chunk array ``name``, reused by blocks.

    It gives the leading ``rows`` (default ``len(block)``) rows of an array
    made in ``block``'s shape and dtype (unless ``dtype`` is given) when
    ``name`` is first asked for, and again only if it has too few rows.  A
    chunk's first row block is its largest, so an array made for it serves
    every later block.  What a block leaves there is valid until it is written again.
    """
    arrays = {}

    def buffer(name, block, rows=None, dtype=None):
        rows = len(block) if rows is None else rows
        if name not in arrays or len(arrays[name]) < rows:
            arrays[name] = np.empty(block.shape, dtype or block.dtype)
        return arrays[name][:rows]

    return buffer


def _take_rows(buffer, rows, **arrays):
    """Rows ``rows`` (indices) of each keyword's block array, in ``buffer`` ``<keyword>_rows``."""
    return [
        np.take(a, rows, axis=0, out=buffer(f"{name}_rows", a, rows.size), mode="clip")
        for name, a in arrays.items()
    ]


def _lit(d, phi, led, buffer):
    """Incidence angles of (d, phi) and ``dc_gain``'s lit test, in buffers ``theta`` and ``lit``."""
    theta = incidence_angle(d, phi, led.ell, out=buffer("theta", d))
    return theta, lit_mask(theta, led.theta_fov, out=buffer("lit", d, dtype=bool))


def _gain_sq(d, theta, lit, led, out, work):
    """Squared :func:`lit_gain`, computed in ``out`` with its ``work`` array."""
    gain = lit_gain(d, theta, lit, led, out=out, work=work)
    return np.square(gain, out=gain)


def _row_count(mask):
    """True entries per row of a 2-D boolean ``mask``: ``np.count_nonzero(mask, axis=1)``.

    A sum in uint16 is exact for rows of fewer than 65,536 entries, and faster
    than ``count_nonzero``: ``einsum``'s over the bytes below 128 entries a row
    (twice as fast at 5 and 20), ``add.reduce``'s from there.
    """
    width = mask.shape[1]
    if width < 128:
        return np.einsum("ij->i", mask.view(np.uint8), dtype=np.uint16)
    return np.add.reduce(mask, axis=1, dtype=np.uint16 if width < 1 << 16 else np.intp)


def _gain_then_rank(true, observed, reads, ranks, led, buffer):
    """Squared true gains at ``ranks`` (weak, strong) of a gain ranking's scheduled rows.

    One row block: ``true`` users, ``observed`` as :func:`_observe` gives them,
    and the chunk's :func:`_block_buffers` ``buffer``.  A row with at least
    ``strong_rank`` nonzero true gains is scheduled, and rank r is one flat index
    of its ranking: its strongest if fewer than r users look lit, 0.0 if none does.
    """
    d, _, inst = true
    # One incidence angle per user serves the lit test and the gains.  A row
    # with fewer lit users than the strong rank has fewer nonzero gains, so
    # it stays unscheduled and only the others get gains.
    theta, lit = _lit(d, inst, led, buffer)
    kept = np.flatnonzero(_row_count(lit) >= ranks[1])
    # lit_gain's work array, made afresh, would be mapped and unmapped block after block.
    work = buffer("lit_work", d).ravel()
    gain_sq = _gain_sq(
        *_take_rows(buffer, kept, d=d, theta=theta, lit=lit), led,
        buffer("gain_sq", d, kept.size), work,
    )
    nonzero = _row_count(gain_sq > 0.0)
    rows = np.flatnonzero(nonzero >= ranks[1])
    # Ranking on the true instantaneous angle ranks by the true gain itself, so
    # its sorted values are the picks; every other ranking picks users.
    by_value = observed[reads] is inst
    if by_value:
        gain_sq.sort(axis=1)
        ranked, count = gain_sq, nonzero
    else:
        # Rank by the gain at the observed angle the mode reads.  The true
        # angles are spent, so the kept rows' observed ones take their buffers.
        d_obs, phi_obs = _take_rows(buffer, kept, d_obs=observed[0], phi_obs=observed[reads])
        metric = _gain_sq(
            d_obs, *_lit(d_obs, phi_obs, led, buffer), led, buffer("metric", d, kept.size), work
        )
        ranked, count = np.argsort(metric, axis=1, kind="stable"), _row_count(metric > 0.0)
    # The ``count`` entries that look nonzero end a sorted row, so rank r is one
    # flat index from its last; a row with none reads past its end, clipped.
    width, count = ranked.shape[1], count[rows]
    at = [rows * width + (width - 1) - count + np.minimum(r, np.maximum(count, 1)) for r in ranks]
    picks = np.take(ranked, np.stack(at, axis=1), mode="clip")
    if not by_value:
        picks = np.where(count[:, None] > 0, np.take(gain_sq, (rows * width)[:, None] + picks), 0.0)
    return picks


def _pair_gain_sq(true, rows, users, led):
    """Squared true gains of ``users`` (a column per pick) in rows ``rows`` of a block."""
    d, inst = (np.take_along_axis(a[rows], users, axis=1) for a in (true[0], true[2]))
    return np.square(dc_gain(d, inst, led))


def _uniform_pick(mask, count, u):
    """Index of a uniformly chosen True entry per row of ``mask``, which has ``count`` of them.

    Row ``i`` with ``c`` True entries picks its ``floor(u[i] * c)``-th (from 0);
    an empty row gives index 0.
    """
    rows, width = mask.shape
    # Flat positions of the True entries, row by row; the sentinel keeps the
    # lookup of trailing empty rows in bounds.
    flat = np.append(np.flatnonzero(mask), 0)
    start = np.cumsum(count, dtype=np.intp) - count
    target = (u * np.maximum(count, 1)).astype(np.int64)
    return np.where(count > 0, flat[start + target] - np.arange(rows) * width, 0)


def _group_masks(reads, th, led, d_obs, angle_obs, buffer):
    """Weak and strong sets of a group mode: a distance bit, plus an angle bit if ``reads > 0``.

    The angle bit's incidence angles are computed in the chunk's buffer ``theta``.
    """
    far = d_obs > th.dist_threshold
    if reads == 0:
        return far, ~far
    theta_obs = incidence_angle(d_obs, angle_obs, led.ell, out=buffer("theta", d_obs))
    np.abs(theta_obs, out=theta_obs)
    weak_mask = far & (theta_obs > th.angle_threshold) & (theta_obs <= led.theta_fov)
    strong_mask = ~far & (theta_obs <= th.angle_threshold)
    return weak_mask, strong_mask


def _chunk_sizes(trials: int):
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    full, rem = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def _chunk_rng(seed: int, index: int):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _map_chunks(start, trials: int, model: MobilityModel, seed: int, workers, users: int = 1):
    """Every row block's ``step(rows, true, buffer)``, in chunk and block order: the chunk driver.

    Chunk ``c`` of ``n`` trials owns the generator of (seed, c) and calls
    ``step = start(rng, n)`` once.  Its users, those that
    ``sample_users(model, rng, (n, users))`` would draw, come in row slices
    ``rows`` of about ``_BLOCK_ENTRIES`` entries, each block drawn over the one
    before it into views of the same three arrays ``true``.  Every block gets
    the chunk's one :func:`_block_buffers` ``buffer``, so ``step`` copies what
    it keeps.  A uniform draw takes exactly one PCG64 output, so each variable
    is read block by block from its own copy of the generator, advanced to
    where that variable starts; ``rng`` reaches ``start`` past all three.
    Chunks run on pool threads even at one worker (chunk arrays freed on the
    main thread can stay pinned in its heap, ~30 MB more peak memory), each in
    a copy of the caller's context, so that its ``np.errstate`` holds there.
    """
    if users < 1:
        raise InvalidParameterError("need at least one user")
    sizes = _chunk_sizes(trials)
    caller = contextvars.copy_context()

    def chunk(c: int, n: int):
        # Copy k starts k * n * users outputs in: distance, mean, inst, then the rest.
        copies = [_chunk_rng(seed, c) for _ in range(4)]
        for k, g in enumerate(copies):
            g.bit_generator.advance(k * n * users)
        streams, step = tuple(copies[:3]), start(copies[3], n)
        block = max(1, _BLOCK_ENTRIES // users)
        # The first block is the largest; every block is drawn into its arrays.
        drawn = [np.empty((min(block, n), users)) for _ in range(3)]
        buffer, parts = _block_buffers(), []
        for lo in range(0, n, block):
            size = min(block, n - lo)
            true = sample_users(model, streams, (size, users), [x[:size] for x in drawn])
            parts.append(step(slice(lo, lo + size), true, buffer))
        return parts

    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(lambda c, n: caller.copy().run(chunk, c, n), range(len(sizes)), sizes)
        return [part for parts in chunks for part in parts]


def _run_step(cfg: NomaConfig, noise: NoiseConfig | None, rng, shape, led):
    """``step(rows, true, buffer)``: a run's scheduled pairs of squared true gains in one block.

    ``rng`` is the run's own copy of its chunk's generator, past the users, and
    ``shape`` the chunk's (trials, users).  The run draws its noise and the
    group modes' uniforms from it here, for the whole chunk.
    """
    mode = FEEDBACK_MODES[cfg.feedback_mode]
    ranks = (cfg.weak_rank, cfg.strong_rank)
    # Every mode reads distance and the report at ``reads``.  A group mode draws
    # all three noise arrays, read or not, before its uniforms.
    reads = [k in (0, mode.reads) for k in range(3 if mode.group else mode.reads + 1)]
    drawn = _noise(noise, rng, shape, reads)
    if mode.group:
        u = rng.random((shape[0], 2))

        def step(rows, true, buffer):
            observed = _observe(true, drawn, rows, buffer)
            sets = _group_masks(
                mode.reads, cfg.thresholds, led, observed[0], observed[mode.reads], buffer
            )
            # Only a row with a user in both sets is scheduled, and only its picks count.
            counts = [_row_count(s) for s in sets]
            kept = np.flatnonzero((counts[0] > 0) & (counts[1] > 0))
            u_kept = u[rows][kept]
            users = [
                _uniform_pick(s[kept], c[kept], u_kept[:, k])
                for k, (s, c) in enumerate(zip(sets, counts))
            ]
            return _pair_gain_sq(true, kept, np.stack(users, axis=1), led)

    elif mode.reads == 0:
        # Farther observed distance = presumed weaker, ties in user order; all scheduled.
        def step(rows, true, buffer):
            order = np.argsort(-_observe(true, drawn, rows, buffer)[0], axis=1, kind="stable")
            return _pair_gain_sq(true, slice(None), order[:, [r - 1 for r in ranks]], led)

    else:
        def step(rows, true, buffer):
            observed = _observe(true, drawn, rows, buffer)
            return _gain_then_rank(true, observed, mode.reads, ranks, led, buffer)

    return step


def collect_scheduled_gains(
    trials: int,
    runs,
    model: MobilityModel,
    led: LedGeometry,
    *,
    total_users: int,
    seed: int = 0,
    workers: int | None = None,
):
    """True squared gains of the picked pair over every scheduled trial, for each run.

    ``runs`` is a sequence of ``(NomaConfig, NoiseConfig | None)``.  The runs
    share the users: each chunk draws every row block once and hands it to
    each run in turn.  Each run reads its own copy of the chunk's generator past
    the users, so its noise, its picks and its gains are those it would have
    alone.  The picks do not depend on the transmit SNR, so one collection
    supports rate evaluation on a whole SNR grid via :func:`rate_stats`.
    Returns a list with one ``(gain_sq_weak, gain_sq_strong)`` pair per run.
    """
    runs = list(runs)
    for cfg, _ in runs:
        # strong_rank >= 2, so this also rejects an empty population
        if cfg.strong_rank > total_users:
            raise InvalidParameterError("strong_rank exceeds total_users")
        if FEEDBACK_MODES[cfg.feedback_mode].group and cfg.thresholds is None:
            raise InvalidParameterError("group modes need feedback thresholds")

    def start(rng, n):
        shape = (n, total_users)
        steps = [_run_step(cfg, noise, copy.deepcopy(rng), shape, led) for cfg, noise in runs]
        return lambda rows, true, buffer: [step(rows, true, buffer) for step in steps]

    parts = _map_chunks(start, trials, model, seed, workers, total_users)
    return [
        tuple(np.concatenate([p[r][:, k] for p in parts]) for k in (0, 1)) for r in range(len(runs))
    ]


def _clear_counts(gain_sq_weak, gain_sq_strong, t_weak, t_strong):
    """Per point of the threshold arrays, ``[n_w, n_s, n_ws]``: weak, strong and both clear.

    Where the points in weak-threshold order are in strong-threshold order too,
    as along an SNR grid, a trial clears the first k of them on a side (a
    ``searchsorted`` count) and both sides at the smaller k; elsewhere each
    point counts its own comparisons.
    """
    order = np.lexsort((t_strong, t_weak))
    t_weak, t_strong = t_weak[order], t_strong[order]
    points = order.size
    staircase = bool(np.all(t_strong[1:] >= t_strong[:-1]))
    counts = np.zeros((3, points + 1), dtype=np.int64)
    for lo in range(0, gain_sq_weak.size, _SCORE_SLICE):
        g_w, g_s = (g[lo : lo + _SCORE_SLICE] for g in (gain_sq_weak, gain_sq_strong))
        if staircase:
            k_w, k_s = np.searchsorted(t_weak, g_w), np.searchsorted(t_strong, g_s)
            for row, k in zip(counts, (k_w, k_s, np.minimum(k_w, k_s))):
                row += np.bincount(k, minlength=points + 1)
            continue
        for j in range(points):
            w, s = g_w > t_weak[j], g_s > t_strong[j]
            counts[:, j] += np.count_nonzero(w), np.count_nonzero(s), np.count_nonzero(w & s)
    if staircase:
        # A trial that clears the first k points counts at each of them.
        counts = np.cumsum(counts[:, ::-1], axis=1)[:, -2::-1]
    # From threshold order back to the points' own.
    return counts[:, np.argsort(order)].T.tolist()


def rate_stats(gain_sq_weak, gain_sq_strong, cfgs, thresholds=None):
    """``(mean, stderr)`` of the sum rate over scheduled trials at each point of ``cfgs``.

    ``cfgs`` are the points of a collection group.  A user meets its target
    when its squared gain clears its side of the point's ``thresholds`` pair,
    by default the NOMA outage levels.  One :func:`_clear_counts` pass scores
    every point by exact counts: a mean is the rate array's ``ndarray.mean``
    where the rates sum exactly, as whole numbers do, and within an ulp
    otherwise; a standard error is within a few ulps of ``var(ddof=1)``'s.
    """
    n = gain_sq_weak.size
    if n == 0:
        raise DegenerateConditionError("no scheduled trials")
    cfgs = list(cfgs)
    if thresholds is None:
        thresholds = [outage_gain_thresholds(cfg)[:2] for cfg in cfgs]
    elif len(thresholds) != len(cfgs):
        raise InvalidParameterError(f"{len(thresholds)} threshold pairs for {len(cfgs)} configs")
    t_weak, t_strong = np.array(thresholds, dtype=float).reshape(-1, 2).T
    counts = _clear_counts(gain_sq_weak, gain_sq_strong, t_weak, t_strong)
    results = []
    for cfg, (n_w, n_s, n_ws) in zip(cfgs, counts):
        r_w, r_s = cfg.rate_weak, cfg.rate_strong
        # n^2 times the rate's variance, its integer parts exact in Python ints;
        # the float sum of a zero spread can round a hair below zero.
        spread = (
            r_w * r_w * (n_w * (n - n_w))
            + r_s * r_s * (n_s * (n - n_s))
            + 2.0 * r_w * r_s * (n * n_ws - n_w * n_s)
        )
        stderr = math.sqrt(max(spread, 0.0) / n / (n - 1) / n) if n > 1 else 0.0
        results.append(((n_w * r_w + n_s * r_s) / n, stderr))
    return results


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
) -> np.ndarray:
    """Squared true gains drawn under the conditioning of a CDF family.

    ``family`` is one of ``CDF_FAMILIES`` and takes the conditioning keywords
    of its analytic CDF there.  ``ordered`` keeps the gain at ascending
    ``rank`` (default ``k_min``) among the nonzero users of each trial of
    ``total_users`` with at least ``k_min`` of them: the noise-free
    ``FullCSI`` pick at ranks ``(rank, k_min)``.  Every other family keeps the
    single users inside its set.  Returns one sample per draw that met the
    condition, so ``samples.size / trials`` is the conditioning probability.
    """
    if family not in CDF_FAMILIES:
        raise InvalidParameterError(f"family must be one of {tuple(CDF_FAMILIES)}, got {family!r}")
    mode, side = _FAMILY_PICKS.get(family, (None, None))
    if mode is not None and not FEEDBACK_MODES[mode].group:
        users, reads = total_users, FEEDBACK_MODES[mode].reads
        ranks = (ordered_rank(total_users, k_min, rank), k_min)

        def step(rows, true, buffer):
            # A copy, so that the blocks keep only the picks at ``rank``, not both columns.
            return _gain_then_rank(true, true, reads, ranks, led, buffer)[:, 0].copy()

    else:
        if mode is not None and thresholds is None:
            raise InvalidParameterError("set-conditioned families need feedback thresholds")
        users = 1

        def step(rows, true, buffer):
            gain_sq = np.square(dc_gain(true[0], true[2], led))
            if mode is None:
                return gain_sq[gain_sq > 0.0]
            reads = FEEDBACK_MODES[mode].reads
            sets = _group_masks(reads, thresholds, led, true[0], true[reads], buffer)
            return gain_sq[sets[side]]

    samples = np.concatenate(_map_chunks(lambda *_: step, trials, model, seed, workers, users))
    if samples.size == 0:
        raise DegenerateConditionError("conditioning event never occurred")
    return samples


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

    def step(rows, true, buffer):
        return _row_count(_lit(true[0], true[2], led, buffer)[1])

    counts = _map_chunks(lambda *_: step, trials, model, seed, workers, total_users)
    # Per-trial counts, not per-block histograms: a 65-trial block at 1000 users has 1001 bins.
    return sum(np.bincount(c, minlength=total_users + 1) for c in counts)


def sample_vertical_angles(
    trials: int, model: MobilityModel, *, seed: int = 0, workers: int | None = None
):
    """Instantaneous vertical angles of ``trials`` single users, drawn chunk by chunk."""

    def step(rows, true, buffer):
        return true[2][:, 0].copy()

    return np.concatenate(_map_chunks(lambda *_: step, trials, model, seed, workers))
