"""Receiver mobility model: position/orientation sampling and derived distributions.

Each transmission period draws, independently per user, a horizontal
distance, a mean vertical angle, and an instantaneous vertical angle
uniform within a deviation band around the mean.  The derived objects here
are the one closed form of the angle mixture, :func:`band_mixture`, which
integrates the chance of the instantaneous angle staying below a level over a
band of mean angles, the unconditional CDF of the instantaneous angle (that
mixture over the whole mean range), and the distribution of the number of
nonzero-gain users, a binomial law computed in log space by :func:`binom_pmf`.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditionError, InvalidParameterError, require_finite
from .geometry import LedGeometry

__all__ = [
    "MAX_TOTAL_USERS",
    "MobilityModel",
    "sample_users",
    "band_mixture",
    "cdf_vertical_angle",
    "binom_pmf",
    "binom_tail",
    "pmf_nonzero_count_truncated",
]

# Largest user population.  The binomial count law is tabulated up to it.  A
# Monte Carlo chunk streams its users by row block, but with observation noise
# it holds CHUNK_TRIALS x total_users values per noise array: 0.5 GB at 1000.
MAX_TOTAL_USERS = 1000

# log(k!) for k = 0..MAX_TOTAL_USERS, each from the exact integer factorial.
_LOG_FACTORIAL = np.array(
    [
        math.log(f)
        for f in itertools.accumulate(range(1, MAX_TOTAL_USERS + 1), operator.mul, initial=1)
    ]
)


@dataclass(frozen=True)
class MobilityModel:
    """Uniform mobility ranges: distance, mean vertical angle, and angular deviation.

    All angles are radians.  The deviation band must stay inside [0, pi] so
    the instantaneous angle never leaves the physical range.
    """

    d_min: float
    d_max: float
    mean_angle_min: float
    mean_angle_max: float
    max_deviation: float

    def __post_init__(self):
        require_finite(
            self, "d_min", "d_max", "mean_angle_min", "mean_angle_max", "max_deviation"
        )
        if not 0 <= self.d_min < self.d_max:
            raise InvalidParameterError("need 0 <= d_min < d_max")
        if self.mean_angle_min > self.mean_angle_max:
            raise InvalidParameterError("mean-angle bounds out of order")
        # signbit also refuses -0.0, for which the sampler's uniform(0.0, -0.0) raises
        if np.signbit(self.max_deviation):
            raise InvalidParameterError("angular deviation must be nonnegative")
        if self.mean_angle_min - self.max_deviation < -1e-12 or (
            self.mean_angle_max + self.max_deviation > np.pi + 1e-12
        ):
            raise InvalidParameterError(
                "deviation band must keep the instantaneous angle inside [0, pi]"
            )

    @property
    def delta_d(self) -> float:
        return self.d_max - self.d_min

    @property
    def delta_mean(self) -> float:
        return self.mean_angle_max - self.mean_angle_min


def sample_users(model: MobilityModel, rng: np.random.Generator | tuple, size, out=None):
    """Draw (distance, mean angle, instantaneous angle) arrays of the given shape.

    ``rng`` is one generator, which draws the three in that order, or a
    (distance, mean, instantaneous) triple of generators, one per variable.
    ``out``, three contiguous arrays of that shape, receives the draws.  Each
    value is ``Generator.uniform``'s, one generator output apiece, scaled in place.
    """
    rngs = rng if isinstance(rng, tuple) else (rng,) * 3
    out = [np.empty(size) for _ in range(3)] if out is None else out
    bounds = (
        (model.d_min, model.d_max),
        (model.mean_angle_min, model.mean_angle_max),
        (-model.max_deviation, model.max_deviation),
    )
    for g, x, (lo, hi) in zip(rngs, out, bounds):
        g.random(out=x)
        x *= hi - lo
        x += lo
    d, mean, inst = out
    inst += mean
    return d, mean, inst


def band_mixture(y, a, b, model: MobilityModel):
    """Integral over mean angles in [a, b] of P(instantaneous angle <= y | mean).

    Given the mean, that chance is clip((y + dev - mean) / (2 dev), 0, 1), a
    ramp integrated in closed form; below a normal deviation it is the
    indicator of mean <= y.  The result is in mean-angle measure, except that
    a point mean range gives its one angle weight one.  Vectorized.
    """
    y = np.asarray(y, dtype=float)
    dev = model.max_deviation
    # subnormal deviations overflow the ramp slope; the indicator is exact there
    if dev < np.finfo(float).tiny:
        out = np.where(y >= a, 1.0, 0.0) if model.delta_mean == 0.0 else np.clip(y, a, b) - a
    elif model.delta_mean == 0.0:
        out = np.clip((y - a + dev) / (2.0 * dev), 0.0, 1.0)
    else:
        # In place in three buffers, the result allocated last: freeing the
        # buffers under it leaves the heap whole, so no call faults pages back in.
        w, shape = 2.0 * dev, np.broadcast(y, a, b).shape
        k, lower, c = np.empty(shape), np.empty(shape), np.empty(shape)
        np.subtract(np.add(y, dev, out=k), a, out=lower)
        # u = (k - a) / w and (k - b) / w become the antiderivative of the ramp,
        # 0.5 c^2 + max(u - 1, 0) with c = clip(u, 0, 1); c * c cannot overflow,
        # and (c * c) * 0.5 is 0.5 * c * c bit for bit unless it is subnormal.
        for u in (lower, np.subtract(k, b, out=k)):
            u /= w
            np.minimum(np.maximum(u, 0.0, out=c), 1.0, out=c)
            np.maximum(np.subtract(u, 1.0, out=u), 0.0, out=u)
            u += np.multiply(np.multiply(c, c, out=c), 0.5, out=c)
        out = lower - k
        out *= w
    return out if np.ndim(out) else float(out)


def cdf_vertical_angle(x, model: MobilityModel):
    """CDF of the instantaneous vertical angle: :func:`band_mixture` over the mean range.

    Exactly 0 below the support and 1 at and past its top.  Vectorized over ``x``.
    """
    x = np.asarray(x, dtype=float)
    out = np.asarray(band_mixture(x, model.mean_angle_min, model.mean_angle_max, model))
    out /= model.delta_mean or 1.0
    # past the top the two ramps cancel only to 1 - 2e-16, and an ulp below it they can
    # round to 1 + 2e-16
    np.copyto(out, 1.0, where=x >= model.mean_angle_max + model.max_deviation)
    np.minimum(out, 1.0, out=out)
    return out if out.ndim else float(out)


def bound_crossing_radius(offset: float, bound: float, ell: float) -> float:
    """Distance ``r`` where pi - arctan(ell / r) + offset equals ``bound``.

    Gives 0 when the angle is past the bound at every distance and inf when it
    never gets there; no integration interval holds either strictly inside.
    """
    u = np.pi + offset - bound
    if u <= 0.0:
        return np.inf
    if u >= np.pi / 2:
        return 0.0
    return ell / np.tan(u)


def fov_window_breakpoints(half_width: float, model: MobilityModel, led: LedGeometry):
    """Radii where the incidence window of the given half-width crosses a CDF branch edge."""
    dev = model.max_deviation
    branch_edges = [
        model.mean_angle_min - dev,
        min(model.mean_angle_min + dev, model.mean_angle_max - dev),
        max(model.mean_angle_min + dev, model.mean_angle_max - dev),
        model.mean_angle_max + dev,
    ]
    return tuple(
        bound_crossing_radius(sign, edge, led.ell)
        for edge in branch_edges
        for sign in (half_width, -half_width)
    )


def binom_pmf(k, n, p):
    """Binomial PMF P(Bin(n, p) = k) for integer sizes ``n`` in [0, MAX_TOTAL_USERS].

    Works in log space from the log-factorial table, so neither the
    coefficient nor the powers overflow or underflow before the final
    exponential.  Integer ``k``, integer ``n`` and ``p`` in [0, 1] broadcast
    together; ``k`` outside [0, n] has probability zero.
    """
    n = np.asarray(n)
    if np.any((n < 0) | (n > MAX_TOTAL_USERS)):
        raise InvalidParameterError(f"binomial size must lie in [0, {MAX_TOTAL_USERS}]")
    k = np.asarray(k)
    p = np.asarray(p, dtype=float)
    kk = np.clip(k, 0, n)
    # 0 * log(0) counts as 0, so p = 0 and p = 1 give their point masses
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (
            _LOG_FACTORIAL[n]
            - _LOG_FACTORIAL[kk]
            - _LOG_FACTORIAL[n - kk]
            + np.where(kk > 0, kk * np.log(p), 0.0)
            + np.where(kk < n, (n - kk) * np.log1p(-p), 0.0)
        )
    out = np.where(k == kk, np.exp(log_pmf), 0.0)
    return out if out.ndim else float(out)


def binom_tail(k_min: int, n: int, p):
    """P(Bin(n, p) >= k_min) from :func:`binom_pmf`; vectorized over ``p``.

    Sums the smaller of the two tails and takes the other as one minus it,
    so a probability near one carries only the small tail's round-off.
    Each value of ``p`` sums its own contiguous row, so a value never
    depends on the others in the call.  This is the regularized incomplete
    beta function I_p(k_min, n - k_min + 1).
    """
    p = np.asarray(p, dtype=float)
    pmf = binom_pmf(np.arange(n + 1), n, p[..., None])
    split = min(max(k_min, 0), n + 1)
    lower = pmf[..., :split].sum(axis=-1)
    upper = pmf[..., split:].sum(axis=-1)
    out = np.where(upper <= lower, upper, 1.0 - lower)
    return out if out.ndim else float(out)


def pmf_nonzero_count_truncated(k, total_users: int, success_prob: float, k_min: int):
    """PMF of the nonzero-user count conditioned on reaching the start threshold ``k_min``.

    Each of ``total_users`` users has nonzero gain with ``success_prob``.  The
    binomial PMF is renormalized by the tail mass at and above ``k_min``;
    values below ``k_min`` have probability zero.  Vectorized over ``k``.
    """
    if total_users < 1:
        raise InvalidParameterError("need at least one user")
    if not 0.0 <= success_prob <= 1.0:
        raise InvalidParameterError("success probability outside [0, 1]")
    if not 1 <= k_min <= total_users:
        raise InvalidParameterError("k_min must lie in [1, total_users]")
    # normalize by the sum of the very terms returned, so the weights sum to one
    tail = float(np.sum(binom_pmf(np.arange(k_min, total_users + 1), total_users, success_prob)))
    if tail <= 0.0:
        raise DegenerateConditionError(f"no mass at or above k_min={k_min} for p={success_prob}")
    k = np.asarray(k)
    out = np.where(k >= k_min, binom_pmf(k, total_users, success_prob) / tail, 0.0)
    return out if out.ndim else float(out)
