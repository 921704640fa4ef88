"""Receiver mobility model: position/orientation sampling and derived distributions.

Each transmission period draws, independently per user, a horizontal
distance, a mean vertical angle, and an instantaneous vertical angle
uniform within a deviation band around the mean.  The derived objects here
are the unconditional CDF of the instantaneous angle (a piecewise
quadratic/linear mixture), the probability that one user's gain is nonzero,
and the distribution of the number of nonzero-gain users, a binomial law
computed in log space by :func:`binom_pmf`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditionError, InvalidParameterError, require_finite
from .geometry import LedGeometry
from .quadrature import QuadratureSpec, integrate_1d

__all__ = [
    "MAX_TOTAL_USERS",
    "MobilityModel",
    "NonzeroCount",
    "sample_users",
    "cdf_vertical_angle",
    "prob_incidence_within",
    "nonzero_gain_probability",
    "binom_pmf",
    "binom_tail",
    "pmf_nonzero_count_truncated",
]

# Largest user population.  The binomial count law is tabulated up to it, and a
# Monte Carlo chunk holds CHUNK_TRIALS x total_users values per array: 0.5 GB at 1000.
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
        if self.max_deviation < 0:
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


@dataclass(frozen=True)
class NonzeroCount:
    """Binomial model for how many of K users have nonzero gain, with a start threshold."""

    total_users: int
    success_prob: float
    k_min: int

    def __post_init__(self):
        if self.total_users < 1:
            raise InvalidParameterError("need at least one user")
        if not 0.0 <= self.success_prob <= 1.0:
            raise InvalidParameterError("success probability outside [0, 1]")
        if not 1 <= self.k_min <= self.total_users:
            raise InvalidParameterError("k_min must lie in [1, total_users]")


def sample_users(model: MobilityModel, rng: np.random.Generator, size):
    """Draw (distance, mean angle, instantaneous angle) arrays of the given shape."""
    d = rng.uniform(model.d_min, model.d_max, size)
    mean = rng.uniform(model.mean_angle_min, model.mean_angle_max, size)
    inst = rng.uniform(-model.max_deviation, model.max_deviation, size)
    inst += mean
    return d, mean, inst


def cdf_vertical_angle(x, model: MobilityModel):
    """Unconditional CDF of the instantaneous vertical angle.

    Mixing the uniform deviation band over the uniform mean angle yields a
    piecewise form: quadratic ramps on both shoulders and a linear middle
    whose slope depends on whether the deviation band is narrower than half
    the mean-angle range.  Vectorized over ``x``.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = model.mean_angle_min, model.mean_angle_max
    dev, dmean = model.max_deviation, model.delta_mean
    # subnormal deviations overflow the ramp slopes; the uniform limit is exact there
    if dev < np.finfo(float).tiny:
        if dmean == 0.0:
            return np.where(x >= lo, 1.0, 0.0)
        return np.clip((x - lo) / dmean, 0.0, 1.0)
    if dmean == 0.0:
        return np.clip((x - lo + dev) / (2 * dev), 0.0, 1.0)
    z_lo = min(lo + dev, hi - dev)
    z_hi = max(lo + dev, hi - dev)
    # factored so neither the square nor the 4*dev*dmean product can underflow
    ramp_up = ((x - lo + dev) / (2 * dev)) * ((x - lo + dev) / (2 * dmean))
    ramp_down = 1.0 - ((hi + dev - x) / (2 * dev)) * ((hi + dev - x) / (2 * dmean))
    if 2 * dev <= dmean:
        middle = (x - lo) / dmean
    else:
        middle = (x + dev - 0.5 * (lo + hi)) / (2 * dev)
    out = np.where(x < lo - dev, 0.0, np.where(x < z_lo, ramp_up, middle))
    out = np.where(x >= z_hi, np.where(x < hi + dev, ramp_down, 1.0), out)
    return out if out.ndim else float(out)


def prob_incidence_within(r, half_width, model: MobilityModel, led: LedGeometry):
    """Probability that the incidence-angle magnitude is at most ``half_width`` at distance ``r``.

    Equals the vertical-angle CDF evaluated across the window of width
    ``2 * half_width`` centered on the angle that points the detector
    straight at the LED.  Vectorized over ``r`` and ``half_width``.
    """
    center = np.pi - np.arctan2(led.ell, np.asarray(r, dtype=float))
    return cdf_vertical_angle(center + half_width, model) - cdf_vertical_angle(
        center - half_width, model
    )


@functools.lru_cache(maxsize=64)
def nonzero_gain_probability(model: MobilityModel, led: LedGeometry) -> float:
    """Probability that a single user's channel gain is nonzero, memoized per geometry.

    Averages the in-field-of-view probability over distance by quadrature, split
    at the radii where the field-of-view window edges cross the vertical-angle
    CDF breakpoints.  Each ranked-family call needs it; arguments must be hashable.
    """
    total = integrate_1d(
        lambda r: prob_incidence_within(r, led.theta_fov, model, led),
        model.d_min,
        model.d_max,
        QuadratureSpec(breakpoints=fov_window_breakpoints(led.theta_fov, model, led)),
    )
    return min(max(total / model.delta_d, 0.0), 1.0)


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


def pmf_nonzero_count_truncated(k, nz: NonzeroCount):
    """PMF of the nonzero-user count conditioned on reaching the start threshold ``k_min``.

    The binomial PMF is renormalized by the tail mass at and above ``k_min``;
    values below ``k_min`` have probability zero.  Vectorized over ``k``.
    """
    n, p = nz.total_users, nz.success_prob
    # normalize by the sum of the very terms returned, so the weights sum to one
    tail = float(np.sum(binom_pmf(np.arange(nz.k_min, n + 1), n, p)))
    if tail <= 0.0:
        raise DegenerateConditionError(
            f"no mass at or above k_min={nz.k_min} for p={nz.success_prob}"
        )
    k = np.asarray(k)
    out = np.where(k >= nz.k_min, binom_pmf(k, n, p) / tail, 0.0)
    return out if out.ndim else float(out)
