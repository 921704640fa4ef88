"""Analytic CDFs of the squared channel gain under the mobility model.

The building blocks are the half-angle within which the squared gain exceeds
a level ``x`` at a given distance, and the distance beyond which no
orientation reaches that level.  Both give exact kink locations, fed to the
adaptive rule as breakpoints so the integrals converge at tight tolerances.

Six families are covered, each dispatched by name through ``CDF_FAMILIES``:
the gain of an unordered user conditioned on being nonzero, the gain at a
given ascending rank among the nonzero users, and the weak/strong selection
sets of two-bit feedback based on the instantaneous or the mean orientation.
Every single-user family (the ranked one mixes the unordered one) is one
band integral over distance and mean angle, :func:`_band_integral`, of
P(a(r) < |theta| <= b(r)) with the clipped gain half-angle as a band edge;
:func:`~vlcnoma.mobility.band_mixture` does the mean-angle part in closed form.
The mean-angle sets' own mass has the closed form :func:`ramp_cdf_integral`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditionError, InvalidParameterError, require_finite
from .geometry import LedGeometry, channel_constant
from .mobility import (
    MobilityModel,
    band_mixture,
    binom_pmf,
    binom_tail,
    bound_crossing_radius,
    fov_window_breakpoints,
    pmf_nonzero_count_truncated,
)
from .quadrature import integrate_1d

__all__ = [
    "CDF_FAMILIES",
    "FeedbackThresholds",
    "gain_halfangle",
    "edge_gain_distance",
    "nonzero_gain_probability",
    "cdf_gain_unordered",
    "ordered_rank",
    "cdf_gain_ranked",
    "cdf_weak_twobit_inst",
    "cdf_strong_twobit_inst",
    "ramp_cdf_integral",
    "band_measure",
    "cdf_weak_twobit_mean",
    "cdf_strong_twobit_mean",
]


@dataclass(frozen=True)
class FeedbackThresholds:
    """Distance and incidence-angle thresholds splitting users into strong/weak sets."""

    dist_threshold: float
    angle_threshold: float

    def __post_init__(self):
        require_finite(self, "dist_threshold", "angle_threshold")
        if self.dist_threshold <= 0:
            raise InvalidParameterError("distance threshold must be positive")
        if self.angle_threshold <= 0:
            raise InvalidParameterError("angle threshold must be positive")

    @classmethod
    def from_fractions(
        cls, model: MobilityModel, led: LedGeometry, dist_frac: float, angle_frac: float
    ) -> "FeedbackThresholds":
        """Place thresholds at fractions of the distance range and the field of view."""
        if not 0 < dist_frac <= 1 or not 0 < angle_frac <= 1:
            raise InvalidParameterError("threshold fractions must lie in (0, 1]")
        return cls(
            dist_threshold=model.d_min + dist_frac * model.delta_d,
            angle_threshold=angle_frac * led.theta_fov,
        )


def gain_halfangle(x, r, led: LedGeometry):
    """Incidence-angle magnitude below which the squared gain exceeds ``x`` at distance ``r``.

    Solves cos^2(theta) = c with c = x * (ell^2 + r^2)^(m+2) / h_c^2; the clip
    returns pi/2 when every orientation clears the level and 0 when none does.
    The arctangent form is well conditioned at both ends; ``arccos(2c - 1) / 2``
    would lose ~1e-11 of theta near pi/2.
    """
    _, upsilon = channel_constant(led)
    c = np.clip(np.asarray(x) * upsilon(np.asarray(r, dtype=float)), 0.0, 1.0)
    return np.arctan2(np.sqrt(1.0 - c), np.sqrt(c))


def edge_gain_distance(x: float, led: LedGeometry, *, cos_sq: float, lo: float, hi: float) -> float:
    """Distance at which the squared gain at a fixed cosine factor equals ``x``, clamped.

    With ``cos_sq = cos^2`` of the field-of-view half-angle this is where the
    gain at the view edge crosses ``x``; with ``cos_sq = 1`` it is where even
    a perfectly aligned receiver drops below ``x``.  Nonpositive ``x`` maps
    to the upper clamp since the gain is nonnegative.
    """
    if x <= 0.0:
        return hi
    h_c, _ = channel_constant(led)
    m = led.lambertian_m
    base = (h_c * h_c * cos_sq / x) ** (1.0 / (m + 2.0)) - led.ell * led.ell
    if base <= 0.0:
        return lo
    return min(max(np.sqrt(base), lo), hi)


def _per_level(x, fn):
    """A CDF per level from its scalar evaluator ``fn``: 0 below zero, else clipped to [0, 1]."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([0.0 if xi < 0.0 else float(np.clip(fn(float(xi)), 0.0, 1.0)) for xi in xs])
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def _mean_offsets(floor: float, cap: float):
    """(lo, hi) offsets from the aim angle of the mean-angle bands: (floor, cap] on either side."""
    return ((-cap, -floor), (floor, cap)) if floor > 0.0 else ((-cap, cap),)


def _clipped_bands(center, offsets, model: MobilityModel):
    """The bands ``center + offsets`` clipped to the mean-angle range, with hi = lo where empty."""
    bands, low, high = [], model.mean_angle_min, model.mean_angle_max
    for lo, hi in offsets:
        # clip without np.clip's call overhead, which the integrand pays per band
        a = np.minimum(np.maximum(center + lo, low), high)
        b = np.minimum(np.maximum(center + hi, low), high)
        bands.append((a, np.maximum(a, b)))
    return tuple(bands)


def _within(center, h, a, b, model: MobilityModel):
    """Mean-angle measure of the means in [a, b] with |theta| <= h: all for None, none for 0."""
    if h is None:
        return b - a
    if np.ndim(h) == 0 and h == 0.0:
        return 0.0
    return band_mixture(center + h, a, b, model) - band_mixture(center - h, a, b, model)


def _band_integral(model, led, r_lo, r_hi, floor: float, cap: float, *, clears=True, on_mean=False):
    """The one band integral behind the single-user families, as ``integral(x, stop=r_hi)``.

    The set holds the users at distance in [r_lo, r_hi] whose incidence angle
    (``on_mean``: mean incidence angle) has magnitude in (floor, cap].  Given
    ``r``, the mean angle runs over the whole mean range, or ``on_mean`` over
    c(r) + :func:`_mean_offsets`, c(r) the angle aiming at the LED.  At a level
    ``x`` the gain clears |theta| <= psi(r), the gain half-angle clipped to the
    view and, for a set on the instantaneous angle, to (floor, cap]; the band is
    the set's part inside that window if ``clears``, else the part outside it.
    ``integral()`` is the set's mass.  Results are in mean-angle measure:
    divide by the mean-angle range after integrating.
    """
    if on_mean:
        offsets = _mean_offsets(floor, cap)
        # Radii where a band edge crosses a mean-angle bound; band clipping kinks there.
        bounds = (model.mean_angle_min, model.mean_angle_max)
        static = tuple(
            bound_crossing_radius(o, b, led.ell) for band in offsets for o in band for b in bounds
        )
        floor_w, cap_w, top = 0.0, led.theta_fov, None
    else:
        static = fov_window_breakpoints(cap, model, led)
        if floor > 0.0:
            static += fov_window_breakpoints(floor, model, led)
        floor_w, cap_w, top = floor, min(cap, led.theta_fov), cap
        whole = ((model.mean_angle_min, model.mean_angle_max),)
    # A cap past the view leaves the levels a window capped at the fov, whose edges kink too.
    window = fov_window_breakpoints(cap_w, model, led) if not on_mean and cap_w < cap else ()

    def integral(x: float | None = None, stop: float = r_hi) -> float:
        start, bps = r_lo, static
        if x is not None:
            # Radii where the gain at the window's cap, at its floor and on axis crosses x.
            edges = tuple(
                edge_gain_distance(x, led, cos_sq=np.cos(a) ** 2, lo=r_lo, hi=r_hi)
                for a in (cap_w, floor_w, 0.0)
            )
            # Short of the cap's radius the window is whole: the part outside it
            # is empty there when the window reaches the top of the set.
            start = edges[0] if not clears and top == cap_w else r_lo
            bps = static + window + edges

        def band(r):
            center = np.pi - np.arctan2(led.ell, r)
            lower, upper = floor_w, top
            if x is not None:
                psi = np.minimum(np.maximum(gain_halfangle(x, r, led), floor_w), cap_w)
                lower, upper = (floor_w, psi) if clears else (psi, top)
            total = 0.0
            for a, b in _clipped_bands(center, offsets, model) if on_mean else whole:
                total = total + _within(center, upper, a, b, model) - _within(
                    center, lower, a, b, model
                )
            return total

        return integrate_1d(band, start, stop, bps)

    return integral


@functools.lru_cache(maxsize=64)
def _lit_mass(model: MobilityModel, led: LedGeometry) -> float:
    """The whole field-of-view band of :func:`_band_integral`, memoized per (hashable) geometry."""
    return _band_integral(model, led, model.d_min, model.d_max, 0.0, led.theta_fov)()


def nonzero_gain_probability(model: MobilityModel, led: LedGeometry) -> float:
    """Probability that a single user's channel gain is nonzero."""
    total = _lit_mass(model, led) / (model.delta_mean or 1.0)
    return min(max(total / model.delta_d, 0.0), 1.0)


def cdf_gain_unordered(x, model: MobilityModel, led: LedGeometry):
    """CDF of one user's squared gain conditioned on it being nonzero."""
    den = _lit_mass(model, led)
    if den <= 0.0:
        raise DegenerateConditionError("gain is zero with probability one")
    survive = _band_integral(model, led, model.d_min, model.d_max, 0.0, led.theta_fov)
    return _per_level(x, lambda xi: 1.0 - survive(xi) / den)


def ordered_rank(total_users: int | None, k_min: int | None, rank: int | None = None) -> int:
    """The ordered family's rank (default ``k_min``), checked with the rest of its conditioning."""
    if total_users is None or k_min is None:
        raise InvalidParameterError("the ordered family needs total_users and k_min")
    rank = k_min if rank is None else rank
    if not 1 <= rank <= k_min:
        raise InvalidParameterError("rank must lie in [1, k_min] so it always exists")
    if k_min > total_users:
        raise InvalidParameterError("k_min must lie in [1, total_users]")
    return rank


def cdf_gain_ranked(
    x, rank: int, model: MobilityModel, led: LedGeometry, *, total_users: int, k_min: int
):
    """CDF of the gain at ascending rank ``rank`` among the nonzero users.

    Conditions on at least ``k_min`` of ``total_users`` users having nonzero
    gain, mixing the order-statistic CDF over the truncated count distribution.
    """
    ordered_rank(total_users, k_min, rank)
    base = np.ravel(cdf_gain_unordered(x, model, led))
    ns = np.arange(k_min, total_users + 1)
    p = nonzero_gain_probability(model, led)
    weights = pmf_nonzero_count_truncated(ns, total_users, p, k_min)
    # The rank-th smallest of n gains is <= x when at least rank of them are, and
    # P(Bin(n + 1, F) >= rank) = P(Bin(n, F) >= rank) + F P(Bin(n, F) = rank - 1).
    # One row per level, so a level's value never depends on the others in the call.
    f = base[:, None]
    first = binom_tail(rank, k_min, f)
    steps = np.cumsum(f * binom_pmf(rank - 1, ns[:-1], f), axis=1)
    tails = np.concatenate((first, first + steps), axis=1)
    # truncated-count weights sum to 1 only up to round-off
    out = np.clip((tails * weights).sum(axis=1), 0.0, 1.0)
    return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])


def _twobit_set(model: MobilityModel, led: LedGeometry, th: FeedbackThresholds, subset: str):
    """``(r_lo, r_hi, floor, cap)`` of a two-bit selection set, the one table of both sets.

    Members have distance in [r_lo, r_hi] and incidence-angle magnitude in
    (floor, cap]; the mean-angle families apply the band to the mean angle.
    """
    sets = {
        "weak": (th.dist_threshold, model.d_max, th.angle_threshold, led.theta_fov),
        "strong": (model.d_min, th.dist_threshold, 0.0, th.angle_threshold),
    }
    if subset not in sets:
        raise InvalidParameterError(f"unknown selection subset: {subset!r}")
    return sets[subset]


def _set_mass(mass: float, model: MobilityModel, subset: str, measure: float = 1.0) -> float:
    """``mass``, a selection set's membership integrated over distance, unless the set is empty.

    ``measure`` is the mean-angle measure ``mass`` was integrated in.  Round-off
    leaves an empty set a mass of either sign, up to ~3e-14 of the distance
    range in 3,000 random configurations; genuine sets there held 1e-7 of it or more.
    """
    if mass / measure <= 1e-12 * model.delta_d:
        raise DegenerateConditionError(f"{subset} selection set has zero probability")
    return mass


def cdf_weak_twobit_inst(x, model: MobilityModel, led: LedGeometry, th: FeedbackThresholds):
    """Gain CDF in the weak set of instantaneous two-bit feedback.

    Membership: distance above the threshold and incidence-angle magnitude
    between the angle threshold and the field-of-view edge, so members always
    have nonzero gain.
    """
    below = _band_integral(model, led, *_twobit_set(model, led, th, "weak"), clears=False)
    den = _set_mass(below(), model, "weak", model.delta_mean or 1.0)
    return _per_level(x, lambda xi: below(xi) / den)


def cdf_strong_twobit_inst(x, model: MobilityModel, led: LedGeometry, th: FeedbackThresholds):
    """Gain CDF in the strong set of instantaneous two-bit feedback.

    Membership: distance at most the threshold and incidence-angle magnitude
    at most the angle threshold.
    """
    survive = _band_integral(model, led, *_twobit_set(model, led, th, "strong"))
    den = _set_mass(survive(), model, "strong", model.delta_mean or 1.0)
    return _per_level(x, lambda xi: 1.0 - survive(xi) / den)


def ramp_cdf_integral(
    offset: float, y: float, z: float, model: MobilityModel, led: LedGeometry
) -> float:
    """Closed form of the mean-angle CDF integrated over distance.

    Computes the integral over ``r`` in [y, z] of the uniform mean-angle CDF
    evaluated at ``pi - arctan(ell / r) + offset``.  The integrand is 0 up to
    the radius where the argument reaches the lower angle bound, ramps while
    it sweeps the uniform range, and is 1 beyond; the ramp piece integrates
    in closed form through the arctangent antiderivative.
    """
    if model.delta_mean <= 0.0:
        raise InvalidParameterError("mean-angle range must be nondegenerate")
    if y > z:
        raise InvalidParameterError(f"integration bounds out of order: {y} > {z}")
    ell = led.ell
    r0 = bound_crossing_radius(offset, model.mean_angle_min, ell)
    r1 = bound_crossing_radius(offset, model.mean_angle_max, ell)
    lo = min(max(r0, y), z)
    hi = min(max(r1, y), z)

    def anti(v: float) -> float:
        if v == 0.0:
            return -0.5 * ell * np.log(ell * ell) / model.delta_mean
        return (
            (np.pi + offset - model.mean_angle_min) * v
            - 0.5 * ell * np.log(ell * ell + v * v)
            - v * np.arctan(ell / v)
        ) / model.delta_mean

    return (z - hi) + anti(hi) - anti(lo)


def band_measure(
    y: float, model: MobilityModel, led: LedGeometry, th: FeedbackThresholds, subset: str
) -> float:
    """Integral over [y, range end] of the probability the mean angle is in the set's bands.

    ``subset`` is ``"weak"`` (range end d_max) or ``"strong"`` (range end d_th).
    """
    _, z, floor, cap = _twobit_set(model, led, th, subset)
    return sum(
        ramp_cdf_integral(hi, y, z, model, led) - ramp_cdf_integral(lo, y, z, model, led)
        for lo, hi in _mean_offsets(floor, cap)
    )


def _cdf_twobit_mean(x, model, led, th, subset: str):
    r_lo, r_hi, floor, cap = _twobit_set(model, led, th, subset)
    den = _set_mass(band_measure(r_lo, model, led, th, subset), model, subset)
    below = _band_integral(model, led, r_lo, r_hi, floor, cap, clears=False, on_mean=True)

    def one(xi: float) -> float:
        # Beyond this radius no orientation clears the level: the whole band is below it.
        split = edge_gain_distance(xi, led, cos_sq=1.0, lo=r_lo, hi=r_hi)
        total = band_measure(split, model, led, th, subset) + below(xi, split) / model.delta_mean
        return total / den

    return _per_level(x, one)


def cdf_weak_twobit_mean(x, model: MobilityModel, led: LedGeometry, th: FeedbackThresholds):
    """Gain CDF in the weak set of mean-orientation two-bit feedback.

    Membership uses the mean incidence angle, so the instantaneous angle can
    still fall outside the field of view: the distribution has an atom at
    zero gain.
    """
    return _cdf_twobit_mean(x, model, led, th, "weak")


def cdf_strong_twobit_mean(x, model: MobilityModel, led: LedGeometry, th: FeedbackThresholds):
    """Gain CDF in the strong set of mean-orientation two-bit feedback."""
    return _cdf_twobit_mean(x, model, led, th, "strong")


def _ranked_family(x, model, led, *, total_users=None, k_min=None, rank=None, **_):
    rank = ordered_rank(total_users, k_min, rank)
    return cdf_gain_ranked(x, rank, model, led, total_users=total_users, k_min=k_min)


def _set_family(name: str):
    def cdf(x, model, led, *, thresholds=None, **_):
        if thresholds is None:
            raise InvalidParameterError("set-conditioned families need feedback thresholds")
        return globals()[name](x, model, led, thresholds)

    return cdf


# The six families as level-vectorized CDFs called alike,
# ``cdf(x, model, led, *, thresholds, total_users, k_min, rank)``; each
# reads the conditioning it needs and ignores the rest.  The ordered family
# ranks among ``total_users`` users of which at least ``k_min`` are lit, at
# ``rank`` (default ``k_min``).  Entries look the public ``cdf_*`` functions up
# at call time, so rebinding one of those module names reaches every dispatch.
CDF_FAMILIES = {
    "unordered": lambda x, model, led, **_: cdf_gain_unordered(x, model, led),
    "ordered": _ranked_family,
    "twobit_inst_weak": _set_family("cdf_weak_twobit_inst"),
    "twobit_inst_strong": _set_family("cdf_strong_twobit_inst"),
    "twobit_mean_weak": _set_family("cdf_weak_twobit_mean"),
    "twobit_mean_strong": _set_family("cdf_strong_twobit_mean"),
}
