"""Optical geometry and line-of-sight DC channel gain for one LED and one mobile receiver.

The LED points straight down from height ``ell`` above the receiver plane.
A receiver at horizontal distance ``d`` holds its detector tilted by a
vertical angle ``phi`` measured from the horizontal, so the light arrives
at incidence angle ``pi - atan(ell/d) - phi`` relative to the detector
normal.  Gain is zero outside the detector's field-of-view half-angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, require_finite

__all__ = [
    "LedGeometry",
    "lambertian_order",
    "incidence_angle",
    "lit_mask",
    "lit_gain",
    "dc_gain",
    "mean_dc_gain",
    "channel_constant",
]


def lambertian_order(phi_hpbw: float) -> float:
    """Lambertian mode number of an LED with half-power beamwidth ``phi_hpbw`` (radians)."""
    if not 0.0 < phi_hpbw < np.pi / 2:
        raise InvalidParameterError(
            f"half-power beamwidth must lie in (0, pi/2), got {phi_hpbw}"
        )
    cos_hpbw = np.cos(phi_hpbw)
    if cos_hpbw >= 1.0:
        raise InvalidParameterError(
            f"half-power beamwidth {phi_hpbw} rad is too narrow: its cosine rounds to 1"
        )
    return -1.0 / np.log2(cos_hpbw)


@dataclass(frozen=True)
class LedGeometry:
    """Fixed link parameters: LED height, beamwidth, detector area and field of view.

    Angles are radians.  ``lambertian_m`` is always derived from ``phi_hpbw``,
    so a copy with a new beamwidth gets its own order.  ``theta_fov`` may equal
    pi/2 (a hemisphere of acceptance).
    """

    ell: float
    phi_hpbw: float
    area_r: float
    theta_fov: float
    lambertian_m: float = field(init=False)

    def __post_init__(self):
        require_finite(self, "ell", "phi_hpbw", "area_r", "theta_fov")
        if self.ell <= 0 or self.area_r <= 0:
            raise InvalidParameterError("LED height and detector area must be positive")
        if not 0.0 < self.theta_fov <= np.pi / 2:
            raise InvalidParameterError("field-of-view half-angle must lie in (0, pi/2]")
        object.__setattr__(self, "lambertian_m", lambertian_order(self.phi_hpbw))
        require_finite(self, "lambertian_m")
        if self.lambertian_m <= 0:
            raise InvalidParameterError("Lambertian order must be positive")


def incidence_angle(d, phi, ell: float, out=None):
    """Angle between the arriving ray and the detector normal, radians.

    May be negative; only its magnitude matters for the field-of-view gate.
    ``d = 0`` is allowed (receiver directly beneath the LED).  With ``out``,
    an array of the broadcast shape, the angle is computed in it.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(d), np.shape(phi)))
    # arctan2 of an array of ell takes numpy's contiguous loop, twice as fast
    # as its strided one for a scalar, with the same bits.
    out.fill(ell)
    np.arctan2(out, d, out=out)
    np.subtract(np.pi, out, out=out)
    return np.subtract(out, phi, out=out)


def lit_mask(theta, theta_fov: float, out=None):
    """Receivers inside the field of view: ``|theta| <= theta_fov``, as two bounds on ``theta``.

    ``out``, a boolean array of ``theta``'s shape, receives the mask.
    """
    lit = np.less_equal(theta, theta_fov, out=out)
    lit &= theta >= -theta_fov
    return lit


def lit_gain(d, theta, lit, led: LedGeometry, out=None, work=None):
    """:func:`dc_gain` from the incidence angle ``theta`` and its :func:`lit_mask` ``lit``.

    ``d``, ``theta`` and ``lit`` share one shape; only the lit receivers pay for
    the emission and incidence factors, the rest stay exactly zero.  ``out``, a
    contiguous array of that shape that shares no memory with them, receives
    the gain and, until then, holds one factor.  ``work``, a 1-D float array of
    at least ``lit.size`` entries, holds the other.
    """
    # Flat indices gather and scatter far faster than a boolean mask.
    lit = np.flatnonzero(lit)
    m = led.lambertian_m
    if out is None:
        out = np.empty(np.shape(theta))
    # In place in two arrays of the lit receivers, in the order of
    # (m + 1) A / (2 pi rho^2) * (ell / rho)^m * cos(theta) with rho^2 = ell^2 + d^2.
    rho_sq = np.take(d, lit, out=None if work is None else work[: lit.size], mode="clip")
    rho_sq *= rho_sq
    rho_sq += led.ell**2
    factor = np.sqrt(rho_sq, out=out.reshape(-1)[: lit.size])
    np.divide(led.ell, factor, out=factor)
    factor **= m
    rho_sq *= 2 * np.pi
    gain = np.divide((m + 1) * led.area_r, rho_sq, out=rho_sq)
    gain *= factor
    gain *= np.cos(np.take(theta, lit, out=factor, mode="clip"), out=factor)
    out.fill(0.0)
    np.put(out, lit, gain)
    return out


def dc_gain(d, phi, led: LedGeometry):
    """Line-of-sight DC channel gain at distance ``d`` and vertical angle ``phi``.

    Product of the Lambertian emission factor cos^m of the irradiance angle,
    the detector aperture factor, and the cosine of the incidence angle; zero
    outside the field of view.  ``d`` and ``phi`` broadcast.  It is
    :func:`lit_gain` of the angle from :func:`incidence_angle`.
    """
    d, phi = np.broadcast_arrays(np.asarray(d, dtype=float), phi)
    theta = incidence_angle(d, phi, led.ell)
    return lit_gain(d, theta, lit_mask(theta, led.theta_fov), led)


def mean_dc_gain(d, mean_angle, led: LedGeometry):
    """DC gain at the mean vertical angle: :func:`dc_gain` with the mean angle as ``phi``."""
    return dc_gain(d, mean_angle, led)


def channel_constant(led: LedGeometry):
    """Gain normalization pair (h_c, upsilon).

    ``h_c = (m+1) A_r ell^m / (2 pi)`` and ``upsilon(d) = (ell^2+d^2)^(m+2) / h_c^2``
    satisfy ``dc_gain^2 = cos^2(theta) / upsilon(d)`` whenever the receiver is
    inside the field of view.
    """
    m = led.lambertian_m
    h_c = (m + 1) * led.area_r * led.ell**m / (2 * np.pi)

    def upsilon(d):
        return (led.ell**2 + np.square(np.asarray(d, dtype=float))) ** (m + 2) / (h_c * h_c)

    return h_c, upsilon
