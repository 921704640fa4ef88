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
    "UserState",
    "lambertian_order",
    "incidence_angle",
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


@dataclass(frozen=True)
class UserState:
    """One sampled receiver: horizontal distance, mean vertical angle, instantaneous angle."""

    dist: float
    mean_angle: float
    inst_angle: float


def incidence_angle(d, phi, ell: float):
    """Angle between the arriving ray and the detector normal, radians.

    May be negative; only its magnitude matters for the field-of-view gate.
    ``d = 0`` is allowed (receiver directly beneath the LED).
    """
    return np.pi - np.arctan2(ell, d) - phi


def dc_gain(user: UserState, led: LedGeometry):
    """Line-of-sight DC channel gain for one receiver; zero outside the field of view.

    Product of the Lambertian emission factor cos^m of the irradiance angle,
    the detector aperture factor, and the cosine of the incidence angle.
    Accepts array-valued ``dist``/``inst_angle`` inside ``user`` and
    broadcasts.  Only receivers inside the field of view pay for the
    emission and incidence factors; the rest stay exactly zero.
    """
    d, phi = np.broadcast_arrays(np.asarray(user.dist, dtype=float), user.inst_angle)
    theta = incidence_angle(d, phi, led.ell)
    # Flat indices gather and scatter far faster than a boolean mask.
    lit = np.flatnonzero(np.abs(theta) <= led.theta_fov)
    d = np.take(d, lit)
    m = led.lambertian_m
    rho_sq = led.ell**2 + d * d
    cos_irr = led.ell / np.sqrt(rho_sq)
    base = (m + 1) * led.area_r / (2 * np.pi * rho_sq)
    gain = np.zeros(theta.size)
    gain[lit] = base * cos_irr**m * np.cos(np.take(theta, lit))
    return gain.reshape(theta.shape)


def mean_dc_gain(d, mean_angle, led: LedGeometry):
    """DC gain evaluated at the mean vertical angle instead of the instantaneous one.

    This is the mean-angle feedback metric: :func:`dc_gain` of the same
    receiver with its mean angle in place of the instantaneous one.
    """
    return dc_gain(UserState(d, mean_angle, mean_angle), led)


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
