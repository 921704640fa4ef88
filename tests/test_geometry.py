"""LED geometry, Lambertian gains, and the channel constant."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import (
    InvalidParameterError,
    LedGeometry,
    channel_constant,
    dc_gain,
    incidence_angle,
    lambertian_order,
    mean_dc_gain,
)


class TestLambertianOrder:
    def test_sixty_degree_half_power_gives_order_one(self):
        assert lambertian_order(np.radians(60.0)) == pytest.approx(1.0, rel=1e-12)

    def test_narrower_beam_raises_order(self):
        assert lambertian_order(np.radians(30.0)) > lambertian_order(np.radians(60.0))

    def test_invalid_half_angle_rejected(self):
        with pytest.raises(InvalidParameterError):
            lambertian_order(0.0)
        with pytest.raises(InvalidParameterError):
            lambertian_order(np.pi / 2)


class TestLedGeometry:
    def test_order_derived_automatically(self, led_fov50):
        assert led_fov50.lambertian_m == pytest.approx(1.0, rel=1e-12)

    def test_new_beamwidth_recomputes_order(self, led_fov50):
        narrow = dataclasses.replace(led_fov50, phi_hpbw=np.radians(30.0))
        assert narrow.lambertian_m == lambertian_order(np.radians(30.0))
        assert narrow.lambertian_m == pytest.approx(4.8188, rel=1e-4)

    def test_order_is_not_an_argument(self):
        with pytest.raises(TypeError):
            LedGeometry(ell=2.0, phi_hpbw=1.0, area_r=1e-4, theta_fov=1.0, lambertian_m=2.0)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(InvalidParameterError):
            LedGeometry(ell=-1.0, phi_hpbw=1.0, area_r=1e-4, theta_fov=1.0)
        with pytest.raises(InvalidParameterError):
            LedGeometry(ell=2.0, phi_hpbw=1.0, area_r=0.0, theta_fov=1.0)
        with pytest.raises(InvalidParameterError):
            LedGeometry(ell=2.0, phi_hpbw=1.0, area_r=1e-4, theta_fov=0.0)


class TestAngles:
    def test_led_facing_orientation_gives_normal_incidence(self):
        for d in (0.0, 2.0, 7.5):
            facing = np.pi - np.arctan2(2.0, d)
            assert incidence_angle(d, facing, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_tilt_shifts_incidence_linearly(self):
        facing = np.pi - np.arctan2(2.0, 3.0)
        delta = 0.3
        assert incidence_angle(3.0, facing + delta, 2.0) == pytest.approx(-delta, rel=1e-12)
        assert incidence_angle(3.0, facing - delta, 2.0) == pytest.approx(delta, rel=1e-12)

    @pytest.mark.parametrize("ell", [2.0, 0.5, 3.7, 1e-300, 1e300])
    def test_bits_of_the_scalar_ell_formula(self, ell):
        """arctan2 of ell filled into an array gives the bits of arctan2 of the scalar ell."""
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 10.0, 4099)
        # zero, subnormal, smallest normal, tiny, huge and infinite distances,
        # in the vector loop's body and in its tail
        edges = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, np.inf]
        d[rng.choice(4096, 600, replace=False)] = np.resize(edges, 600)
        d[-3:] = edges[-3:]
        phi = np.array([[-0.4], [0.0], [1.1], [np.pi + 0.4]])
        want = np.pi - np.arctan2(ell, d) - phi
        assert_bit_equal(incidence_angle(d, phi, ell, out=np.empty(want.shape)), want)
        assert_bit_equal(incidence_angle(d, phi, ell), want)


def full_array_gain(d, phi, led):
    """Reference: the gain formula on every entry, then masked to the field of view."""
    d = np.asarray(d, dtype=float)
    theta = incidence_angle(d, phi, led.ell)
    m = led.lambertian_m
    cos_irr = led.ell / np.sqrt(led.ell**2 + d * d)
    base = (m + 1) * led.area_r / (2 * np.pi * (led.ell**2 + d * d))
    gain = base * cos_irr**m * np.cos(theta)
    return np.where(np.abs(theta) <= led.theta_fov, gain, 0.0)


def assert_bit_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestDcGain:
    @pytest.mark.parametrize("led_name", ["led_fov50", "led_fov60", "led_fov90"])
    def test_lit_only_matches_full_array_formula(self, led_name, request):
        led = request.getfixturevalue(led_name)
        rng = np.random.default_rng(7)
        d = rng.uniform(0.0, 10.0, 100_000)
        d[::97] = 0.0
        phi = rng.uniform(0.0, np.pi, 100_000)
        assert_bit_equal(dc_gain(d, phi, led), full_array_gain(d, phi, led))
        grid = (d.reshape(400, 250), phi[:250])
        assert_bit_equal(dc_gain(*grid, led), full_array_gain(*grid, led))

    def test_all_dark_gives_zeros_of_input_shape(self, led_fov50):
        gain = dc_gain(np.full((3, 4), 5.0), np.full((3, 4), 0.2), led_fov50)
        assert_bit_equal(gain, np.zeros((3, 4)))

    def test_scalar_inputs(self, led_fov50):
        lit = np.pi - np.arctan2(2.0, 3.0)
        for d, phi in ((5.0, 0.2), (3.0, lit), (0.0, np.pi / 2), (np.float64(3.0), lit)):
            gain = dc_gain(d, phi, led_fov50)
            assert_bit_equal(gain, full_array_gain(d, phi, led_fov50))
            assert (gain == 0.0) != (gain > 0.0)

    def test_scalar_distance_broadcasts_against_angles(self, led_fov50):
        phi = np.linspace(0.0, np.pi, 1001)
        gain = dc_gain(3.0, phi, led_fov50)
        assert gain.shape == phi.shape and np.count_nonzero(gain) > 0
        assert_bit_equal(gain, full_array_gain(3.0, phi, led_fov50))

    def test_gain_zero_outside_fov(self, led_fov50):
        assert dc_gain(5.0, 0.2, led_fov50) == 0.0

    def test_gain_positive_inside_fov(self, led_fov50):
        theta = np.pi - np.arctan2(2.0, 3.0)
        assert dc_gain(3.0, theta, led_fov50) > 0.0

    def test_gain_identity_with_channel_constant(self, led_fov50):
        h_c, upsilon = channel_constant(led_fov50)
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = rng.uniform(0.0, 10.0)
            phi = rng.uniform(np.radians(25), np.radians(155))
            theta = incidence_angle(d, phi, led_fov50.ell)
            if abs(theta) > led_fov50.theta_fov:
                continue
            h = dc_gain(d, phi, led_fov50)
            assert h * h * upsilon(d) == pytest.approx(np.cos(theta) ** 2, rel=1e-12)

    def test_vectorized_matches_scalar(self, led_fov50):
        rng = np.random.default_rng(1)
        d = rng.uniform(0, 10, 50)
        phi = rng.uniform(0, np.pi, 50)
        batch = dc_gain(d, phi, led_fov50)
        singles = np.array([dc_gain(di, pi_, led_fov50) for di, pi_ in zip(d, phi)])
        np.testing.assert_allclose(batch, singles, rtol=1e-14)

    @given(st.floats(0.0, 10.0), st.floats(0.0, np.pi))
    @settings(max_examples=100, deadline=None)
    def test_gain_nonnegative_and_bounded(self, d, phi):
        led = LedGeometry(ell=2.0, phi_hpbw=np.radians(60), area_r=1e-4, theta_fov=np.radians(90))
        h_c, upsilon = channel_constant(led)
        h = dc_gain(d, phi, led)
        assert h >= 0.0
        assert h * h <= 1.0 / upsilon(d) + 1e-25


class TestMeanDcGain:
    def test_equals_instantaneous_at_mean(self, led_fov50):
        d, phi = 4.0, np.radians(120)
        inst = dc_gain(d, phi, led_fov50)
        assert mean_dc_gain(d, phi, led_fov50) == pytest.approx(inst, rel=1e-12)

    def test_folds_negative_cosine(self, led_fov90):
        # at the edge of a 90-degree field of view the incidence cosine is
        # still nonnegative, so the mean gain needs no absolute value
        d = 0.1
        phi = np.pi - np.arctan2(led_fov90.ell, d) + led_fov90.theta_fov - 1e-3
        assert mean_dc_gain(d, phi, led_fov90) >= 0.0
