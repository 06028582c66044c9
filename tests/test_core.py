"""Core types: frequency grid, geometry, validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepsense.core import (
    SPEED_OF_LIGHT,
    ChannelAxis,
    ChirpConfig,
    FrequencyPlan,
    GeometryError,
    Measurement,
    NoiseConfig,
    Scene,
    Target,
    frequency_grid,
    range_of,
)


def test_speed_of_light_is_exact_si():
    assert SPEED_OF_LIGHT == 299_792_458.0


class TestFrequencyGrid:
    def test_single_point_is_band_midpoint(self):
        grid = frequency_grid(FrequencyPlan(60e9, 66e9, 1))
        assert grid.shape == (1,)
        assert grid[0] == pytest.approx(63e9, rel=1e-15)

    def test_128_point_band_edges(self):
        # closed form: f[i] = f_min + (i + 1/2) * 6 GHz / 128
        grid = frequency_grid(FrequencyPlan(60e9, 66e9, 128))
        assert grid[0] == pytest.approx(60.0234375e9, rel=1e-15)
        assert grid[-1] == pytest.approx(65.9765625e9, rel=1e-15)

    def test_two_points_are_quartiles(self):
        grid = frequency_grid(FrequencyPlan(60e9, 66e9, 2))
        assert grid == pytest.approx([61.5e9, 64.5e9], rel=1e-15)

    @given(
        f_min=st.floats(1e6, 1e11),
        band=st.floats(1e3, 1e10),
        n=st.integers(1, 512),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_and_inside_band(self, f_min, band, n):
        plan = FrequencyPlan(f_min, f_min + band, n)
        grid = frequency_grid(plan)
        assert np.all(np.diff(grid) > 0.0) or n == 1
        assert np.all(grid > plan.f_min)
        assert np.all(grid < plan.f_max)

    @given(
        f_min=st.floats(1e6, 1e11),
        band=st.floats(1e3, 1e10),
        n=st.integers(1, 256),
    )
    @settings(max_examples=200, deadline=None)
    def test_midpoint_symmetry(self, f_min, band, n):
        plan = FrequencyPlan(f_min, f_min + band, n)
        grid = frequency_grid(plan)
        np.testing.assert_allclose(grid + grid[::-1], plan.f_min + plan.f_max, rtol=1e-12)

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            FrequencyPlan(66e9, 60e9, 8)
        with pytest.raises(ValueError):
            FrequencyPlan(0.0, 60e9, 8)
        with pytest.raises(ValueError):
            FrequencyPlan(60e9, 66e9, 0)

    @pytest.mark.parametrize("f_min, f_max, message", [
        (60e9, math.inf, "f_max must be finite"),
        (math.nan, 66e9, "need 0 < f_min < f_max, got f_min=nan, f_max=66000000000.0"),
        (60e9, math.nan, "need 0 < f_min < f_max, got f_min=60000000000.0, f_max=nan"),
    ])
    def test_non_finite_band_rejected(self, f_min, f_max, message):
        with pytest.raises(ValueError) as exc:
            FrequencyPlan(f_min, f_max, 8)
        assert str(exc.value) == message


class TestRangeOf:
    @pytest.mark.parametrize(
        "pos,expected",
        [((0, 0, 3), 3.0), ((1, 2, 2), 3.0), ((0.3, 0.4, 1.2), 1.3)],
    )
    def test_known_values(self, pos, expected):
        assert range_of(pos) == pytest.approx(expected, rel=1e-15)

    def test_zero_vector_is_degenerate(self):
        with pytest.raises(GeometryError):
            range_of((0.0, 0.0, 0.0))

    @pytest.mark.parametrize("pos", [(0.0, 0.0, 1e200), (1e154, 1e154, 1e154),
                                     [(0.0, 0.0, 3.0), (-1e300, 0.0, 1.0)]])
    def test_range_beyond_a_double_is_degenerate(self, pos):
        with pytest.raises(GeometryError, match="no finite nonzero range"):
            range_of(pos)

    def test_largest_finite_range(self):
        assert range_of((1e154, 0.0, 1.0)) == 1e154

    @given(
        x=st.floats(-10, 10),
        y=st.floats(-10, 10),
        z=st.floats(-10, 10),
        a=st.floats(0, 2 * math.pi),
        b=st.floats(0, 2 * math.pi),
        c=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotation_invariance(self, x, y, z, a, b, c):
        p = np.array([x, y, z])
        if np.linalg.norm(p) == 0.0:
            return
        rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
        ry = np.array([[math.cos(b), 0, math.sin(b)], [0, 1, 0], [-math.sin(b), 0, math.cos(b)]])
        rx = np.array([[1, 0, 0], [0, math.cos(c), -math.sin(c)], [0, math.sin(c), math.cos(c)]])
        q = rz @ ry @ rx @ p
        if np.linalg.norm(q) == 0.0:
            return
        assert range_of(q) == pytest.approx(range_of(p), rel=1e-10)


class TestChirpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChirpConfig(duration=-1.0)
        with pytest.raises(ValueError):
            ChirpConfig(n_samples=1)
        with pytest.raises(ValueError):
            ChirpConfig(slope=0.0)

    @pytest.mark.parametrize("field, message", [
        ("duration", "chirp duration must be positive"),
        ("guard", "guard interval must be >= 0"),
        ("slope", "chirp slope must be positive"),
        ("sample_rate", "sample rate must be positive"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_value_rejected(self, field, message, value):
        with pytest.raises(ValueError) as exc:
            ChirpConfig(**{field: value})
        assert str(exc.value) == message


class TestTargetAndScene:
    def test_refl_y_defaults_to_refl_x(self):
        t = Target((0, 0, 1), refl_x=2.0 - 1.0j)
        assert t.refl_y == 2.0 - 1.0j

    def test_behind_antenna_rejected(self):
        with pytest.raises(GeometryError):
            Target((0, 0, -1.0))
        with pytest.raises(GeometryError):
            Target((1.0, 0, 0.0))

    def test_position_of_two_components_rejected(self):
        with pytest.raises(GeometryError, match="exactly 3 components"):
            Target((0.0, 3.0))

    def test_origin_rejected(self):
        with pytest.raises(GeometryError):
            Target((0.0, 0.0, 0.0))

    def test_empty_scene_is_legal(self):
        scene = Scene()
        assert scene.targets == ()
        assert scene.noise.snr_db is None

    def test_channel_angles(self):
        p = (1.0, -1.0, 1.0)
        assert ChannelAxis.X_SCAN.target_angle(p) == pytest.approx(math.pi / 4)
        assert ChannelAxis.Y_SCAN.target_angle(p) == pytest.approx(-math.pi / 4)


class TestMeasurement:
    def test_length_must_match_plan(self):
        plan = FrequencyPlan(60e9, 66e9, 4)
        with pytest.raises(ValueError):
            Measurement(plan, np.zeros(3, complex), np.zeros(4, complex))

    def test_vectors_are_read_only(self):
        plan = FrequencyPlan(60e9, 66e9, 2)
        meas = Measurement(plan, np.zeros(2, complex), np.zeros(2, complex))
        with pytest.raises(ValueError):
            meas.s_x[0] = 1.0


def test_noise_seed_range():
    with pytest.raises(ValueError):
        NoiseConfig(snr_db=10.0, seed=-1)
    assert NoiseConfig(snr_db=10.0, seed=2**64 - 1).seed == 2**64 - 1
