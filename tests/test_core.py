"""Core types: frequency grid, geometry, validation."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepsense import core
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
    write_text,
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
        with pytest.raises(GeometryError, match="needs z > 0 and a finite nonzero range"):
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
        # a rotation can carry a point out of the half-space z > 0, where range_of rejects it
        p = np.array([x, y, z])
        rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
        ry = np.array([[math.cos(b), 0, math.sin(b)], [0, 1, 0], [-math.sin(b), 0, math.cos(b)]])
        rx = np.array([[1, 0, 0], [0, math.cos(c), -math.sin(c)], [0, math.sin(c), math.cos(c)]])
        q = rz @ ry @ rx @ p
        for point in (p, q):
            if point[2] <= 0.0:
                with pytest.raises(GeometryError, match="needs z > 0"):
                    range_of(point)
        if p[2] > 0.0 and q[2] > 0.0 and np.linalg.norm(p) > 0.0 and np.linalg.norm(q) > 0.0:
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


class TestWriteText:
    @staticmethod
    def failing(blocks):
        """Yield ``blocks``, then fail as a block that cannot be drawn does."""
        yield from blocks
        raise ValueError("block 2")

    def test_existing_file_keeps_its_bytes_when_a_block_fails(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        with pytest.raises(ValueError, match="block 2"):
            write_text(path, self.failing([b"a\n", b"b\n"]))
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_missing_path_stays_missing_when_a_block_fails(self, tmp_path):
        with pytest.raises(ValueError, match="block 2"):
            write_text(tmp_path / "out.csv", self.failing([b"a\n"]))
        assert os.listdir(tmp_path) == []

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old\n")
        path.chmod(0o640)
        write_text(path, [b"a\n", b"b\n"])
        assert path.read_bytes() == b"a\nb\n"
        assert path.stat().st_mode & 0o777 == 0o640
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        (tmp_path / "by_open").write_bytes(b"")
        write_text(tmp_path / "out.csv", [b"a\n"])
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes["out.csv"] == modes["by_open"]

    def test_missing_directory_is_named_with_the_path(self, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        with pytest.raises(FileNotFoundError) as err:
            write_text(path, [b"a\n"])
        assert err.value.filename == str(path)

    @pytest.fixture
    def locked(self, tmp_path, monkeypatch):
        """``tmp_path`` as a directory this process may not create a file in: os.access
        says so, and opening a missing path there raises PermissionError, as the OS does
        for a user without write permission on it (the tests may run as root)."""
        real_access, real_open = os.access, open

        def access(path, mode):
            return os.fspath(path) != str(tmp_path) and real_access(path, mode)

        def locked_open(path, mode="r", *args, **kwargs):
            if os.path.dirname(path) == str(tmp_path) and not os.path.exists(path):
                raise PermissionError(13, "Permission denied", str(path))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(core.os, "access", access)
        monkeypatch.setattr(core, "open", locked_open, raising=False)
        return tmp_path

    def test_writable_file_in_a_locked_directory_is_written_in_place(self, locked):
        path = locked / "out.csv"
        path.write_bytes(b"old\n")
        inode = path.stat().st_ino
        write_text(path, [b"a\n", b"b\n"])
        assert path.read_bytes() == b"a\nb\n" and path.stat().st_ino == inode
        assert os.listdir(locked) == ["out.csv"]  # no *.tmp

    def test_missing_path_in_a_locked_directory_is_named(self, locked):
        path = locked / "out.csv"
        with pytest.raises(PermissionError) as err:
            write_text(path, [b"a\n"])
        assert err.value.filename == str(path) and os.listdir(locked) == []
