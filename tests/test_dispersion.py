"""Dispersion models and the virtual aperture they scan."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepsense.core import FrequencyPlan, frequency_grid
from sweepsense.dispersion import LinearSineDispersion, LookupTableDispersion
from sweepsense.synth import AntennaModel, echo

PLAN = FrequencyPlan(60e9, 66e9, 128)
MODEL = LinearSineDispersion.for_plan(PLAN)


class TestLinearSine:
    def test_band_center_is_broadside(self):
        assert MODEL.beam_angle(63e9) == pytest.approx(0.0, abs=1e-12)

    def test_band_edges_hit_scan_limits(self):
        assert MODEL.beam_angle(60e9) == pytest.approx(-math.radians(60), rel=1e-12)
        assert MODEL.beam_angle(66e9) == pytest.approx(math.radians(60), rel=1e-12)

    def test_quarter_band_closed_form(self):
        # asin(sin(60 deg) * -0.5) = -0.4478323969 rad = -25.6589 deg
        theta = MODEL.beam_angle(61.5e9)
        assert theta == pytest.approx(-0.44783239692893245, rel=1e-12)
        assert math.degrees(theta) == pytest.approx(-25.65890627, rel=1e-8)

    def test_out_of_band_rejected(self):
        with pytest.raises(ValueError, match="outside calibrated band"):
            MODEL.beam_angle(59.9e9)
        with pytest.raises(ValueError, match="outside calibrated band"):
            MODEL.beam_angle(66.1e9)

    def test_sine_is_linear_in_frequency(self):
        # independent check of the mapping: sin(theta) interpolates linearly
        f = np.linspace(60e9, 66e9, 13)
        s = np.sin(MODEL.beam_angle(f))
        expected = np.sin(math.radians(60)) * (2 * (f - 60e9) / 6e9 - 1)
        np.testing.assert_allclose(s, expected, atol=1e-12)

    @given(
        f1=st.floats(60e9, 66e9),
        f2=st.floats(60e9, 66e9),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, f1, f2):
        if f1 == f2:
            return
        lo, hi = min(f1, f2), max(f1, f2)
        assert MODEL.beam_angle(lo) < MODEL.beam_angle(hi)

    @given(f=st.floats(60e9, 66e9))
    @settings(max_examples=200, deadline=None)
    def test_mirror_symmetry(self, f):
        assert MODEL.beam_angle(60e9 + 66e9 - f) == pytest.approx(
            -MODEL.beam_angle(f), abs=1e-12
        )

    def test_invalid_angles_rejected(self):
        with pytest.raises(ValueError):
            LinearSineDispersion(60e9, 66e9, math.radians(30), math.radians(20))
        with pytest.raises(ValueError):
            LinearSineDispersion(60e9, 66e9, -math.pi / 2, math.radians(60))


@pytest.mark.parametrize("make, message", [
    (lambda: LinearSineDispersion(66e9, 60e9, -1.0, 1.0), "need 0 < f_min < f_max"),
    (lambda: LookupTableDispersion(np.array([60e9, 66e9]), np.array([-1.0, 0.0, 1.0])),
     "need matching 1-D frequency/angle arrays with >= 2 rows"),
    (lambda: LookupTableDispersion(np.array([60e9]), np.array([0.0])),
     "need matching 1-D frequency/angle arrays with >= 2 rows"),
    (lambda: LookupTableDispersion(np.array([60e9, 66e9]), np.array([0.0, math.pi / 2])),
     "lookup angles must lie within (-pi/2, pi/2)"),
    (lambda: LinearSineDispersion(60e9, math.inf, -1.0, 1.0), "f_max must be finite"),
    (lambda: LookupTableDispersion(np.array([60e9, math.inf]), np.array([0.0, 0.1])),
     "lookup frequencies must be finite"),
    (lambda: LookupTableDispersion(np.array([-math.inf, 60e9]), np.array([0.0, 0.1])),
     "lookup frequencies must be finite"),
])
def test_model_out_of_range_rejected(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


class TestLookupTable:
    def make(self):
        f = np.linspace(60e9, 66e9, 7)
        a = np.radians(np.linspace(-60, 60, 7))
        return LookupTableDispersion(f, a)

    def test_interpolates_linearly(self):
        model = self.make()
        assert model.beam_angle(60.5e9) == pytest.approx(math.radians(-50), rel=1e-12)
        assert model.beam_angle(63e9) == pytest.approx(0.0, abs=1e-12)

    def test_band_is_table_span(self):
        model = self.make()
        with pytest.raises(ValueError, match="outside calibrated band"):
            model.beam_angle(59e9)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            LookupTableDispersion(
                np.array([60e9, 61e9, 60.5e9]), np.radians([-60, 0, 60])
            )
        with pytest.raises(ValueError):
            LookupTableDispersion(
                np.array([60e9, 61e9, 62e9]), np.radians([-60, 10, 5])
            )

    def test_from_csv(self, tmp_path):
        path = tmp_path / "disp.csv"
        path.write_text(
            "frequency_hz,angle_deg\n60e9,-60\n63e9,0\n66e9,60\n"
        )
        model = LookupTableDispersion.from_csv(path)
        assert model.beam_angle(63e9) == pytest.approx(0.0, abs=1e-12)
        assert model.beam_angle(64.5e9) == pytest.approx(math.radians(30), rel=1e-12)

    def test_from_csv_requires_header(self, tmp_path):
        path = tmp_path / "disp.csv"
        path.write_text("60e9,-60\n66e9,60\n")
        with pytest.raises(ValueError, match="header"):
            LookupTableDispersion.from_csv(path)

    def test_from_csv_reports_bad_line(self, tmp_path):
        path = tmp_path / "disp.csv"
        path.write_text("frequency_hz,angle_deg\n60e9,-60\nnot-a-number,0\n")
        with pytest.raises(ValueError, match="line 3"):
            LookupTableDispersion.from_csv(path)


class TestVirtualAperture:
    """The scanned aperture: the plan's frequency grid through a dispersion model."""

    def test_single_element(self):
        plan = FrequencyPlan(60e9, 66e9, 1)
        freqs = frequency_grid(plan)
        angles = np.atleast_1d(LinearSineDispersion.for_plan(plan).beam_angle(freqs))
        assert freqs.shape == angles.shape == (1,)
        assert freqs[0] == pytest.approx(63e9, rel=1e-15)
        assert angles[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_elements_symmetric(self):
        plan = FrequencyPlan(60e9, 66e9, 2)
        angles = LinearSineDispersion.for_plan(plan).beam_angle(frequency_grid(plan))
        # asin(sin(60 deg) / 2) = 0.4478323969 rad
        assert angles[0] == pytest.approx(-0.44783239692893245, rel=1e-12)
        assert angles[1] == pytest.approx(+0.44783239692893245, rel=1e-12)

    def test_full_sweep_monotone_and_consistent(self):
        freqs = frequency_grid(PLAN)
        angles = MODEL.beam_angle(freqs)
        assert angles.shape == (128,)
        assert np.all(np.diff(angles) > 0.0)
        # edge elements: asin(sin(60 deg) * 127/128) = 59.2335 deg
        assert math.degrees(angles[0]) == pytest.approx(-59.23354998719348, rel=1e-10)
        assert math.degrees(angles[-1]) == pytest.approx(59.23354998719348, rel=1e-10)
        np.testing.assert_array_equal(angles, [MODEL.beam_angle(f) for f in freqs])

    def test_shared_schedule_across_axes(self):
        # Mirroring a target across x = y swaps the scan planes. With one angle
        # schedule for both channels, the x-channel echo of (a, b, z) is then
        # the y-channel echo of (b, a, z), and vice versa.
        positions = [(0.3, -0.1, 2.0), (-0.1, 0.3, 2.0)]
        echoes = echo(positions, PLAN, MODEL, AntennaModel(length=0.012))
        assert (np.abs(echoes).max(axis=-1) > 0.5).all()  # every channel is lit
        assert not np.array_equal(np.abs(echoes[0, 0]), np.abs(echoes[0, 1]))
        np.testing.assert_array_equal(echoes[0, 0], echoes[1, 1])
        np.testing.assert_array_equal(echoes[0, 1], echoes[1, 0])
