"""The frequency-scan resolution law of the echo model.

At p0 = (0, 0, 3) m and M = 128, the scan (x) channel's azimuth half-power width times the
range half-power width is 0.22 sin(theta_max) c / B, for a 3 cm and a 12 cm antenna and a
scan of +-7.5 to +-60 deg; the azimuth width is set by the antenna length alone. A
Gaussian window of the band, lit by the two-way Gaussian gain, gives ln(2)/pi = 0.2206
for the constant and lambda / (2 sqrt(2) L) for the azimuth width (see the README's
"Known model limitation"). Both channels' similarities are computed here from
``synth.echo``; at x = y = 0 the two channels see the same range curve.
"""

import functools
import math

import numpy as np
import pytest

from sweepsense.core import SPEED_OF_LIGHT, FrequencyPlan
from sweepsense.dispersion import LinearSineDispersion
from sweepsense.fingerprint import half_power_width
from sweepsense.synth import AntennaModel, echo

PLAN = FrequencyPlan(60e9, 66e9, 128)
P0 = np.array([0.0, 0.0, 3.0])
LENGTHS = (0.03, 0.12)
SCANS_DEG = (7.5, 15.0, 30.0, 60.0)
# Offsets from 0 outward in steps of 0.4 % of their size, so the interpolated crossing
# is far finer than the bands below.
ANGLES = np.geomspace(1e-6, 0.3, 3000)  # rad
RANGES = np.geomspace(1e-5, 2.0, 3000)  # m


def channel_similarities(positions, model, antenna) -> np.ndarray:
    """|<e_c(p), e_c(p0)>| of each channel's unit-normalized echo, shape (K, 2)."""
    e = echo(np.vstack([P0, positions]), PLAN, model, antenna)
    e /= np.linalg.norm(e, axis=-1, keepdims=True)
    return np.abs(np.einsum("kcm,cm->kc", e[1:], np.conj(e[0])))


@functools.cache
def widths(length, scan_deg) -> tuple[float, float]:
    """(scan channel's azimuth width in rad, range width in m) at p0."""
    model = LinearSineDispersion.for_plan(PLAN, math.radians(scan_deg))
    antenna = AntennaModel(length)
    rotated = np.column_stack([3.0 * np.sin(ANGLES), np.zeros_like(ANGLES),
                               3.0 * np.cos(ANGLES)])
    azimuth = channel_similarities(rotated, model, antenna)
    ranged = channel_similarities(P0 * (1.0 + RANGES / 3.0)[:, None], model, antenna)
    np.testing.assert_array_equal(ranged[:, 0], ranged[:, 1])
    return half_power_width(ANGLES, azimuth[:, 0]), half_power_width(RANGES, ranged[:, 0])


@pytest.mark.parametrize("scan_deg", SCANS_DEG)
@pytest.mark.parametrize("length", LENGTHS)
def test_azimuth_times_range_width_is_0_22_sin_theta_max_c_over_b(length, scan_deg):
    azimuth, range_ = widths(length, scan_deg)
    scale = math.sin(math.radians(scan_deg)) * SPEED_OF_LIGHT / (PLAN.f_max - PLAN.f_min)
    assert azimuth * range_ / scale == pytest.approx(0.22, rel=0.03)


@pytest.mark.parametrize("length", LENGTHS)
def test_azimuth_width_depends_on_the_antenna_length_only(length):
    azimuth = np.array([widths(length, scan)[0] for scan in SCANS_DEG])
    np.testing.assert_allclose(azimuth, azimuth.mean(), rtol=0.02)
    wavelength = SPEED_OF_LIGHT / 63e9  # at broadside, the middle of the band
    np.testing.assert_allclose(azimuth, wavelength / (2.0 * math.sqrt(2.0) * length), rtol=0.02)
