"""Frequency-to-beam-angle dispersion models.

A dispersion model maps chirp center frequency to the antenna's beam pointing
angle. Sweeping the frequency plan through a model, beam_angle(frequency_grid
(plan)), gives the virtual aperture: one pointing angle per frequency point,
one schedule shared by the two orthogonal channels in their own scan planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sweepsense.core import BandError, FrequencyPlan, read_table

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class LinearSineDispersion:
    """Beam angle whose sine varies linearly with frequency across the band.

    With the symmetric default theta_min = -theta_max this is
    theta(f) = asin(sin(theta_max) * (2 (f - f_min) / (f_max - f_min) - 1)).
    """

    f_min: float  # Hz
    f_max: float  # Hz
    theta_min: float  # rad
    theta_max: float  # rad

    def __post_init__(self) -> None:
        if not (0.0 < self.f_min < self.f_max):
            raise ValueError("need 0 < f_min < f_max")
        if math.isinf(self.f_max):
            raise ValueError("f_max must be finite")
        if not (-_HALF_PI < self.theta_min < self.theta_max < _HALF_PI):
            raise ValueError(
                "need -pi/2 < theta_min < theta_max < pi/2, got "
                f"[{self.theta_min}, {self.theta_max}]"
            )

    @classmethod
    def for_plan(
        cls,
        plan: FrequencyPlan,
        theta_max: float = math.radians(60.0),
        theta_min: float | None = None,
    ) -> "LinearSineDispersion":
        """Symmetric scan over the plan's band, +-theta_max by default."""
        if theta_min is None:
            theta_min = -theta_max
        return cls(plan.f_min, plan.f_max, theta_min, theta_max)

    @property
    def band(self) -> tuple[float, float]:
        return (self.f_min, self.f_max)

    def beam_angle(self, f):
        """Pointing angle (rad) at frequency f; accepts scalars or arrays."""
        f = np.asarray(f, dtype=float)
        _check_band(f, self.band)
        frac = (f - self.f_min) / (self.f_max - self.f_min)
        s_lo, s_hi = math.sin(self.theta_min), math.sin(self.theta_max)
        theta = np.arcsin(s_lo + (s_hi - s_lo) * frac)
        return float(theta) if theta.ndim == 0 else theta


@dataclass(frozen=True)
class LookupTableDispersion:
    """Measured or simulated dispersion points with linear interpolation."""

    frequencies: np.ndarray  # Hz, strictly increasing
    angles: np.ndarray  # rad, strictly increasing

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float)
        angs = np.asarray(self.angles, dtype=float)
        if freqs.ndim != 1 or freqs.shape != angs.shape or freqs.size < 2:
            raise ValueError("need matching 1-D frequency/angle arrays with >= 2 rows")
        if not np.isfinite(freqs).all():
            raise ValueError("lookup frequencies must be finite")
        if not np.all(np.diff(freqs) > 0.0):
            raise ValueError("lookup frequencies must be strictly increasing")
        if not np.all(np.diff(angs) > 0.0):
            raise ValueError("lookup angles must be strictly increasing")
        if np.any(np.abs(angs) >= _HALF_PI):
            raise ValueError("lookup angles must lie within (-pi/2, pi/2)")
        freqs.setflags(write=False)
        angs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "angles", angs)

    @classmethod
    def from_csv(cls, path) -> "LookupTableDispersion":
        """Load a two-column CSV (frequency_hz, angle_deg); header mandatory."""
        body = read_table(path, "frequency_hz,angle_deg")
        return cls(body[:, 0], np.radians(body[:, 1]))

    @property
    def band(self) -> tuple[float, float]:
        return (float(self.frequencies[0]), float(self.frequencies[-1]))

    def beam_angle(self, f):
        """Interpolated pointing angle (rad) at frequency f."""
        f = np.asarray(f, dtype=float)
        _check_band(f, self.band)
        theta = np.interp(f, self.frequencies, self.angles)
        return float(theta) if theta.ndim == 0 else theta


DispersionModel = LinearSineDispersion | LookupTableDispersion


def _check_band(f: np.ndarray, band: tuple[float, float]) -> None:
    lo, hi = band
    if np.any(f < lo) or np.any(f > hi):
        raise BandError(
            f"frequency outside calibrated band [{lo:.6g}, {hi:.6g}] Hz"
        )
