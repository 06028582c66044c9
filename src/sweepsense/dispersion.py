"""Frequency-to-beam-angle dispersion models.

A dispersion model maps chirp center frequency to the antenna's beam pointing
angle. Sweeping the frequency plan through a model, beam_angle(frequency_grid
(plan)), gives the virtual aperture: one pointing angle per frequency point,
one schedule shared by the two orthogonal channels in their own scan planes.
"""

from __future__ import annotations

import math

import numpy as np

from sweepsense.core import FrequencyPlan, Record, line_error, open_bytes, read_table

_HALF_PI = math.pi / 2.0


class LinearSineDispersion(Record):
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

    def beam_angle(self, f):
        """Pointing angle (rad) at frequency f; accepts scalars or arrays."""
        f = np.asarray(f, dtype=float)
        _check_band(f, self.f_min, self.f_max)
        frac = (f - self.f_min) / (self.f_max - self.f_min)
        s_lo, s_hi = math.sin(self.theta_min), math.sin(self.theta_max)
        return np.arcsin(s_lo + (s_hi - s_lo) * frac)


class LookupTableDispersion(Record):
    """Measured or simulated dispersion points with linear interpolation."""

    frequencies: np.ndarray  # Hz, strictly increasing
    angles: np.ndarray  # rad, strictly increasing

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=float)
        angs = np.asarray(self.angles, dtype=float)
        fault = _table_fault(freqs, angs)
        if fault is not None:
            raise ValueError(fault[1])
        freqs.setflags(write=False)
        angs.setflags(write=False)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "angles", angs)

    @classmethod
    def from_csv(cls, path) -> "LookupTableDispersion":
        """Load a two-column CSV (frequency_hz, angle_deg); header mandatory. A row
        that breaks a rule of the table raises ValueError naming the path and its line."""
        with open_bytes(path) as fh:
            body = read_table(path, "frequency_hz,angle_deg", fh)
            angles = np.radians(body[:, 1])
            fault = _table_fault(body[:, 0], angles, "(-90, 90) degrees")
            if fault is not None:
                raise line_error(path, *fault, fh)
        return cls(body[:, 0], angles)

    def beam_angle(self, f):
        """Interpolated pointing angle (rad) at frequency f."""
        f = np.asarray(f, dtype=float)
        _check_band(f, float(self.frequencies[0]), float(self.frequencies[-1]))
        return np.interp(f, self.frequencies, self.angles)


DispersionModel = LinearSineDispersion | LookupTableDispersion


def _table_fault(freqs: np.ndarray, angs: np.ndarray,
                 limits: str = "(-pi/2, pi/2)") -> tuple[int, str] | None:
    """(row, rule) of the first row of a lookup table that breaks one of its rules, with the
    first rule it breaks, or None; ``limits`` prints the range of angles in the table's unit."""
    if freqs.ndim != 1 or freqs.shape != angs.shape or freqs.size < 2:
        return 0, "need matching 1-D frequency/angle arrays with >= 2 rows"
    rises = lambda x: np.r_[True, x[1:] > x[:-1]]
    rules = {"lookup frequencies must be finite": ~np.isfinite(freqs),
             "lookup frequencies must be strictly increasing": ~rises(freqs),
             "lookup angles must be strictly increasing": ~rises(angs),
             f"lookup angles must lie within {limits}": ~(np.abs(angs) < _HALF_PI)}
    row = int(np.argmax(np.any(list(rules.values()), axis=0)))
    broken = [rule for rule, bad in rules.items() if bad[row]]
    return (row, broken[0]) if broken else None


def _check_band(f: np.ndarray, lo: float, hi: float) -> None:
    if np.any(f < lo) or np.any(f > hi):
        raise ValueError(f"frequency outside calibrated band [{lo:.6g}, {hi:.6g}] Hz")
