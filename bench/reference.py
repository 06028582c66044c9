"""Independent numpy model of the sweepsense echo, used to check CLI outputs.

Written from the formulas in README.md and PAPER.md; it imports nothing from
the sweepsense package, so a fault in the program cannot hide in its own
reference. The model:

- sub-band-centre frequencies f_i = f_min + (i + 1/2) B / M;
- linear-in-sine beam angle sin(theta_i) = sin(theta_lo) + (sin(theta_hi) -
  sin(theta_lo)) (f_i - f_min) / B, with theta_lo = -theta_hi;
- two-way Gaussian gain exp(-4 ln2 (dtheta / (lambda / L))^2)^2, where dtheta
  is the in-plane angle of the target (atan2(x, z) for the x-scan channel,
  atan2(y, z) for the y-scan channel) minus the beam angle;
- phase exp(-j 4 pi f R / c) and per-channel unit normalisation.
"""

from __future__ import annotations

import math

import numpy as np

C = 299_792_458.0


class Plan:
    """Frequency plan, linear-sine dispersion and antenna length of a config."""

    def __init__(self, cfg: dict):
        plan = cfg["plan"]
        self.f_min = float(plan["f_min_hz"])
        self.f_max = float(plan["f_max_hz"])
        self.m = int(plan["n_points"])
        theta_hi = math.radians(cfg["dispersion"]["theta_max_deg"])
        self.length = float(cfg["antenna"]["length_m"])
        band = self.f_max - self.f_min
        self.freqs = self.f_min + (np.arange(self.m) + 0.5) * (band / self.m)
        s_lo, s_hi = -math.sin(theta_hi), math.sin(theta_hi)
        self.beam = np.arcsin(s_lo + (s_hi - s_lo) * (self.freqs - self.f_min) / band)
        self.beamwidth = (C / self.freqs) / self.length

    def echo(self, positions) -> np.ndarray:
        """Unit-reflectivity noiseless echoes, shape (N, 2, M): x then y channel."""
        p = np.atleast_2d(np.asarray(positions, dtype=float))
        x, y, z = p[:, 0:1], p[:, 1:2], p[:, 2:3]
        r = np.sqrt(x * x + y * y + z * z)
        carrier = np.exp(-1j * (4.0 * math.pi / C) * r * self.freqs)
        out = np.empty((len(p), 2, self.m), dtype=np.complex128)
        for ch, lateral in enumerate((x, y)):
            dtheta = np.arctan2(lateral, z) - self.beam
            one_way = np.exp(-4.0 * math.log(2.0) * (dtheta / self.beamwidth) ** 2)
            out[:, ch, :] = one_way * one_way * carrier
        return out

    def scene(self, targets) -> np.ndarray:
        """Noiseless measurement (2, M) of targets given as config dicts."""
        total = np.zeros((2, self.m), dtype=np.complex128)
        for t in targets:
            alpha = complex(t.get("alpha_re", 1.0), t.get("alpha_im", 0.0))
            refl = np.array([
                complex(t.get("alpha_x_re", alpha.real), t.get("alpha_x_im", alpha.imag)),
                complex(t.get("alpha_y_re", alpha.real), t.get("alpha_y_im", alpha.imag)),
            ])
            total += refl[:, None] * self.echo([(t["x_m"], t["y_m"], t["z_m"])])[0]
        return total


def unit_rows(echoes: np.ndarray) -> np.ndarray:
    """Normalise each channel of (..., 2, M) echoes to unit norm."""
    return echoes / np.linalg.norm(echoes, axis=-1, keepdims=True)


def scores(dictionary: np.ndarray, measurement: np.ndarray) -> np.ndarray:
    """Matched-filter scores of a (2, M) measurement against (N, 2, M) unit rows:
    the mean over both channels of |<entry, measurement>| after unit-normalising
    the measurement."""
    fp = unit_rows(measurement)
    corr = np.einsum("nci,ci->nc", dictionary, np.conj(fp))
    return np.abs(corr).mean(axis=1)


def grid_points(grid: dict) -> tuple[np.ndarray, np.ndarray]:
    """Grid positions and (ix, iy, iz) indices, x index varying fastest."""
    axes = [
        np.linspace(grid[f"{a}_min_m"], grid[f"{a}_max_m"], grid[f"n{a}"]) for a in "xyz"
    ]
    iz, iy, ix = np.meshgrid(*(np.arange(len(a)) for a in reversed(axes)), indexing="ij")
    idx = np.column_stack([ix.ravel(), iy.ravel(), iz.ravel()])
    pos = np.column_stack([axes[k][idx[:, k]] for k in range(3)])
    return pos, idx


def displace(p0, axis, delta: float) -> np.ndarray:
    """Position probed at offset delta (rad for angular axes, m otherwise)."""
    x, y, z = p0
    if axis == "range":
        return np.asarray(p0) * (1.0 + delta / math.sqrt(x * x + y * y + z * z))
    if axis == "azimuth":
        c, s = math.cos(delta), math.sin(delta)
        return np.array([x * c + z * s, y, z * c - x * s])
    if axis == "elevation":
        c, s = math.cos(delta), math.sin(delta)
        return np.array([x, y * c + z * s, z * c - y * s])
    u = np.asarray([float(v) for v in axis.split(",")])
    return np.asarray(p0) + delta * u / np.linalg.norm(u)


def half_power_width(offsets: np.ndarray, values: np.ndarray) -> float | None:
    """First crossing of 1/sqrt(2) walking outward from offset 0 on each side,
    linearly interpolated, anchored at (0, 1); the smaller of the two sides."""
    level = 1.0 / math.sqrt(2.0)
    found = []
    for side in (offsets > 0.0, offsets < 0.0):
        off, val = np.abs(offsets[side]), values[side]
        order = np.argsort(off)
        prev = (0.0, 1.0)
        for o, v in zip(off[order], val[order]):
            if v < level:
                found.append(prev[0] + (prev[1] - level) / (prev[1] - v) * (o - prev[0]))
                break
            prev = (o, v)
    return min(found) if found else None
