"""Shared domain types, physical constants, geometry conventions, CSV tables.

Coordinate convention used throughout: the antenna phase center sits at the
origin, boresight points along +z, the x-scan channel steers in the x-z plane
(azimuth) and the y-scan channel in the y-z plane (elevation). Targets must
lie in the forward half-space (z > 0). All angles are radians, all distances
meters, all frequencies Hz.
"""

from __future__ import annotations

import enum
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# Exact SI value, not 3e8: derived quantities land within <0.1% of the usual
# round numbers (e.g. 2.5 cm range resolution for 6 GHz).
SPEED_OF_LIGHT = 299_792_458.0  # m/s


class GeometryError(ValueError):
    """Target or probe position violates the geometry conventions."""


class BandError(ValueError):
    """Frequency falls outside a dispersion model's calibrated band."""


class AliasingError(ValueError):
    """Beat frequency at or above Nyquist for the configured sampling."""


class DegenerateMeasurementError(ValueError):
    """Measurement channel has zero norm and cannot be normalized."""


@dataclass(frozen=True)
class FrequencyPlan:
    """Schedule of chirp center frequencies spanning [f_min, f_max].

    The n_points sub-band centers are f[i] = f_min + (i + 1/2) * step for
    i = 0..n_points-1, so chirps of bandwidth step tile the band exactly.
    Each center frequency acts as one virtual element of the aperture.
    """

    f_min: float  # Hz
    f_max: float  # Hz
    n_points: int

    def __post_init__(self) -> None:
        if not (0.0 < self.f_min < self.f_max):
            raise ValueError(
                f"need 0 < f_min < f_max, got f_min={self.f_min}, f_max={self.f_max}"
            )
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")

    @property
    def bandwidth(self) -> float:
        """Total swept bandwidth f_max - f_min in Hz."""
        return self.f_max - self.f_min

    @property
    def step(self) -> float:
        """Per-chirp bandwidth (band / n_points) in Hz."""
        return self.bandwidth / self.n_points


def frequency_grid(plan: FrequencyPlan) -> np.ndarray:
    """Center frequencies of the plan, strictly increasing, shape (n_points,)."""
    idx = np.arange(plan.n_points)
    return plan.f_min + (idx + 0.5) * plan.step


@dataclass(frozen=True)
class ChirpConfig:
    """Fast-time parameters of a single chirp slot.

    duration is the chirp slot length, guard the TDD guard interval, slope the
    frequency ramp rate in Hz/s; n_samples baseband samples are taken at
    sample_rate during reception.
    """

    duration: float = 100e-6  # s
    guard: float = 5e-6  # s
    slope: float = 4.6875e11  # Hz/s (default tiles 60-66 GHz with 128 points)
    n_samples: int = 64
    sample_rate: float = 1e6  # Hz

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ValueError("chirp duration must be positive")
        if self.guard < 0.0:
            raise ValueError("guard interval must be >= 0")
        if self.slope <= 0.0:
            raise ValueError("chirp slope must be positive")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples per chirp")
        if self.sample_rate <= 0.0:
            raise ValueError("sample rate must be positive")


# libm's atan2 per element, not np.arctan2: that differs by one ulp on ~1 % of
# positions, which the Gaussian wings of the antenna gain amplify to ~1e-15.
_ATAN2 = np.frompyfunc(math.atan2, 2, 1)


class ChannelAxis(enum.Enum):
    """The two orthogonal scanning channels of the dual-fed antenna."""

    X_SCAN = "x"
    Y_SCAN = "y"

    def target_angle(self, position) -> float | np.ndarray:
        """In-plane angle of a position for this channel's scan plane.

        X_SCAN measures azimuth atan2(x, z); Y_SCAN elevation atan2(y, z);
        xyz on the last axis.
        """
        p = np.asarray(position, dtype=float)
        side = p[..., 0] if self is ChannelAxis.X_SCAN else p[..., 1]
        angle = np.asarray(_ATAN2(side, p[..., 2]), dtype=float)
        return float(angle) if angle.ndim == 0 else angle


@dataclass(frozen=True)
class Target:
    """Point scatterer with per-channel complex reflectivity.

    refl_y defaults to refl_x: the two scanning channels see the same
    scatterer strength unless explicitly configured otherwise.
    """

    position: tuple[float, float, float]  # m, phase center at origin
    refl_x: complex = 1.0 + 0.0j
    refl_y: complex | None = None

    def __post_init__(self) -> None:
        pos = tuple(float(v) for v in self.position)
        if len(pos) != 3:
            raise GeometryError("position must have exactly 3 components")
        object.__setattr__(self, "position", pos)
        range_of(pos)  # GeometryError unless its range is finite and nonzero
        if pos[2] <= 0.0:
            raise GeometryError(f"target must lie in the forward half-space, z={pos[2]}")
        if self.refl_y is None:
            object.__setattr__(self, "refl_y", complex(self.refl_x))


@dataclass(frozen=True)
class NoiseConfig:
    """Additive-noise settings; snr_db=None means noiseless."""

    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))


_DEFAULT_NOISE = NoiseConfig()


@dataclass(frozen=True)
class Scene:
    """Collection of point targets plus a noise configuration."""

    targets: tuple[Target, ...] = ()
    noise: NoiseConfig = _DEFAULT_NOISE

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))


@dataclass(frozen=True)
class Measurement:
    """Dual-channel complex measurement vectors indexed by frequency point."""

    plan: FrequencyPlan
    s_x: np.ndarray = field(repr=False)
    s_y: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        s_x = np.array(self.s_x, dtype=np.complex128, copy=True)
        s_y = np.array(self.s_y, dtype=np.complex128, copy=True)
        for name, vec in (("s_x", s_x), ("s_y", s_y)):
            if vec.shape != (self.plan.n_points,):
                raise ValueError(
                    f"{name} must have shape ({self.plan.n_points},), got {vec.shape}"
                )
        s_x.setflags(write=False)
        s_y.setflags(write=False)
        object.__setattr__(self, "s_x", s_x)
        object.__setattr__(self, "s_y", s_y)


def range_of(position) -> float | np.ndarray:
    """Euclidean distance from the phase center; xyz on the last axis.

    A range of 0, or one that overflows (|p| beyond about 1.34e154), raises GeometryError.
    """
    p = np.asarray(position, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    with np.errstate(over="ignore"):
        r = np.sqrt(x * x + y * y + z * z)
    if not ((0.0 < r) & (r < math.inf)).all():
        raise GeometryError("position has no finite nonzero range")
    return float(r) if r.ndim == 0 else r


# ---------------------------------------------------------------------------
# CSV tables: a header line, then one line of numbers per row. Every CSV the
# CLI reads goes through read_table, and through check_rows where the config
# gives its key cells; every one it writes through write_table except the
# sweep CSV, whose snr_db cell may be the text 'noiseless' (cli.sweep_to_csv).

FLOAT_FMT = "%.9e"  # every float cell: 10 significant digits
_WRITE_CELLS = 4096  # cells per % format in write_table: bounds the text held at once


def write_table(dest, header: str, table: np.ndarray, n_int: int = 0) -> str | None:
    """Write ``header`` and one CSV line per row of the 2-D ``table``.

    The first ``n_int`` columns print as integers, the rest with FLOAT_FMT.
    ``dest`` is a path or an open text file; with None the text is returned.
    """
    if dest is not None and not hasattr(dest, "write"):
        with open(dest, "w") as fh:
            return write_table(fh, header, table, n_int)
    out = io.StringIO() if dest is None else dest
    line = ",".join(["%d"] * n_int + [FLOAT_FMT] * (table.shape[1] - n_int)) + "\n"
    out.write(header + "\n")
    k = max(1, _WRITE_CELLS // table.shape[1])  # rows per format
    for start in range(0, len(table), k):
        block = table[start : start + k]
        out.write((line * len(block)) % tuple(block.ravel().tolist()))
    return out.getvalue() if dest is None else None


class HeaderError(ValueError):
    """Line 1 of a CSV file is not the header expected; ``fields`` are the ones it holds."""

    def __init__(self, path, header: str, fields: list[str]):
        super().__init__(f"{path}: line 1: expected header '{header}'")
        self.fields = fields


def read_table(path, header: str) -> np.ndarray:
    """Float body, shape (rows, fields), of a UTF-8 CSV file whose line 1 is ``header``.

    Another line 1, its fields space-stripped, raises HeaderError. Empty lines
    are skipped. A line that is not UTF-8 text, a row whose field count
    differs from the header's, a cell that is not a finite number, or a file
    without rows raises ValueError naming the path and the line of the file.
    """
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns about an empty body
        try:
            fields = [f.strip() for f in fh.readline().split(",")]
            body = (np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
                    if ",".join(fields) == header else None)
        except ValueError:  # UnicodeDecodeError included
            raise _first_bad_line(path, header.count(",") + 1) from None
    if body is None:
        raise HeaderError(path, header, fields)
    if not body.size:
        raise ValueError(f"{path}: no data rows after line 1")
    if body.shape[1] != len(fields) or not np.isfinite(body).all():
        raise _first_bad_line(path, len(fields))
    return body


def check_rows(path, body: np.ndarray, expected: np.ndarray, names: str) -> None:
    """Raise ValueError naming the row count or the first line of ``body`` whose
    leading cells ``names`` differ from ``expected`` by more than 1e-9 of that
    column's largest |value|; FLOAT_FMT moves a cell by at most 5e-10 of it."""
    if len(body) != len(expected):
        message = f"has {len(body)} data rows but the config expects {len(expected)}"
        raise ValueError(f"{path}: {message}")
    keys = body[:, : expected.shape[1]]
    off = (np.abs(keys - expected) > 1e-9 * np.abs(expected).max(axis=0)).any(axis=1)
    if off.any():
        i = int(np.argmax(off))
        want, got = (",".join(f"{v:.10g}" for v in row) for row in (expected[i], keys[i]))
        raise line_error(path, i, f"expected {names} = {want} (from the config), got {got}")


def line_error(path, row: int, message: str) -> ValueError:
    """ValueError naming the line of the file that holds body row ``row``."""
    lineno, _ = next(itertools.islice(_body_lines(path), row, None))
    return ValueError(f"{path}: line {lineno}: {message}")


def _lines(path):
    """(line number, text) of every line, split as text mode splits them.

    Each line is decoded on its own, so a line that is not UTF-8 text raises
    ValueError naming it.
    """
    with open(path, "rb") as fh:
        raw_lines = itertools.chain.from_iterable(raw.splitlines() for raw in fh)
        for lineno, raw in enumerate(raw_lines, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                message = f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at column {exc.start + 1}"
                raise ValueError(f"{path}: line {lineno}: {message}") from None


def _body_lines(path):
    """(line number, text) of each non-empty line after the header."""
    return ((n, line) for n, line in _lines(path) if n > 1 and line)


def _first_bad_line(path, n_fields: int) -> ValueError:
    """The error for the first line read_table rejects; rescans the file."""

    def finite(text: str) -> bool:  # every cell of ``text``, as loadtxt reads it
        try:
            values = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return False
        return values.size > 0 and bool(np.isfinite(values).all())

    try:
        for lineno, line in _body_lines(path):
            cells = line.split(",")
            if len(cells) != n_fields:
                message = f"expected {n_fields} fields, got {len(cells)}"
                return ValueError(f"{path}: line {lineno}: {message}")
            if not finite(line):
                col = next(i for i, cell in enumerate(cells) if not finite(cell))
                message = f"field {col + 1} is not a finite number: {cells[col].strip()!r}"
                return ValueError(f"{path}: line {lineno}: {message}")
    except ValueError as exc:  # from _lines: a line that is not UTF-8 text
        return exc
    return ValueError(f"{path}: unreadable CSV body")
