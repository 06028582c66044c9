"""Shared domain types, physical constants, geometry conventions, CSV tables.

Coordinate convention used throughout: the antenna phase center sits at the
origin, boresight points along +z, the x-scan channel steers in the x-z plane
(azimuth) and the y-scan channel in the y-z plane (elevation). Targets must
lie in the forward half-space (z > 0). All angles are radians, all distances
meters, all frequencies Hz.
"""

from __future__ import annotations

import contextlib
import enum
import functools
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
        if not 0.0 < self.duration < math.inf:
            raise ValueError("chirp duration must be positive")
        if not 0.0 <= self.guard < math.inf:
            raise ValueError("guard interval must be >= 0")
        if not 0.0 < self.slope < math.inf:
            raise ValueError("chirp slope must be positive")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples per chirp")
        if not 0.0 < self.sample_rate < math.inf:
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
_WRITE_CELLS = 4096  # cells per block in write_table: bounds the bytes held at once

# write_table prints a block of cells into one fixed-width byte field each and
# then drops the bytes a cell leaves unused. A float field holds sign, digit,
# '.', 9 digits, 'e', exponent sign, 3 exponent digits and the separator; an
# int field holds sign, 2 unused bytes and 10 digits, leading zeros unused.
# Its tables are built on first use: verbs that write no CSV never hold them.
_FIELD = 18
_INT_DECADES = 10 ** np.arange(1, 10)


@functools.cache
def _digits4() -> np.ndarray:
    """"0000" .. "9999", one 4-byte item each."""
    table = np.empty((10,) * 4 + (4,), np.uint8)
    for i in range(4):
        table[..., i] = np.arange(48, 58).reshape((10,) + (1,) * (3 - i))
    return table.reshape(-1, 4).view("V4")[:, 0]


@functools.cache
def _exponents() -> np.ndarray:
    """Sign and digits of e = -324 .. 308, 4 bytes each, the last unused below 100."""
    return np.frombuffer("".join(f"{e:+03d}".ljust(4) for e in range(-324, 309)).encode(), "V4")


@functools.cache
def _pow10() -> np.ndarray:
    """10^k for k = -170 .. 170, correctly rounded."""
    return np.array([float(f"1e{k}") for k in range(-170, 171)])


def write_table(dest, header: str, table, n_int: int = 0) -> str | None:
    """Write ``header`` and one CSV line per row of ``table``.

    ``table`` is a 2-D array, or a sequence of column groups (1-D or 2-D
    arrays of equal row counts) that are joined a block of rows at a time.
    The first ``n_int`` columns print as ``"%d" % x``, the rest as
    ``FLOAT_FMT % x``, byte for byte. ``dest`` is a path or an open text
    file; with None the text is returned.
    """
    if dest is not None and not hasattr(dest, "write"):
        with open(dest, "w") as fh:
            return write_table(fh, header, table, n_int)
    out = io.StringIO() if dest is None else dest
    groups = [g[:, None] if g.ndim == 1 else g
              for g in map(np.asarray, (table,) if isinstance(table, np.ndarray) else table)]
    if len({len(g) for g in groups}) > 1:
        raise ValueError("column groups differ in row count")
    width = sum(g.shape[1] for g in groups)
    out.write(header + "\n")
    k = max(1, _WRITE_CELLS // width)  # rows per block
    for start in range(0, len(groups[0]), k):
        block = np.concatenate([g[start : start + k] for g in groups], axis=1, dtype=float)
        out.write(_format_block(block, n_int))
    return out.getvalue() if dest is None else None


def _format_block(block: np.ndarray, n_int: int) -> str:
    """The CSV lines of the rows of ``block``, as write_table prints them."""
    field = np.empty(block.shape + (_FIELD,), np.uint8)
    keep = np.ones(block.shape + (_FIELD,), bool)
    field[..., -1] = ord(",")
    field[:, -1, -1] = ord("\n")
    odd = np.concatenate([_fill_ints(block[:, :n_int], field[:, :n_int], keep[:, :n_int]),
                          _fill_floats(block[:, n_int:], field[:, n_int:], keep[:, n_int:])],
                         axis=1)
    # Cells the byte fields cannot prove exact keep their own % format.
    rows, cols = np.nonzero(odd)
    if len(rows):
        texts = [(("%d" if c < n_int else FLOAT_FMT) % block[r, c].item()).encode()
                 for r, c in zip(rows.tolist(), cols.tolist())]
        wider = [_FIELD - 1] * (max(map(len, texts)) + 1 - _FIELD)  # for ints of 11+ digits
        if wider:
            field, keep = np.insert(field, wider, 0, axis=2), np.insert(keep, wider, False, axis=2)
        for r, c, text in zip(rows, cols, texts):
            field[r, c, : len(text)] = np.frombuffer(text, np.uint8)
            keep[r, c, :-1] = np.arange(keep.shape[2] - 1) < len(text)
    return field[keep].tobytes().decode("ascii")


def _put_digits(field: np.ndarray, at: int, q: np.ndarray) -> None:
    """Write "00" and the 10 decimal digits of each of ``q`` (0 .. 10^10 - 1),
    zero-padded, at bytes ``at`` .. ``at + 11`` of its field."""
    top = q // 100_000_000
    rest = q - top * 100_000_000
    mid = rest // 10_000
    for i, part in enumerate((top, mid, rest - mid * 10_000)):
        field[..., at + 4 * i : at + 4 * i + 4].view("V4")[..., 0] = _digits4()[part]


def _fill_ints(x: np.ndarray, field: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Fill the fields of ``"%d" % x``; True where a cell needs its own %."""
    v = np.trunc(x)
    ok = np.abs(v) < 1e10  # at most 10 digits; false for NaN and inf
    q = np.where(ok, np.abs(v), 0).astype(np.int64)
    _put_digits(field, 1, q)
    field[..., 0] = ord("-")
    keep[..., 0] = v < 0  # not for -0.0, which %d prints as 0
    keep[..., 1:3] = False
    leading = 9 - np.searchsorted(_INT_DECADES, q, side="right")  # zeros before the first digit
    keep[..., 3:13] = np.arange(10) >= leading[..., None]
    keep[..., 13:-1] = False
    return ~ok


def _fill_floats(x: np.ndarray, field: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Fill the fields of ``FLOAT_FMT % x``; True where a cell needs its own %.

    With e the decimal exponent of |x|, the 10 digits are rint(|x| 10^(9-e)).
    That scaled value is off the exact one by at most 4 roundings, about 5e-6,
    so the digits are those of correct rounding unless it lies within 1e-4 of
    a tie; such cells, and the non-finite ones, are left to %.
    """
    a = np.abs(x)
    nonzero = (a > 0) & (a < np.inf)  # and finite
    a = np.where(nonzero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = _scaled(a, e)
    miss = (s < 1e9) | (s >= 1e10)  # log10 rounded across a power of ten
    if miss.any():
        e[miss] += np.where(s[miss] < 1e9, -1, 1)
        s[miss] = _scaled(a[miss], e[miss])
    q = np.rint(s)
    odd = (x != 0) & ~nonzero | (q < 1e9) | (q > 1e10) | (np.abs(s - q) > 0.5 - 1e-4)
    carry = q == 1e10  # rounded up to the next decade
    good = nonzero & ~odd  # zeros print as 0.000000000e+00
    q = np.where(good, np.where(carry, 1e9, q), 0).astype(np.int64)
    e = np.where(good, e + carry, 0)
    _put_digits(field, 0, q)  # the first digit lands where the point goes
    field[..., 1] = field[..., 2]
    field[..., 2] = ord(".")
    field[..., 0] = ord("-")
    keep[..., 0] = np.signbit(x)
    field[..., 12] = ord("e")
    field[..., 13:17].view("V4")[..., 0] = _exponents()[e + 324]
    keep[..., 16] = np.abs(e) >= 100
    return odd


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10^(9 - e) through two table powers, so no factor leaves float range."""
    k = 9 - e
    k1 = k >> 1
    return a * _pow10()[k1 + 170] * _pow10()[k - k1 + 170]


class HeaderError(ValueError):
    """Line 1 of a CSV file is not the header expected; ``fields`` are the ones it holds."""

    def __init__(self, path, header: str, fields: list[str]):
        super().__init__(f"{path}: line 1: expected header '{header}'")
        self.fields = fields


@contextlib.contextmanager
def open_bytes(path):
    """``path`` opened for binary reading, seekable: a pipe or FIFO is read
    once into memory, so that it is never opened twice."""
    with open(path, "rb") as raw:
        yield raw if raw.seekable() else io.BytesIO(raw.read())


def read_table(path, header: str, fh=None) -> np.ndarray:
    """Float body, shape (rows, fields), of a UTF-8 CSV file whose line 1 is ``header``.

    Another line 1, its fields space-stripped, raises HeaderError. Empty lines
    are skipped. A line that is not UTF-8 text, a row whose field count
    differs from the header's, a cell that is not a finite number, or a file
    without rows raises ValueError naming the path and the line of the file.
    ``fh`` is ``path`` as open_bytes gives it; without it ``path`` is opened.
    """
    if fh is None:
        with open_bytes(path) as fh:
            return read_table(path, header, fh)
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8")  # lines as open(path) in text mode reads them
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns about an empty body
        try:
            fields = [f.strip() for f in text.readline().split(",")]
            body = (np.loadtxt(text, delimiter=",", ndmin=2, comments=None)
                    if ",".join(fields) == header else None)
        except ValueError:  # UnicodeDecodeError included
            raise _first_bad_line(path, header.count(",") + 1, fh) from None
        finally:
            text.detach()  # fh stays open
    if body is None:
        raise HeaderError(path, header, fields)
    if not body.size:
        raise ValueError(f"{path}: no data rows after line 1")
    bad = (body.shape[1] != len(fields)) | ~np.isfinite(body).all(axis=1)
    if bad.any():  # a wrong width marks every row; the rows before the first bad one are good
        raise _first_bad_line(path, len(fields), fh, start=int(np.argmax(bad)))
    return body


def off_cells(cells: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """True where a cell differs from ``expected`` by more than 1e-9 of that
    column's largest |value|; FLOAT_FMT moves a cell by at most 5e-10 of it."""
    off = np.subtract(cells, expected)
    np.abs(off, out=off)
    return off > 1e-9 * np.abs(expected).max(axis=0)


def check_rows(path, body: np.ndarray, expected: np.ndarray, names: str, fh=None) -> None:
    """Raise ValueError naming the row count or the first line of ``body`` whose
    leading cells ``names`` are off_cells of ``expected``; ``fh`` as in read_table."""
    if len(body) != len(expected):
        message = f"has {len(body)} data rows but the config expects {len(expected)}"
        raise ValueError(f"{path}: {message}")
    keys = body[:, : expected.shape[1]]
    off = off_cells(keys, expected).any(axis=1)
    if off.any():
        i = int(np.argmax(off))
        want, got = (",".join(f"{v:.10g}" for v in row) for row in (expected[i], keys[i]))
        raise line_error(path, i, f"expected {names} = {want} (from the config), got {got}", fh)


def line_error(path, row: int, message: str, fh=None) -> ValueError:
    """ValueError naming the line of the file that holds body row ``row``;
    ``fh`` as in read_table."""
    lineno, _ = next(itertools.islice(_body_lines(path, fh), row, None))
    return ValueError(f"{path}: line {lineno}: {message}")


def _lines(path, fh=None):
    """(line number, text) of every line, split as text mode splits them.

    Each line is decoded on its own, so a line that is not UTF-8 text raises
    ValueError naming it.
    """
    with open(path, "rb") if fh is None else contextlib.nullcontext(fh) as fh:
        fh.seek(0)
        raw_lines = itertools.chain.from_iterable(raw.splitlines() for raw in fh)
        for lineno, raw in enumerate(raw_lines, start=1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                message = f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at column {exc.start + 1}"
                raise ValueError(f"{path}: line {lineno}: {message}") from None


def _body_lines(path, fh=None):
    """(line number, text) of each non-empty line after the header."""
    return ((n, line) for n, line in _lines(path, fh) if n > 1 and line)


def _first_bad_line(path, n_fields: int, fh, start: int = 0) -> ValueError:
    """The error for the first line read_table rejects; rescans from body row ``start``."""

    def finite(text: str) -> bool:  # every cell of ``text``, as loadtxt reads it
        try:
            values = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return False
        return values.size > 0 and bool(np.isfinite(values).all())

    try:
        for lineno, line in itertools.islice(_body_lines(path, fh), start, None):
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
