"""Shared domain types, physical constants, geometry conventions, CSV tables.

Coordinate convention used throughout: the antenna phase center sits at the
origin, boresight points along +z, the x-scan channel steers in the x-z plane
(azimuth) and the y-scan channel in the y-z plane (elevation). Targets must
lie in the forward half-space (z > 0). All angles are radians, all distances
meters, all frequencies Hz.
"""

from __future__ import annotations

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


def read_table(path, header: str) -> np.ndarray:
    """Float body, shape (rows, fields), of a UTF-8 CSV file whose line 1 is ``header``.

    Another line 1, its fields space-stripped, raises HeaderError. Empty lines
    are skipped. A line that is not UTF-8 text, a row whose field count
    differs from the header's, a cell that is not a finite number, or a file
    without rows raises ValueError naming the path and the line of the file.
    Every cell reads to the double np.loadtxt gives.
    """
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())  # read twice, from the start
        text = io.TextIOWrapper(fh, encoding="utf-8")  # line 1 as open(path) in text mode reads it
        try:
            fields = [f.strip() for f in text.readline().split(",")]
        except ValueError:  # UnicodeDecodeError: reading the body names the line
            fields = None
        text.detach()
        if fields is not None and ",".join(fields) != header:
            raise HeaderError(path, header, fields)
        fh.seek(0)
        body = _read_body(path, fh, header.count(",") + 1)
    if not body.size:
        raise ValueError(f"{path}: no data rows after line 1")
    return body


# read_table reads the file as bytes, a block of whole lines at a time, into
# one array sized by a first pass that counts line ends. A block whose cells
# all have the forms write_table prints is parsed by numpy (_parse_block);
# any other block is read by np.loadtxt as text (_text_block). Either way a
# cell reads to the same double, or a file fails with the same message.
_READ_BYTES = 1 << 17  # bytes per block in read_table: bounds the memory it holds at once
_PAD = 16  # bytes before and after a block in its buffer, for 8-byte loads at any cell


def _read_body(path, fh, n_fields: int) -> np.ndarray:
    """The rows after line 1 of the binary file ``fh``, read from its start,
    shape (rows, n_fields); ValueError names a bad line of ``path``."""
    buf = bytearray(_READ_BYTES + 2 * _PAD)
    ends = 0
    while got := fh.readinto(buf):
        for byte in (b"\n\r" if buf.find(b"\r", 0, got) >= 0 else b"\n"):
            ends += np.count_nonzero(np.frombuffer(buf, np.uint8, got) == byte)
    fh.seek(0)
    body = np.empty((ends + 1, n_fields))  # no more rows than lines
    work = np.empty((_SLOTS, 0), np.uint64)
    rows, lineno, kept = 0, 1, 0
    while True:
        got = fh.readinto(memoryview(buf)[_PAD + kept : -_PAD])
        end = _PAD + kept + got
        if got:  # cut after the last line end whose line is complete
            cut = buf.rfind(b"\n", _PAD, end) + 1 or buf.rfind(b"\r", _PAD, end - 1) + 1
            if not cut:  # a line longer than the buffer
                buf += bytes(len(buf))
                kept = end - _PAD
                continue
        elif kept:  # the last line has no line end: give it one
            buf[end] = ord("\n")
            end = cut = end + 1
        else:
            break
        lo = _PAD
        if lineno == 1:
            at = min(i for i in (buf.find(b"\n", lo, cut), buf.find(b"\r", lo, cut)) if i >= 0)
            next(_decoded(path, [buf[lo:at]], 1))  # line 1 must be UTF-8 text
            lo = at + 1 + (buf[at : at + 2] == b"\r\n")
            lineno = 2
        n = _parse_block(buf, lo, cut, body[rows:], work)
        if n is None:
            raw = bytes(buf[lo:cut])
            values = _text_block(path, raw, lineno, n_fields)
            n = len(values)
            body[rows : rows + n] = values
            lineno += raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
        else:
            lineno += n
        rows += n
        buf[_PAD : _PAD + end - cut] = buf[cut:end]
        kept = end - cut
    return body[:rows]


# A cell write_table prints is "-?d{1,10}" or "-?d.ddddddddde[+-]dd(d)?":
# after its sign, q x 10^k with q < 10^10 read from its digits. _parse_block
# loads 8 bytes at a time, little-endian, so the first character of a word is
# its lowest byte; XOR with a template of the form turns each digit into its
# value and each fixed character into 0 (an exponent '-' into 6).
_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)  # "00000000"
_POINT = _U64(0x3030303030302E30)  # "0.000000"
_EXPONENT = _U64(0x3030302B65303030)  # "000e+000"
_HIGH_NIBBLES = _U64(0xF0F0F0F0F0F0F0F0)
_SIXES = _U64(0x0606060606060606)
_TOP_BYTES = np.array([(2**64 - 1) << (64 - 8 * n) & (2**64 - 1) for n in range(9)],
                      np.uint64)  # [n]: the last n bytes of a word
_SLOTS = 2  # per-cell 8-byte arrays _parse_block works in, besides its gathers
_MARGIN = 2.0**-16  # of half an ulp: a sum this close to a midpoint is read exactly


@functools.cache
def _pow10_parts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h1, h2, h3 for 10^k, k = -333 .. 299: the top 19 bits, the next 19 and
    the rest of 10^k rounded to 90 bits, so q h1 and q h2 are exact for
    q < 10^10 and h1 + h2 + h3 is within 2^-89 of 10^k. Below k = -250 they
    sum to 10^k 2^256, so all three stay normal."""
    parts = []
    for k in range(-333, 300):
        num, den = 10 ** max(k, 0) << (256 if k < -250 else 0), 10 ** max(-k, 0)
        f = 90 - num.bit_length() + den.bit_length()  # 10^k 2^f has 89 .. 91 bits
        m = ((num << f) + den // 2) // den if f >= 0 else (num + (1 << (-f - 1))) >> -f
        b = m.bit_length()
        h1, h2, h3 = m >> (b - 19), (m >> (b - 38)) & (2**19 - 1), m & ((1 << (b - 38)) - 1)
        parts.append((math.ldexp(h1, b - 19 - f), math.ldexp(h2, b - 38 - f), math.ldexp(h3, -f)))
    return tuple(np.array(column) for column in zip(*parts))


def _all_digits(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """True where each of the 8 bytes of each of ``x`` is 0 .. 9; ``t`` is a spare
    array of the same shape."""
    t = np.add(x, _SIXES, out=t)
    t |= x
    t &= _HIGH_NIBBLES
    return t == 0


def _value8(x: np.ndarray, high: np.ndarray | None = None) -> np.ndarray:
    """Each of ``x`` (8 digit values in bytes, first digit lowest) as a number,
    in place; ``high`` is a spare array of the same shape."""
    for shift, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        high = np.right_shift(x, _U64(shift), out=high)
        x *= _U64(10 ** (shift // 8))
        x += high
        x &= _U64(mask)
    return x


def _exact_cell(text: bytes) -> float:
    """The double of one cell write_table prints, correctly rounded, as np.loadtxt reads it."""
    return float(text)


def _parse_block(buf: bytearray, lo: int, hi: int, out: np.ndarray, work: np.ndarray) -> int | None:
    """Parse the whole lines ``buf[lo:hi]`` into the first rows of ``out`` and
    return their count; None if a cell is not one write_table prints or is not finite.

    ``work`` is _SLOTS rows of 8-byte items, at least one per cell; it is
    resized in place when short. A float cell reads as the sum r of q h1,
    q h2 and q h3 (_pow10_parts): the first two products are exact and
    q h3 + q h2 is rounded twice, so the exact sum is within 2^-70 of q 10^k.
    Then r is its correct rounding unless that sum lies within _MARGIN of
    half an ulp from r, near a midpoint between doubles; such cells, and
    subnormal and overflowing ones, are left to _exact_cell.
    """
    n_fields = out.shape[1]
    data = np.frombuffer(buf, np.uint8)
    block = data[lo:hi]
    # (b ^ 4) < 41 holds for ',' and '\n' and for no other character of the
    # cells write_table prints; the cells are checked below.
    sep = np.flatnonzero((block ^ 4) < 41)
    n = len(sep) // n_fields
    if not 0 < n <= len(out) or len(sep) != n * n_fields or sep[-1] != hi - lo - 1:
        return None
    ends = block[sep].reshape(n, n_fields)
    if not ((ends[:, :-1] == ord(",")).all() and (ends[:, -1] == ord("\n")).all()):
        return None
    sep += lo
    if work.shape[1] < len(sep):
        work.resize((_SLOTS, len(sep)), refcheck=False)
    start, tmp = (row.view(np.int64) for row in work[:, : len(sep)])
    start[0] = lo
    np.add(sep[:-1], 1, out=start[1:])
    neg = data[start] == ord("-")
    start += neg  # where each cell's digits start
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))  # 8 bytes from each offset
    x1 = words[start]
    x2 = words[np.add(start, 3, out=tmp)]
    x3 = words[np.add(start, 8, out=tmp)]
    size = np.subtract(sep, start, out=tmp)
    long = size == 16
    spare = start.view(np.uint64)  # start is spent
    x1 ^= _POINT  # d.dddddd
    x2 ^= _ZEROS  # dddddddd
    x3 ^= _EXPONENT  # ddde+dd(d), with the separator after e+dd dropped:
    keep = np.multiply(long, _U64(0xFF << 56), out=spare)
    keep |= _U64(2**56 - 1)
    x3 &= keep
    ok = _all_digits(x1, spare)
    ok &= _all_digits(x2, spare)
    ok &= _all_digits(x3, spare)
    ok &= np.bitwise_and(x1, _U64(0xFF00), out=spare) == 0  # '.'
    np.bitwise_and(x3, _U64(0xFFFF000000), out=spare)
    minus = spare == _U64(6 << 32)
    ok &= (spare == 0) | minus  # 'e' and '+' or '-'
    ok &= long | (size == 15)
    ints = np.flatnonzero(~ok)
    int_values = _int_cells(words, sep[ints], size[ints])
    if int_values is None:
        return None
    # row = k + 333 for k = exponent - 9, from the digits in bytes 5 .. 7 of x3
    row = spare.view(np.int64)
    np.right_shift(x3, _U64(40), out=spare)
    row &= 0xFF
    row *= 10
    np.right_shift(x3, _U64(48), out=tmp.view(np.uint64))  # size is spent
    tmp &= 0xFF
    row += tmp
    np.multiply(row, 10, out=row, where=long)
    x3 >>= _U64(56)
    row += x3.view(np.int64)
    np.negative(row, out=row, where=minus)
    row += 333 - 9
    off = (row < 0) | (row > 632)
    tiny = row < 83  # k < -250
    # q: the digits at bytes 0 and 2 of x1, then the 8 of x2
    q = _value8(x2, tmp.view(np.uint64))
    np.right_shift(x1, _U64(16), out=tmp.view(np.uint64))
    tmp &= 0xFF
    tmp *= 10**8
    x1 &= _U64(0xFF)
    x1 *= _U64(10**9)
    q += x1
    q += tmp.view(np.uint64)
    qf = x1.view(np.float64)
    np.copyto(qf, q)
    h1, h2, h3 = (np.take(h, row, out=m.view(np.float64), mode="clip")  # rows off are unsure
                  for h, m in zip(_pow10_parts(), (x2, x3, tmp)))
    with np.errstate(over="ignore", invalid="ignore"):  # cells left to _exact_cell
        h1 *= qf
        h2 *= qf
        h3 *= qf
        h2 += h3  # t
        r = np.add(h1, h2, out=out[:n].reshape(-1))
        h1 -= r
        h1 += h2  # the sum's distance from r
        np.abs(h1, out=h1)
        half = np.bitwise_and(r.view(np.uint64), _U64(2**52 - 1), out=h3.view(np.uint64))
        power = half == 0  # at 2^n the ulp below is half the ulp above
        np.bitwise_and(r.view(np.uint64), _U64(0x7FF0000000000000), out=half)
        half = half.view(np.float64)
        half *= 2.0**-53 * (1 - _MARGIN)  # half an ulp of r, less the margin
        np.multiply(half, 0.5, out=half, where=power)
        unsure = h1 >= half
    unsure |= off
    np.multiply(r, 2.0**-256, out=r, where=tiny)
    unsure |= r < 2.2250738585072014e-308
    unsure |= r > 1.7976931348623157e308
    unsure &= qf != 0  # zero is exact
    r[ints] = int_values
    unsure[ints] = False
    np.negative(r, out=r, where=neg)
    odd = np.flatnonzero(unsure)
    if len(odd):
        first = np.where(odd > 0, sep[odd - 1] + 1, lo)  # with its sign
        r[odd] = [_exact_cell(buf[i:j]) for i, j in zip(first.tolist(), sep[odd].tolist())]
        if not np.isfinite(r[odd]).all():
            return None
    return n


def _int_cells(words: np.ndarray, end: np.ndarray, width: np.ndarray) -> np.ndarray | None:
    """The values of the cells of ``width`` digits that end at ``end`` in the
    ``words`` of _parse_block; None unless each is 1 to 10 digits."""
    if not ((width >= 1) & (width <= 10)).all():
        return None
    # the last 8 bytes and the 2 before them, with the bytes before the cell zeroed
    low = (words[end - 8] ^ _ZEROS) & _TOP_BYTES[np.minimum(width, 8)]
    high = (words[end - 16] ^ _ZEROS) & _TOP_BYTES[np.maximum(width - 8, 0)]
    if not (_all_digits(low) & _all_digits(high)).all():
        return None
    return (_value8(high) * _U64(10**8) + _value8(low)).astype(np.float64)


def _text_block(path, raw: bytes, lineno: int, n_fields: int) -> np.ndarray:
    """The rows of ``raw``, whole lines from line ``lineno`` on, as np.loadtxt
    reads them from a file in text mode; ValueError names the first bad line."""

    def finite(text: str) -> bool:  # every cell of ``text``, as loadtxt reads it
        try:
            values = np.loadtxt([text], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return False
        return values.size > 0 and bool(np.isfinite(values).all())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns about text without rows
        try:
            text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            values = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2, comments=None)
            if not values.size:  # empty lines only
                return np.empty((0, n_fields))
            if values.shape[1] == n_fields and np.isfinite(values).all():
                return values
        except ValueError:  # UnicodeDecodeError included
            pass
        for n, line in _decoded(path, raw.splitlines(), lineno):
            cells = line.split(",")
            if line and len(cells) != n_fields:
                raise ValueError(f"{path}: line {n}: expected {n_fields} fields, got {len(cells)}")
            if line and not finite(line):
                col = next(i for i, cell in enumerate(cells) if not finite(cell))
                message = f"field {col + 1} is not a finite number: {cells[col].strip()!r}"
                raise ValueError(f"{path}: line {n}: {message}")
    raise ValueError(f"{path}: unreadable CSV body")


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
        yield from _decoded(path, itertools.chain.from_iterable(raw.splitlines() for raw in fh), 1)


def _decoded(path, raw_lines, lineno: int):
    """(line number, text) of each of ``raw_lines``, the first being line ``lineno``."""
    for n, raw in enumerate(raw_lines, start=lineno):
        try:
            yield n, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            message = f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at column {exc.start + 1}"
            raise ValueError(f"{path}: line {n}: {message}") from None


def _body_lines(path):
    """(line number, text) of each non-empty line after the header."""
    return ((n, line) for n, line in _lines(path) if n > 1 and line)
