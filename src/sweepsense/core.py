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
import os
import warnings

import numpy as np

# Exact SI value, not 3e8: derived quantities land within <0.1% of the usual
# round numbers (e.g. 2.5 cm range resolution for 6 GHz).
SPEED_OF_LIGHT = 299_792_458.0  # m/s


class GeometryError(ValueError):
    """Target or probe position violates the geometry conventions."""


class DegenerateMeasurementError(ValueError):
    """Measurement channel has zero norm or a sample that is not finite, and
    cannot be normalized."""


class Record:
    """Base of the immutable record types. A subclass's annotated names, in order, are its
    fields; ``hidden`` names the fields its repr leaves out.

    The constructor binds positional and keyword arguments to the fields, a missing one
    taking its class attribute as default, then runs __post_init__, which may still set a
    field through object.__setattr__. Records compare, hash and print as their tuple of
    fields, and no attribute can be set or deleted. Nothing is generated: defining a record
    type compiles no code at import (the README's start-up paragraph says why that matters).
    """

    def __init_subclass__(cls, hidden=(), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._shown = tuple(name for name in cls._fields if name not in hidden)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields) or kwargs.keys() - set(cls._fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, got {len(args)} "
                            f"positional arguments and the keywords {sorted(kwargs)}")
        given = {**dict(zip(cls._fields, args)), **kwargs}
        for name in cls._fields:
            if name not in given and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            vars(self)[name] = given[name] if name in given else getattr(cls, name)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class FrequencyPlan(Record):
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
        if math.isinf(self.f_max):
            raise ValueError("f_max must be finite")
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")

    @property
    def step(self) -> float:
        """Per-chirp bandwidth (band / n_points) in Hz."""
        return (self.f_max - self.f_min) / self.n_points


def frequency_grid(plan: FrequencyPlan) -> np.ndarray:
    """Center frequencies of the plan, strictly increasing, shape (n_points,)."""
    idx = np.arange(plan.n_points)
    return plan.f_min + (idx + 0.5) * plan.step


class ChirpConfig(Record):
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

    def target_angle(self, position) -> np.ndarray:
        """In-plane angle of a position for this channel's scan plane.

        X_SCAN measures azimuth atan2(x, z); Y_SCAN elevation atan2(y, z);
        xyz on the last axis.
        """
        p = np.asarray(position, dtype=float)
        side = p[..., 0] if self is ChannelAxis.X_SCAN else p[..., 1]
        return np.asarray(_ATAN2(side, p[..., 2]), dtype=float)


class Target(Record):
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


class NoiseConfig(Record):
    """Additive-noise settings; snr_db=None means noiseless."""

    snr_db: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))


class Scene(Record):
    """Collection of point targets plus a noise configuration."""

    targets: tuple[Target, ...] = ()
    noise: NoiseConfig = NoiseConfig()

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))


class Measurement(Record, hidden=("s_x", "s_y")):
    """Dual-channel complex measurement vectors indexed by frequency point."""

    plan: FrequencyPlan
    s_x: np.ndarray
    s_y: np.ndarray

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
    return r


# ---------------------------------------------------------------------------
# CSV tables: a header line, then one line of numbers per row. Every CSV the
# CLI reads goes through read_table, and through check_rows where the config
# gives its key cells; table_text prints every one it writes except the
# sweep CSV, whose snr_db cell may be the text 'noiseless' (cli.sweep_to_csv).

FLOAT_FMT = "%.9e"  # every float cell: 10 significant digits
_WRITE_CELLS = 8192  # cells per block in table_text and first_off_cell: bounds the bytes held

# table_text prints each cell of a block into a fixed-width byte field, NUL where
# unused, then deletes the NULs: sign, digit, '.', 9 digits, 'e' and a signed 2-3
# digit exponent for a float, the "%d" text for an int, then the separator. A field
# is 18 bytes unless an int's text is longer, which widens every field of its block.
# Tables are built on first use: verbs that write no CSV never hold them.
_FIELD = 18


@functools.cache
def _digits4() -> np.ndarray:
    """"0000" .. "9999", one 4-byte item each."""
    digit = np.arange(48, 58, dtype=np.uint8)  # "0" .. "9"
    table = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    return table.reshape(-1, 4).view("V4")[:, 0]


@functools.cache
def _lead() -> np.ndarray:
    """Sign, digit, '.', digit of a float field: NUL "0.0" .. NUL "9.9", "-0.0" .. "-9.9"."""
    text = "".join(f"{s}{t / 10:.1f}" for s in "\0-" for t in range(100))
    return np.frombuffer(text.encode(), "V4")


@functools.cache
def _exponents() -> np.ndarray:
    """Sign and digits of e = -324 .. 308, 4 bytes each, the last NUL below 100."""
    return np.frombuffer("".join(f"{e:+03d}\0"[:4] for e in range(-324, 309)).encode(), "V4")


@functools.cache
def _pow10() -> np.ndarray:
    """10^k for k = -170 .. 170, correctly rounded."""
    return np.array([float(f"1e{k}") for k in range(-170, 171)])


def table_text(header: str, tables, n_int: int = 0):
    """Yield the ASCII bytes of a CSV table: the ``header`` line, then the lines
    of each of ``tables`` in turn, one block of rows at a time, each formatted
    when asked for.

    A table is a sequence of column groups (1-D or 2-D arrays of equal row
    counts) that are joined a block of rows at a time.
    ``tables`` may be a generator: the next table is drawn once the lines of
    the one before are printed, and that one is no longer held. The first
    ``n_int`` columns print as ``"%d" % x``, the rest as ``FLOAT_FMT % x``,
    byte for byte.
    """
    yield (header + "\n").encode("ascii")
    # chain and map drop each table once its last block is printed
    yield from itertools.chain.from_iterable(map(lambda t: _table_blocks(t, n_int), tables))


def _table_blocks(table, n_int: int):
    """The lines of one table of table_text, a block of rows at a time."""
    groups = [g[:, None] if g.ndim == 1 else g for g in map(np.asarray, table)]
    if len({len(g) for g in groups}) > 1:
        raise ValueError("column groups differ in row count")
    k = max(1, _WRITE_CELLS // sum(g.shape[1] for g in groups))  # rows per block
    for start in range(0, len(groups[0]), k):
        block = np.concatenate([g[start : start + k] for g in groups], axis=1, dtype=float)
        yield _format_block(block, n_int)


def write_text(dest, blocks) -> None:
    """Write the ASCII ``blocks`` to ``dest``: a path, or an open text file that gets
    each block decoded. A missing path or a regular file is written through a new file
    beside it, which replaces it with the same mode once every block is written, so a
    failure leaves it as it was; a link, a pipe, a device or a file this process may not
    write is written in place."""
    if hasattr(dest, "write"):
        return dest.writelines(block.decode("ascii") for block in blocks)
    if os.path.islink(dest) or os.path.exists(dest) and not (os.path.isfile(dest)
                                                            and os.access(dest, os.W_OK)):
        with open(dest, "wb") as fh:
            return fh.writelines(blocks)
    tmp = os.path.join(os.path.dirname(dest), f"{os.urandom(6).hex()}.tmp")  # fits any name limit
    fh = open(tmp, "xb")
    try:
        with fh:
            if os.path.exists(dest):
                os.chmod(tmp, os.stat(dest).st_mode & 0o7777)
            fh.writelines(blocks)
        os.replace(tmp, dest)
    except BaseException:
        os.unlink(tmp)
        raise


def _format_block(block: np.ndarray, n_int: int) -> bytes:
    """The CSV lines of the rows of ``block``, as table_text prints them."""
    ints = [b"%d" % v for v in block[:, :n_int].ravel().tolist()]
    width = max([_FIELD - 1, *map(len, ints)])  # an int longer than a float's text widens every field
    field = np.empty(block.shape + (width + 1,), np.uint8)
    field[..., -1] = ord(",")
    field[:, -1, -1] = ord("\n")
    field[:, :n_int, :-1] = np.array(ints, f"S{width}").view(np.uint8).reshape(len(block), n_int, width)
    x, floats = block[:, n_int:], field[:, n_int:]
    odd = _fill_floats(x, floats)
    floats[..., _FIELD - 1 : -1] = 0  # the bytes a long int added
    if odd.any():  # cells the byte fields cannot prove exact keep their own %
        for r, c in np.argwhere(odd).tolist():
            text = (FLOAT_FMT % x.item(r, c)).encode()
            floats[r, c, :-1] = np.frombuffer(text.ljust(width, b"\0"), np.uint8)
    return field.tobytes().translate(None, b"\0")


def _fill_floats(x: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Fill the fields of ``FLOAT_FMT % x``; True where a cell needs its own %.

    With e the decimal exponent of |x|, the 10 digits are rint(|x| 10^(9-e)).
    That scaled value is off the exact one by at most 4 roundings, about 5e-6,
    so the digits are those of correct rounding unless it lies within 1e-4 of
    a tie; such cells, and the non-finite ones, are left to %.
    """
    a = np.abs(x)
    nonzero = (a > 0) & (a < np.inf)  # and finite
    a[~nonzero] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    s = _scaled(a, e)
    miss = (s < 1e9) | (s >= 1e10)  # log10 rounded across a power of ten
    if miss.any():
        e[miss] += np.where(s[miss] < 1e9, -1, 1)
        s[miss] = _scaled(a[miss], e[miss])
    q = np.rint(s, out=a)
    s -= q  # s is now the rounding error
    odd = (x != 0) & ~nonzero | (q < 1e9) | (q > 1e10) | (np.abs(s, out=s) > 0.5 - 1e-4)
    carry = q == 1e10  # rounded up to the next decade
    good = nonzero & ~odd  # zeros print as 0.000000000e+00
    np.copyto(q, 1e9, where=carry)
    q *= good
    q += np.signbit(x) * 1e10  # selects the lead with a '-'
    e = (e + carry) * good
    # lead[q // 10^8] (sign, digit, '.', digit), then q's last 8 digits, 4 at a time
    q = q.astype(np.int64)
    digits = field[..., :12].view("V4")
    for i, (table, unit) in enumerate(((_lead(), 100_000_000), (_digits4(), 10_000))):
        part = q // unit
        digits[..., i] = table[part]
        part *= unit
        q -= part
    digits[..., 2] = _digits4()[q]
    field[..., 12] = ord("e")
    field[..., 13:17].view("V4")[..., 0] = _exponents()[e + 324]
    return odd


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10^(9 - e) through two table powers, so no factor leaves float range."""
    k = 349 - e  # 9 - e plus twice 170, the index of 10^0: each half indexes one factor
    half = k >> 1
    s = a * _pow10()[half]
    s *= _pow10()[np.subtract(k, half, out=k)]
    return s


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


def read_table(path, header: str, fh) -> np.ndarray:
    """Float body, shape (rows, fields), of a UTF-8 CSV file whose line 1 is ``header``.

    Another line 1, its fields space-stripped, raises HeaderError. Empty lines
    are skipped. A line that is not UTF-8 text, a row whose field count
    differs from the header's, a cell that is not a finite number, or a file
    without rows raises ValueError naming the path and the line of the file.
    ``fh`` is ``path`` as open_bytes gives it.
    """
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
    good = np.isfinite(body) if body.shape[1] == len(fields) else np.zeros(body.shape, bool)
    if not good.all():  # a wrong width marks every cell, so the first line is named
        row, col = divmod(int(np.argmin(good)), body.shape[1])
        lineno, text = next(itertools.islice(_body_lines(path, fh), row, None))
        raise _line_fault(path, len(fields), lineno, text, col)
    return body


def first_off_cell(cells: np.ndarray, expected: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first cell, in row order, that differs from ``expected``
    by more than 1e-9 of that column's largest |value|, or None; FLOAT_FMT moves a
    cell by at most 5e-10 of it. Rows are compared _WRITE_CELLS cells at a time."""
    tol = 1e-9 * np.maximum(expected.max(axis=0), -expected.min(axis=0))
    k = max(1, _WRITE_CELLS // expected.shape[1])  # rows per block
    for start in range(0, len(expected), k):
        off = np.subtract(cells[start : start + k], expected[start : start + k])
        off = np.abs(off, out=off) > tol
        if off.any():
            row, col = divmod(int(np.argmax(off)), off.shape[1])
            return start + row, col
    return None


def check_rows(path, body: np.ndarray, expected: np.ndarray, names: str, fh) -> None:
    """Raise ValueError naming the row count or the first line of ``body`` whose
    leading cells ``names`` hold a first_off_cell of ``expected``; ``fh`` as in read_table."""
    if len(body) != len(expected):
        message = f"has {len(body)} data rows but the config expects {len(expected)}"
        raise ValueError(f"{path}: {message}")
    keys = body[:, : expected.shape[1]]
    off = first_off_cell(keys, expected)
    if off is not None:
        i = off[0]
        want, got = (",".join(f"{v:.10g}" for v in row) for row in (expected[i], keys[i]))
        raise line_error(path, i, f"expected {names} = {want} (from the config), got {got}", fh)


def line_error(path, row: int, message: str, fh) -> ValueError:
    """ValueError naming the line of the file that holds body row ``row``;
    ``fh`` as in read_table."""
    lineno, _ = next(itertools.islice(_body_lines(path, fh), row, None))
    return ValueError(f"{path}: line {lineno}: {message}")


def _body_lines(path, fh):
    """(line number, text) of each non-empty line of ``fh`` after the header, split as text
    mode splits them; a line that is not UTF-8 text, the header too, raises ValueError naming it."""
    fh.seek(0)
    raw_lines = itertools.chain.from_iterable(raw.splitlines() for raw in fh)
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            message = f"not UTF-8 text: byte 0x{raw[exc.start]:02x} at column {exc.start + 1}"
            raise ValueError(f"{path}: line {lineno}: {message}") from None
        if lineno > 1 and text:
            yield lineno, text


def _first_bad_line(path, n_fields: int, fh) -> ValueError:
    """The error for the first line of a body that np.loadtxt rejects, read once in order:
    one np.loadtxt per run of lines, then the first bad run in sub-runs of s lines, then the
    first bad sub-run a line at a time. With k lines in _WRITE_CELLS cells and s = isqrt(k), a
    run holds k - s lines, so a run and a sub-run together hold at most k lines."""
    k = max(1, _WRITE_CELLS // n_fields)
    s = math.isqrt(k)
    sizes, n = ((s, 1), k - s) if s > 1 else ((1,), k)  # lines per part of a bad run; per run
    lines = _body_lines(path, fh)
    while True:
        run, error = [], None
        try:
            for item in itertools.islice(lines, n):
                run.append(item)
        except ValueError as exc:  # a line that is not UTF-8 text: the run before it goes first
            error = exc
        bad = _first_unreadable(run, n_fields, *sizes)
        if bad:
            return _line_fault(path, n_fields, *bad)
        if error or len(run) < n:
            return error or ValueError(f"{path}: unreadable CSV body")


def _first_unreadable(run: list, n_fields: int, *sizes: int) -> tuple[int, str] | None:
    """The first (line number, text) of ``run`` that np.loadtxt cannot read, or None where it
    reads the whole run: the parts of ``sizes[0]`` lines are read in order, and the first bad
    one in parts of the next size."""
    if not run or not _unreadable([text for _, text in run], n_fields):
        return None
    if not sizes:
        return run[0]
    parts = (run[i : i + sizes[0]] for i in range(0, len(run), sizes[0]))
    return next(filter(None, (_first_unreadable(part, n_fields, *sizes[1:]) for part in parts)),
                None)


def _unreadable(lines: list[str], width: int) -> bool:
    """Whether np.loadtxt cannot read ``lines`` as a (len(lines), width) array of finite numbers."""
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return True
    return values.shape != (len(lines), width) or not np.isfinite(values).all()


def _line_fault(path, n_fields: int, lineno: int, text: str, col=None) -> ValueError:
    """The error for body line ``lineno``, ``text``: its field count, else its field ``col``,
    by default the first that np.loadtxt cannot read as a finite number."""
    cells, at = text.split(","), f"{path}: line {lineno}:"
    if len(cells) != n_fields:
        return ValueError(f"{at} expected {n_fields} fields, got {len(cells)}")
    if col is None:
        col = next(i for i, cell in enumerate(cells) if _unreadable([cell], 1))
    return ValueError(f"{at} field {col + 1} is not a finite number: {cells[col].strip()!r}")
