"""Spatial fingerprints, dictionaries, matched-filter localization, ambiguity.

A fingerprint stacks the two per-channel measurement vectors after unit
normalization, suppressing reflectivity and path-loss scale while keeping the
phase and relative-amplitude structure that encodes position. Localization is
an argmax similarity scan over a dictionary of candidate-position
fingerprints; ambiguity probes trace how similarity decays as a target is
displaced from a reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sweepsense.core import (
    DegenerateMeasurementError,
    FrequencyPlan,
    HeaderError,
    Measurement,
    check_rows,
    first_off_cell,
    line_error,
    open_bytes,
    range_of,
    read_table,
    table_text,
    write_table,
)
from sweepsense.dispersion import DispersionModel
from sweepsense.synth import AntennaModel, echo

HALF_POWER = 1.0 / math.sqrt(2.0)

_CHUNK_ROWS = 1024  # positions per echo batch: amortises calls, bounds temporaries
SCORE_CELLS = 2**14  # entry x trial scores per sweep batch: bounds its temporaries


@dataclass(frozen=True)
class Fingerprint:
    """Concatenated unit-norm channel vectors, x half then y half (length 2M)."""

    vector: np.ndarray = field(repr=False)
    plan: FrequencyPlan

    def __post_init__(self) -> None:
        vec = np.array(self.vector, dtype=np.complex128, copy=True)
        m = self.plan.n_points
        if vec.shape != (2 * m,):
            raise ValueError(f"fingerprint must have length {2 * m}, got {vec.shape}")
        for name, half in (("x", vec[:m]), ("y", vec[m:])):
            norm = np.linalg.norm(half)
            if abs(norm - 1.0) > 1e-9:
                raise ValueError(f"{name} half must be unit-norm, got {norm!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)


def _normalize(s: np.ndarray, describe) -> np.ndarray:
    """Unit-normalize each channel of (N, 2, M) echoes into (N, 2M) rows.

    A channel whose sum of squares overflows or is not a normal double is
    first divided by its largest |component|. An all-zero channel, or a
    sample that is not finite, raises DegenerateMeasurementError naming the
    first such row i as ``describe(i)``.
    """
    parts = s.view(np.float64)  # (N, 2, 2M): each channel's (re, im) pairs
    squares = np.einsum("ijk,ijk->ij", parts, parts)
    extreme = ~((np.finfo(float).tiny <= squares) & (squares < math.inf))
    if extreme.any():
        peak = np.abs(parts).max(axis=-1)  # NaN or inf where a sample is not finite
        if not np.isfinite(peak).all():
            i = int(np.argmin(np.isfinite(peak).all(axis=1)))
            raise DegenerateMeasurementError(f"{describe(i)} has a sample that is not finite")
        if not peak.all():
            i = int(np.argmin(peak.min(axis=1)))
            raise DegenerateMeasurementError(f"{describe(i)} has a zero-norm channel")
        parts = parts / np.where(extreme, peak, 1.0)[..., None]
        squares = np.where(extreme, np.einsum("ijk,ijk->ij", parts, parts), squares)
    return (parts / np.sqrt(squares)[..., None]).view(np.complex128).reshape(len(s), -1)


def build_fingerprint(meas: Measurement) -> Fingerprint:
    """Normalize each channel to unit norm and concatenate."""
    rows = _normalize(np.stack([meas.s_x, meas.s_y])[None], lambda _: "measurement")
    return Fingerprint(rows[0], meas.plan)


def _scores(rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Similarity of each (2M,) row to each fingerprint of the (T, 2M) ``block``.

    Returns (N, T): the mean over channels of |<row, fingerprint>|, from one
    matrix product per channel. ``rows`` is passed to BLAS as strided halves,
    without a copy; with T = 1 the product is a matrix-vector one.
    """
    m = block.shape[-1] // 2
    x = rows[:, :m] @ np.conj(block[:, :m]).T
    y = rows[:, m:] @ np.conj(block[:, m:]).T
    return 0.5 * (np.abs(x) + np.abs(y))


@dataclass(frozen=True)
class PositionGrid:
    """Axis-aligned candidate-position box, enumerated x-fastest then y then z."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        ranges = (self.x_range, self.y_range, self.z_range)
        for name, (lo, hi) in zip("xyz", ranges):
            if not lo <= hi:
                raise ValueError(f"{name}_range must satisfy lo <= hi, got ({lo}, {hi})")
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("grid counts must all be >= 1")
        if self.z_range[0] <= 0.0:
            raise ValueError("z range must be strictly positive (forward half-space)")
        range_of([max(map(abs, r)) for r in ranges])  # GeometryError unless finite at any corner

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    def axis_points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x_range[0], self.x_range[1], self.nx),
            np.linspace(self.y_range[0], self.y_range[1], self.ny),
            np.linspace(self.z_range[0], self.z_range[1], self.nz),
        )

    def indices(self) -> np.ndarray:
        """Integer (ix, iy, iz) triples, shape (size, 3), x index varying fastest."""
        return np.column_stack(np.indices((self.nz, self.ny, self.nx)).reshape(3, -1)[::-1])

    def points(self) -> np.ndarray:
        """All grid positions, shape (size, 3), in the order of indices()."""
        return np.column_stack([axis[i] for axis, i in zip(self.axis_points(), self.indices().T)])


@dataclass(frozen=True)
class Dictionary:
    """Noiseless unit-reflectivity fingerprints, one row of entries per grid position."""

    grid: PositionGrid
    entries: np.ndarray = field(repr=False)  # (size, 2M) complex rows

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.complex128)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def n_points(self) -> int:  # frequency points per channel (M)
        return self.entries.shape[1] // 2

    @property
    def positions(self) -> np.ndarray:  # (size, 3)
        return self.grid.points()


def _fingerprint_rows(
    positions: np.ndarray,
    plan: FrequencyPlan,
    model: DispersionModel,
    antenna: AntennaModel,
    describe,
):
    """Yield (start, rows): unit-reflectivity fingerprints, _CHUNK_ROWS at a time.

    Echoes go into one block reused for every chunk; the rows are new arrays.
    """
    block = np.empty((min(len(positions), _CHUNK_ROWS), 2, plan.n_points), dtype=np.complex128)
    for start in range(0, len(positions), _CHUNK_ROWS):
        chunk = positions[start : start + _CHUNK_ROWS]
        s = echo(chunk, 1.0, plan, model, antenna, out=block[: len(chunk)])
        yield start, _normalize(s, lambda i: describe(start + i))


def build_dictionary(
    grid: PositionGrid,
    plan: FrequencyPlan,
    model: DispersionModel,
    antenna: AntennaModel,
    workers: int | None = None,
) -> Dictionary:
    """Fingerprint every grid position (noiseless, unit reflectivity).

    Entries are ordered by grid index; ``workers`` (>= 1) changes neither
    result nor code path. Grid points must lie far enough inside the scanned
    field of view that every channel has non-vanishing gain somewhere.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    positions = grid.points()
    entries = np.empty((grid.size, 2 * plan.n_points), dtype=np.complex128)

    def describe(i: int) -> str:
        return f"grid index {i} at position {tuple(positions[i].tolist())}"

    for start, rows in _fingerprint_rows(positions, plan, model, antenna, describe):
        entries[start : start + len(rows)] = rows
    return Dictionary(grid, entries)


@dataclass(frozen=True)
class LocalizationResult:
    position: np.ndarray
    score: float
    index: int


def localize_batch(block: np.ndarray, dictionary: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Best-matching dictionary entry for each fingerprint of a (T, 2M) block.

    Returns the grid indices and their similarity scores, both of length T.
    Ties resolve to the lowest grid index.
    """
    if block.shape[-1] != 2 * dictionary.n_points:
        raise ValueError(
            f"measurement has {block.shape[-1] // 2} frequency points but the "
            f"dictionary was built with {dictionary.n_points}"
        )
    scores = _scores(dictionary.entries, block)
    indices = np.argmax(scores, axis=0)  # first maximum == lowest grid index
    return indices, scores[indices, np.arange(len(indices))]


def localize(meas: Measurement, dictionary: Dictionary) -> LocalizationResult:
    """Best-matching dictionary position for a measurement.

    The one-measurement case of ``localize_batch``. The score is the
    similarity of the measurement's fingerprint to the winning entry.
    """
    [idx], [score] = localize_batch(build_fingerprint(meas).vector[None], dictionary)
    return LocalizationResult(
        position=dictionary.positions[idx].copy(),
        score=float(score),
        index=int(idx),
    )


def _displace(p0: np.ndarray, axis, deltas: np.ndarray) -> np.ndarray:
    """Positions p0 displaced by each of ``deltas`` along ``axis``, shape (K, 3)."""
    if isinstance(axis, str):
        kind = axis.lower()
        x, y, z = p0
        if kind == "range":
            return p0 * (1.0 + deltas / range_of(p0))[:, None]
        c, s = np.cos(deltas), np.sin(deltas)
        if kind == "azimuth":  # rotate in the x-z plane, range preserved
            return np.column_stack([x * c + z * s, np.full_like(c, y), -x * s + z * c])
        if kind == "elevation":  # rotate in the y-z plane
            return np.column_stack([np.full_like(c, x), y * c + z * s, -y * s + z * c])
        raise ValueError(f"unknown probe axis {axis!r}")
    direction = np.asarray(axis, dtype=float)
    return p0 + deltas[:, None] * direction / _direction_norm(direction)


def _direction_norm(direction) -> float:
    """Norm of a probe direction; ValueError unless it is a 3-vector of finite nonzero norm.

    Components that are each finite and not all zero can still underflow
    the norm to 0 or overflow it to inf.
    """
    direction = np.asarray(direction, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(direction) if direction.shape == (3,) else 0.0
    if not 0.0 < norm < math.inf:
        raise ValueError("probe direction must be a 3-vector of finite nonzero norm")
    return float(norm)


def half_power_width(offsets: np.ndarray, values: np.ndarray) -> float | None:
    """Smallest |offset| where a curve first drops below HALF_POWER.

    The curve is walked outward from offset 0 separately on each sign, with
    linear interpolation between samples; the similarity at offset 0 is 1 by
    definition and anchors each branch. Returns None if no crossing occurs
    within the sampled span.
    """
    offsets = np.asarray(offsets, dtype=float)
    values = np.asarray(values, dtype=float)
    crossings = []
    for sign in (1.0, -1.0):
        mask = (offsets * sign) > 0.0
        branch_off = np.abs(offsets[mask])
        branch_val = values[mask]
        order = np.argsort(branch_off)
        prev_off, prev_val = 0.0, 1.0
        for off, val in zip(branch_off[order], branch_val[order]):
            if val < HALF_POWER:
                crossings.append(
                    prev_off + (prev_val - HALF_POWER) / (prev_val - val) * (off - prev_off)
                )
                break
            prev_off, prev_val = off, val
    return min(crossings) if crossings else None


@dataclass(frozen=True)
class AmbiguityCurve:
    offsets: np.ndarray
    similarities: np.ndarray
    width: float | None  # half-power width, same unit as offsets


def ambiguity_probe(
    p0,
    axis,
    offsets,
    plan: FrequencyPlan,
    model: DispersionModel,
    antenna: AntennaModel,
) -> AmbiguityCurve:
    """Similarity of F(p0) against fingerprints at displaced positions.

    ``axis`` is a unit direction vector (offsets in meters along it), one of
    the angular tokens "azimuth"/"elevation" (offsets in radians, rotating p0
    about the origin in the respective plane), or "range" (offsets in meters
    along the line of sight). Probed positions must stay in the forward
    half-space.
    """
    p0 = np.asarray(p0, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    [(_, ref)] = _fingerprint_rows(p0[None], plan, model, antenna, lambda _: "reference p0")
    positions = _displace(p0, axis, offsets)
    sims = np.empty(offsets.shape, dtype=float)
    unit = "rad" if isinstance(axis, str) and axis.lower() != "range" else "m"

    def describe(i: int) -> str:
        return f"probe offset {offsets[i]:g} {unit}"

    for start, rows in _fingerprint_rows(positions, plan, model, antenna, describe):
        sims[start : start + len(rows)] = _scores(rows, ref)[:, 0]
    return AmbiguityCurve(
        offsets=offsets, similarities=sims, width=half_power_width(offsets, sims)
    )


def _csv_header(m: int) -> str:
    pairs = [f"{part}_{q}" for q in range(2 * m) for part in ("re", "im")]
    return ",".join(["ix", "iy", "iz", "x", "y", "z"] + pairs)


def _table(dictionary: Dictionary) -> tuple[str, tuple]:
    """Header and column groups of a dictionary's CSV: indices, positions, re/im pairs."""
    entries = np.ascontiguousarray(dictionary.entries).view(np.float64)
    return _csv_header(dictionary.n_points), (dictionary.grid.indices(), dictionary.positions,
                                              entries)


def export_dictionary(dictionary: Dictionary, path) -> str | None:
    """Write a dictionary as portable CSV (indices, position, re/im pairs).

    ``path`` may also be an open text file such as sys.stdout; with None the
    text is returned instead.
    """
    return write_table(path, *_table(dictionary), n_int=3)


def import_dictionary(path, dictionary: Dictionary) -> None:
    """Check that the CSV at ``path`` is ``dictionary``, the one the config builds.

    A file of the bytes export_dictionary prints for it passes without being
    parsed; the comparison stops at the first block of text that differs.
    Any other file is read with read_table: line 1 must be the header for
    its M, the rows must list its grid in index order at its positions
    (core.check_rows), and every entry cell must match within the print
    tolerance (core.first_off_cell); otherwise ValueError names the line,
    and for an entry its column. A pipe or FIFO is read once.
    """
    header, groups = _table(dictionary)
    indices, positions, expected = groups
    with open_bytes(path) as fh:
        blocks = (text.encode("ascii") for text in table_text(header, groups, n_int=3))
        if all(fh.read(len(data)) == data for data in blocks) and not fh.read(1):
            return
        try:
            body = read_table(path, header, fh)
        except HeaderError as exc:
            m = (len(exc.fields) - 6) // 4
            if ",".join(exc.fields) != _csv_header(m):
                raise
            message = f"has {m} frequency points but the plan expects {dictionary.n_points}"
            raise ValueError(f"{path}: line 1: {message}") from None
        check_rows(path, body, np.hstack([indices, positions]), "ix,iy,iz,x,y,z", fh)
        off = first_off_cell(body[:, 6:], expected)
        if off is not None:
            row, col = off
            message = (f"expected {header.split(',')[6 + col]} = {expected[row, col]:.10g} "
                       f"(from the config), got {body[row, 6 + col]:.10g}")
            raise line_error(path, row, message, fh)
