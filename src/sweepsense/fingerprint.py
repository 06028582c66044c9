"""Spatial fingerprints, dictionaries, matched-filter localization, ambiguity.

A fingerprint stacks the two per-channel measurement vectors after unit
normalization, suppressing reflectivity and path-loss scale while keeping the
phase and relative-amplitude structure that encodes position. Localization is
an argmax similarity scan over a dictionary of candidate-position
fingerprints; ambiguity probes trace how similarity decays as a target is
displaced from a reference point.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math

import numpy as np

from sweepsense.core import (
    DegenerateMeasurementError,
    FrequencyPlan,
    GeometryError,
    HeaderError,
    Measurement,
    Record,
    check_rows,
    open_bytes,
    range_of,
    read_table,
    table_text,
)
from sweepsense.dispersion import DispersionModel
from sweepsense.synth import AntennaModel, echo

HALF_POWER = 1.0 / math.sqrt(2.0)

CHUNK_ROWS = 256  # positions per echo batch and rows per score call: bounds temporaries


class Fingerprint(Record, hidden=("vector",), arrays={"vector": complex}):
    """Concatenated unit-norm channel vectors, x half then y half (length 2M)."""

    vector: np.ndarray
    plan: FrequencyPlan

    def __post_init__(self) -> None:
        vec = self.vector
        m = self.plan.n_points
        if vec.shape != (2 * m,):
            raise ValueError(f"fingerprint must have length {2 * m}, got {vec.shape}")
        for name, half in (("x", vec[:m]), ("y", vec[m:])):
            norm = np.linalg.norm(half)
            if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
                raise ValueError(f"{name} half must be unit-norm, got {norm}")


def normalize(s: np.ndarray, describe) -> np.ndarray:
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
    rows = normalize(np.stack([meas.s_x, meas.s_y])[None], lambda _: "measurement")
    return Fingerprint(rows[0], meas.plan)


def _scores(rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Similarity of each (2M,) row to each fingerprint of the (T, 2M) ``block``.

    Returns (N, T): the mean over channels of |<row, fingerprint>|, from one
    matrix product per channel. ``rows`` is passed to BLAS as strided halves,
    without a copy; with T = 1 the product is a matrix-vector one. One row is
    scored as two copies of it, since numpy's vector product rounds differently.
    """
    if len(rows) == 1:
        return _scores(np.concatenate([rows, rows]), block)[:1]
    m = block.shape[-1] // 2
    x = np.abs(rows[:, :m] @ np.conj(block[:, :m]).T)
    x += np.abs(rows[:, m:] @ np.conj(block[:, m:]).T)
    x *= 0.5
    return x


def _nearest_zero(lo: float, hi: float, n: int) -> float:
    """The sample of np.linspace(lo, hi, n) nearest 0, found without building the axis.

    numpy computes sample k < n - 1 as k * step + lo, with step = (hi - lo) / (n - 1), or
    as k / (n - 1) * (hi - lo) + lo where that step underflows to 0, and sets the last to
    hi. Those are nondecreasing in k, so a bisection finds the first that is >= 0.
    """
    if n == 1:
        return lo
    div = float(n - 1)
    step = (hi - lo) / div

    def sample(k: int) -> float:
        return float(k) * step + lo if step else float(k) / div * (hi - lo) + lo

    first = bisect.bisect_left(range(n - 1), 0.0, key=sample)  # n - 1 if every one is < 0
    return min([sample(k) for k in (first - 1, first) if 0 <= k < n - 1] + [hi], key=abs)


class PositionGrid(Record):
    """Axis-aligned candidate-position box, enumerated x-fastest then y then z."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        for name in ("x_range", "y_range", "z_range"):
            lo, hi = map(float, getattr(self, name))
            object.__setattr__(self, name, (lo, hi))  # a tuple of floats, not the caller's list
            if not lo <= hi:
                raise ValueError(f"{name} must satisfy lo <= hi, got ({lo}, {hi})")
        ranges = (self.x_range, self.y_range, self.z_range)
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("grid counts must all be >= 1")
        if self.z_range[0] <= 0.0:
            raise ValueError("z range must be strictly positive (forward half-space)")
        range_of([max(r, key=abs) for r in ranges])  # GeometryError naming the farthest corner
        counts = (self.nx, self.ny, self.nz)
        near = tuple(_nearest_zero(lo, hi, n) for (lo, hi), n in zip(ranges, counts))
        try:
            range_of(near)
        except GeometryError:
            raise GeometryError(f"the grid point nearest the origin, {near}, has a range "
                                "that underflows to 0") from None

    @property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    def indices(self) -> np.ndarray:
        """Integer (ix, iy, iz) triples, shape (size, 3), x index varying fastest."""
        return np.column_stack(np.indices((self.nz, self.ny, self.nx)).reshape(3, -1)[::-1])

    def points(self) -> np.ndarray:
        """All grid positions, shape (size, 3), in the order of indices()."""
        axes = (
            np.linspace(self.x_range[0], self.x_range[1], self.nx),
            np.linspace(self.y_range[0], self.y_range[1], self.ny),
            np.linspace(self.z_range[0], self.z_range[1], self.nz),
        )
        return np.column_stack([axis[i] for axis, i in zip(axes, self.indices().T)])


class Dictionary(Record):
    """Noiseless unit-reflectivity fingerprints of a grid's positions, one row per grid
    index. Each pass over chunks() builds the rows CHUNK_ROWS at a time; ``entries``
    builds all of them on first use and keeps them."""

    grid: PositionGrid
    plan: FrequencyPlan
    model: DispersionModel
    antenna: AntennaModel

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def n_points(self) -> int:  # frequency points per channel (M)
        return self.plan.n_points

    @property
    def positions(self) -> np.ndarray:  # (size, 3)
        return self.grid.points()

    @functools.cached_property
    def entries(self) -> np.ndarray:  # (size, 2M) complex rows, read-only
        entries = np.empty((self.size, 2 * self.n_points), dtype=np.complex128)
        for start, rows in self.chunks():
            entries[start : start + len(rows)] = rows
        entries.setflags(write=False)
        return entries

    def chunks(self):
        """Yield (start, rows): the fingerprints of the grid, CHUNK_ROWS at a time."""
        positions = self.grid.points()
        return _fingerprint_rows(
            positions, self.plan, self.model, self.antenna,
            lambda i: f"grid index {i} at position {tuple(positions[i].tolist())}")


def _fingerprint_rows(
    positions: np.ndarray,
    plan: FrequencyPlan,
    model: DispersionModel,
    antenna: AntennaModel,
    describe,
):
    """Yield (start, rows): unit-reflectivity fingerprints, CHUNK_ROWS at a time.

    Echoes go into one block reused for every chunk; the rows are new arrays.
    """
    block = np.empty((min(len(positions), CHUNK_ROWS), 2, plan.n_points), dtype=np.complex128)
    for start in range(0, len(positions), CHUNK_ROWS):
        chunk = positions[start : start + CHUNK_ROWS]
        s = echo(chunk, plan, model, antenna, out=block[: len(chunk)])
        yield start, normalize(s, lambda i: describe(start + i))


def build_dictionary(
    grid: PositionGrid,
    plan: FrequencyPlan,
    model: DispersionModel,
    antenna: AntennaModel,
    workers: int = 1,
) -> Dictionary:
    """Fingerprint every grid position (noiseless, unit reflectivity).

    Entries are ordered by grid index; ``workers`` (>= 1) changes neither
    result nor code path. Grid points must lie far enough inside the scanned
    field of view that every channel has non-vanishing gain somewhere.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    dictionary = Dictionary(grid, plan, model, antenna)
    dictionary.entries  # every row is built here: one that cannot be normalized raises
    return dictionary


class LocalizationResult(Record, arrays={"position": float}):
    position: np.ndarray
    score: float
    index: int


def localize_batch(blocks, dictionary, dict_path=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Best-matching dictionary entry for each fingerprint of each (T, 2M) block of ``blocks``.

    Returns, per block, the grid indices and similarity scores of its T fingerprints.
    One pass builds the rows a chunk at a time and scores each block against each
    chunk, so a block's scores have the bits they have alone; a later chunk takes a
    fingerprint only with a strictly higher score, so ties resolve to the lowest grid
    index. With a ``dict_path``, the same pass checks that the CSV there is
    ``dictionary`` (_check_file); with no blocks it only checks the file.
    """
    for block in blocks:
        if block.shape[-1] != 2 * dictionary.n_points:
            raise ValueError(f"measurement has {block.shape[-1] // 2} frequency points but "
                             f"the dictionary was built with {dictionary.n_points}")
    found = [(np.zeros(len(block), dtype=np.intp), np.full(len(block), -math.inf))
             for block in blocks]

    def score(chunk):
        start, rows = chunk
        for block, (indices, best) in zip(blocks, found):
            scores = _scores(rows, block)
            top = np.argmax(scores, axis=0)  # the first maximum within the chunk
            got = scores[top, np.arange(len(block))]
            won = got > best
            indices[won] = start + top[won]
            best[won] = got[won]
        return chunk

    chunks = map(score, dictionary.chunks())  # map holds no chunk once it is scored
    try:
        if dict_path is not None:
            _check_file(dict_path, dictionary, chunks)
    finally:  # draws every chunk left, holding none
        collections.deque(chunks, maxlen=0)  # a row's error is raised here, over the file's
    return found


def localize(meas: Measurement, dictionary) -> LocalizationResult:
    """Best-matching dictionary position for a measurement.

    The one-measurement case of ``localize_batch``. The score is the
    similarity of the measurement's fingerprint to the winning entry.
    """
    [([idx], [score])] = localize_batch([build_fingerprint(meas).vector[None]], dictionary)
    return LocalizationResult(
        position=dictionary.grid.points()[idx],
        score=float(score),
        index=int(idx),
    )


def _displace(p0: np.ndarray, axis, deltas: np.ndarray) -> np.ndarray:
    """Positions p0 displaced by each of ``deltas`` along ``axis``, shape (K, 3)."""
    if isinstance(axis, str):
        x, y, z = p0
        if axis == "range":
            return p0 * (1.0 + deltas / range_of(p0))[:, None]
        c, s = np.cos(deltas), np.sin(deltas)
        if axis == "azimuth":  # rotate in the x-z plane, range preserved
            return np.column_stack([x * c + z * s, np.full_like(c, y), -x * s + z * c])
        if axis == "elevation":  # rotate in the y-z plane
            return np.column_stack([np.full_like(c, x), y * c + z * s, -y * s + z * c])
        raise ValueError(f"unknown probe axis {axis!r}")
    direction = np.asarray(axis, dtype=float)
    return p0 + deltas[:, None] * direction / direction_norm(direction)


def direction_norm(direction) -> float:
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
    crossings = []
    for sign in (1.0, -1.0):
        mask = (offsets * sign) > 0.0
        order = np.argsort(np.abs(offsets[mask]))
        off, val = np.r_[0.0, np.abs(offsets[mask][order])], np.r_[1.0, values[mask][order]]
        for k in np.flatnonzero(val < HALF_POWER)[:1]:  # the first below, never 0, the anchor
            (o0, o1), (v0, v1) = off[k - 1 : k + 1], val[k - 1 : k + 1]
            crossings.append(o0 + (v0 - HALF_POWER) / (v0 - v1) * (o1 - o0))
    return min(crossings) if crossings else None


class AmbiguityCurve(Record, arrays={"similarities": float}):
    similarities: np.ndarray  # one per offset probed
    width: float | None  # half-power width, same unit as the offsets


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
    describe = lambda i: f"probe position {i} at {tuple(positions[i].tolist())}"
    for start, rows in _fingerprint_rows(positions, plan, model, antenna, describe):
        sims[start : start + len(rows)] = _scores(rows, ref)[:, 0]
    return AmbiguityCurve(similarities=sims, width=half_power_width(offsets, sims))


def _csv_header(m: int) -> str:
    pairs = [f"{part}_{q}" for q in range(2 * m) for part in ("re", "im")]
    return ",".join(["ix", "iy", "iz", "x", "y", "z"] + pairs)


def dictionary_text(dictionary, chunks=None):
    """The table_text of a Dictionary's CSV (indices, position, re/im pairs), printing the
    rows ``chunks`` yields, by default its chunks(), as they come."""
    chunks = dictionary.chunks() if chunks is None else chunks
    indices, positions = dictionary.grid.indices(), dictionary.grid.points()

    def table(chunk):
        start, rows = chunk
        stop = start + len(rows)
        return indices[start:stop], positions[start:stop], np.ascontiguousarray(rows).view(float)

    return table_text(_csv_header(dictionary.n_points), map(table, chunks), n_int=3)


def _check_file(path, dictionary, chunks) -> None:
    """Check that the CSV at ``path`` is ``dictionary``, the one the config builds, against
    the rows ``chunks`` yields.

    A file of the bytes dictionary_text prints for it passes without being
    parsed; the comparison prints one chunk of rows at a time and stops at
    the first block of text that differs. localize_batch draws the chunks
    left, so an error of the dictionary's own comes before any error of the
    file. Any other file is read with read_table: line 1 must be the header
    for its M, and the rows must list its grid in index order at its
    positions. Only then are the full entries built again, and every entry
    cell must match them. core.check_rows checks the keys, then the entries,
    and its ValueError names the line and the column. A pipe or FIFO is read
    once.
    """
    with open_bytes(path) as fh:
        text = dictionary_text(dictionary, chunks)
        # map drops each block before the next is printed; a generator would hold it
        if all(map(lambda data: fh.read(len(data)) == data, text)) and not fh.read(1):
            return
        header = _csv_header(dictionary.n_points)
        try:
            body = read_table(path, header, fh)
        except HeaderError as exc:
            m = (len(exc.fields) - 6) // 4
            if ",".join(exc.fields) != _csv_header(m):
                raise
            message = f"has {m} frequency points but the plan expects {dictionary.n_points}"
            raise ValueError(f"{path}: line 1: {message}") from None
        names = header.split(",")
        keys = np.hstack([dictionary.grid.indices(), dictionary.grid.points()])
        check_rows(path, body[:, :6], keys, names, fh)
        expected = np.ascontiguousarray(dictionary.entries).view(np.float64)
        check_rows(path, body[:, 6:], expected, names[6:], fh)
