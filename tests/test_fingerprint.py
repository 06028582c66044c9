"""Fingerprints, similarity, dictionaries, localization, ambiguity probes."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sweepsense.core import (
    DegenerateMeasurementError,
    FrequencyPlan,
    GeometryError,
    Measurement,
    Scene,
    Target,
    open_bytes,
    read_table,
    write_text,
)
from sweepsense.dispersion import LinearSineDispersion
from sweepsense.fingerprint import (
    CHUNK_ROWS,
    HALF_POWER,
    Dictionary,
    Fingerprint,
    PositionGrid,
    _csv_header,
    _displace,
    _fingerprint_rows,
    _nearest_zero,
    _scores,
    ambiguity_probe,
    build_dictionary,
    build_fingerprint,
    dictionary_text,
    half_power_width,
    localize,
    localize_batch,
    normalize,
)
from sweepsense.synth import AntennaModel, echo, simulate_measurement

PLAN8 = FrequencyPlan(60e9, 66e9, 8)
MODEL8 = LinearSineDispersion.for_plan(PLAN8)
ANT = AntennaModel()
# Wide-beam variant for matching tests: with the 12 cm default at M = 8 the
# swept beam is so narrow that each channel reduces to one dominant sample and
# distinct grid cells tie at similarity 1; a short line keeps several
# frequency points illuminated so fingerprints stay discriminative.
ANT_WIDE = AntennaModel(length=0.012)


def meas(plan, s_x, s_y):
    return Measurement(plan, np.asarray(s_x, complex), np.asarray(s_y, complex))


def unit_measurement(position, plan=PLAN8, model=MODEL8, antenna=ANT, refl=1.0 + 0.0j):
    scene = Scene(targets=(Target(tuple(position), refl),))
    return simulate_measurement(scene, plan, model, antenna)


def axis_points(grid):
    """The x, y and z samples of a grid, each np.linspace over its range."""
    return (
        np.linspace(*grid.x_range, grid.nx),
        np.linspace(*grid.y_range, grid.ny),
        np.linspace(*grid.z_range, grid.nz),
    )


@dataclass(frozen=True)
class Entries:
    """Hand-made entries of a grid, scored and printed as a Dictionary's rows are."""

    grid: PositionGrid
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def n_points(self) -> int:
        return self.entries.shape[1] // 2

    def chunks(self):
        return ((start, self.entries[start : start + CHUNK_ROWS])
                for start in range(0, len(self.entries), CHUNK_ROWS))


def similarity(a: Fingerprint, b: Fingerprint) -> float:
    """Oracle for the matched-filter score: the mean of the per-channel |<a, b>|."""
    if a.plan.n_points != b.plan.n_points:
        raise ValueError(
            f"fingerprint size mismatch: {a.plan.n_points} vs {b.plan.n_points} points"
        )
    m = a.plan.n_points
    return 0.5 * sum(abs(np.vdot(b.vector[h], a.vector[h])) for h in (slice(m), slice(m, None)))


class TestNormalize:
    def test_halves_are_unit_norm(self):
        rng = np.random.default_rng(4)
        scale = 10.0 ** rng.integers(-150, 150, (50, 2, 1))
        s = (rng.normal(size=(50, 2, 37)) + 1j * rng.normal(size=(50, 2, 37))) * scale
        rows = normalize(s, str)
        assert rows.shape == (50, 74)
        halves = rows.reshape(50, 2, 37)
        np.testing.assert_allclose(np.linalg.norm(halves, axis=-1), 1.0, rtol=0, atol=1e-15)
        # each half keeps its direction: the scale alone is divided out
        np.testing.assert_allclose(halves * np.linalg.norm(s, axis=-1, keepdims=True), s,
                                   rtol=1e-14)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e-160, 1.0, 1e160, 1e200, 1e300])
    def test_scale_is_divided_out_at_any_scale(self, scale):
        # sums of squares overflow beyond about 1e154 and leave the normal range below 1e-154
        rng = np.random.default_rng(9)
        s = rng.normal(size=(3, 2, 16)) + 1j * rng.normal(size=(3, 2, 16))
        s[1, 0, 1:] = 0.0  # one nonzero sample is enough
        expected = normalize(s, str)
        rows = normalize(s * scale, str)
        np.testing.assert_allclose(rows, expected, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(rows.reshape(3, 2, 16), axis=-1), 1.0,
                                   rtol=0, atol=1e-15)

    def test_rows_in_the_normal_range_keep_their_bits(self):
        rng = np.random.default_rng(10)
        s = rng.normal(size=(4, 2, 8)) + 1j * rng.normal(size=(4, 2, 8))
        mixed = s.copy()
        mixed[1, 1] *= 1e300
        mixed[2, 0] *= 1e-200
        rows, plain = normalize(mixed, str), normalize(s, str)
        for i in (0, 3):
            np.testing.assert_array_equal(rows[i].view(np.uint64), plain[i].view(np.uint64))
        np.testing.assert_array_equal(rows[1, :8].view(np.uint64), plain[1, :8].view(np.uint64))
        np.testing.assert_allclose(rows[1:3], plain[1:3], rtol=1e-13, atol=1e-15)

    def test_only_an_all_zero_channel_is_degenerate(self):
        s = np.zeros((1, 2, 3), dtype=np.complex128)
        s[0, :, 1] = 5e-324  # the smallest subnormal double
        np.testing.assert_array_equal(normalize(s, str), [[0, 1, 0, 0, 1, 0]])

    def test_zero_norm_channel_names_the_first_such_row(self):
        s = np.ones((4, 2, 3), dtype=np.complex128)
        s[2, 1] = 0.0
        s[3, 0] = 0.0
        with pytest.raises(DegenerateMeasurementError) as err:
            normalize(s, lambda i: f"grid index {i}")
        assert str(err.value) == "grid index 2 has a zero-norm channel"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_sample_names_the_first_such_row(self, bad):
        s = np.ones((4, 2, 3), dtype=np.complex128)
        s[1, 1, 2] = bad
        s[3, 0, 0] = bad
        with pytest.raises(DegenerateMeasurementError) as err:
            normalize(s, lambda i: f"grid index {i}")
        assert str(err.value) == "grid index 1 has a sample that is not finite"


class TestBuildFingerprint:
    def test_normalizes_each_half(self):
        plan = FrequencyPlan(60e9, 66e9, 2)
        fp = build_fingerprint(meas(plan, [2.0, 0.0], [0.0, 3.0j]))
        np.testing.assert_allclose(fp.vector, [1.0, 0.0, 0.0, 1.0j], atol=1e-15)

    def test_scale_invariance(self):
        plan = FrequencyPlan(60e9, 66e9, 4)
        s_x = np.array([1 + 2j, -0.5j, 3.0, 0.25 - 1j])
        s_y = np.array([0.5, 1j, -1.0, 2 + 2j])
        a = build_fingerprint(meas(plan, s_x, s_y))
        b = build_fingerprint(meas(plan, 7.5 * s_x, s_y))
        np.testing.assert_allclose(a.vector, b.vector, atol=1e-15)

    def test_length_is_twice_plan(self):
        fp = build_fingerprint(unit_measurement((0, 0, 3.0), FrequencyPlan(60e9, 66e9, 128),
                                                LinearSineDispersion.for_plan(FrequencyPlan(60e9, 66e9, 128))))
        assert fp.vector.shape == (256,)

    def test_zero_channel_rejected(self):
        plan = FrequencyPlan(60e9, 66e9, 2)
        with pytest.raises(DegenerateMeasurementError):
            build_fingerprint(meas(plan, [0.0, 0.0], [1.0, 0.0]))

    def test_length_validated_on_construction(self):
        plan = FrequencyPlan(60e9, 66e9, 2)
        with pytest.raises(ValueError, match=r"^fingerprint must have length 4, got \(3,\)$"):
            Fingerprint(np.ones(3, complex), plan)

    def test_half_norms_validated_on_construction(self):
        plan = FrequencyPlan(60e9, 66e9, 2)
        with pytest.raises(ValueError, match="unit-norm"):
            Fingerprint(np.array([1.0, 1.0, 1.0, 0.0], complex), plan)

    def test_nan_vector_rejected_on_construction(self):
        # abs(nan - 1) > tol is False: the check must fail a norm that is not a number
        plan = FrequencyPlan(60e9, 66e9, 2)
        with pytest.raises(ValueError, match=r"^x half must be unit-norm, got nan$"):
            Fingerprint(np.full(4, np.nan + 0j), plan)


class TestSimilarity:
    def test_self_similarity_is_one(self):
        fp = build_fingerprint(unit_measurement((0.1, -0.05, 2.5)))
        assert similarity(fp, fp) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_halves_give_zero(self):
        plan = FrequencyPlan(60e9, 66e9, 2)
        a = build_fingerprint(meas(plan, [1.0, 0.0], [1.0, 0.0]))
        b = build_fingerprint(meas(plan, [0.0, 1.0], [0.0, 1.0]))
        assert similarity(a, b) == 0.0

    def test_global_phase_invariance(self):
        fp = build_fingerprint(unit_measurement((0.0, 0.2, 3.0)))
        rotated = Fingerprint(np.exp(1j * math.pi / 4) * fp.vector, fp.plan)
        assert similarity(fp, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        a = build_fingerprint(unit_measurement((0, 0, 3.0)))
        plan4 = FrequencyPlan(60e9, 66e9, 4)
        b = build_fingerprint(
            unit_measurement((0, 0, 3.0), plan4, LinearSineDispersion.for_plan(plan4))
        )
        with pytest.raises(ValueError, match="mismatch"):
            similarity(a, b)

    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, seed, m):
        rng = np.random.default_rng(seed)
        plan = FrequencyPlan(60e9, 66e9, m)

        def random_fp():
            v = rng.normal(size=2 * m) + 1j * rng.normal(size=2 * m)
            v[:m] /= np.linalg.norm(v[:m])
            v[m:] /= np.linalg.norm(v[m:])
            return Fingerprint(v, plan)

        a, b = random_fp(), random_fp()
        s_ab, s_ba = similarity(a, b), similarity(b, a)
        assert abs(s_ab - s_ba) < 1e-12
        assert _scores(a.vector[None], b.vector[None])[0, 0] == pytest.approx(s_ab, abs=1e-12)
        assert 0.0 <= s_ab <= 1.0 + 1e-12

    @pytest.mark.parametrize("t", [1, 64])
    def test_a_row_scored_alone_has_the_bits_it_has_among_others(self, t):
        # a chunk of one row, the last of a grid or probe of k * CHUNK_ROWS + 1 positions
        rng = np.random.default_rng(5)

        def unit_rows(n):
            return normalize(rng.normal(size=(n, 2, 128)) + 1j * rng.normal(size=(n, 2, 128)),
                             str)

        rows, block = unit_rows(512), unit_rows(t)
        alone = np.vstack([_scores(rows[i : i + 1], block) for i in range(len(rows))])
        np.testing.assert_array_equal(alone, _scores(rows, block))


class TestPositionGrid:
    def test_enumeration_is_x_fastest(self):
        grid = PositionGrid((0, 1), (0, 1), (1, 2), nx=2, ny=2, nz=2)
        pts = grid.points()
        assert pts.shape == (8, 3)
        np.testing.assert_allclose(pts[0], [0, 0, 1])
        np.testing.assert_allclose(pts[1], [1, 0, 1])
        np.testing.assert_allclose(pts[2], [0, 1, 1])
        np.testing.assert_allclose(pts[4], [0, 0, 2])

    def test_indices_align_with_points(self):
        grid = PositionGrid((0, 1), (-1, 1), (1, 3), nx=3, ny=2, nz=4)
        idx = grid.indices()
        pts = grid.points()
        xs, ys, zs = axis_points(grid)
        for row in range(grid.size):
            np.testing.assert_allclose(
                pts[row], [xs[idx[row, 0]], ys[idx[row, 1]], zs[idx[row, 2]]]
            )

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            PositionGrid((0, 1), (0, 1), (0.0, 2), nx=1, ny=1, nz=2)

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            PositionGrid((0, 1), (0, 1), (1, 2), nx=0, ny=1, nz=1)

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("bounds", [(-0.5, math.nan), (math.nan, 0.5), (math.nan, math.nan)])
    def test_rejects_nan_bound(self, axis, bounds):
        ranges = [(-0.5, 0.5), (-0.5, 0.5), (2.5, 3.5)]
        ranges[axis] = bounds
        with pytest.raises(ValueError, match=f"^{'xyz'[axis]}_range must satisfy lo <= hi"):
            PositionGrid(*ranges, nx=2, ny=2, nz=2)

    @given(st.floats(-1e154, 1e154), st.floats(-1e154, 1e154), st.integers(1, 2000))
    @settings(max_examples=300, deadline=None)
    def test_nearest_sample_to_zero_is_a_linspace_sample_of_least_magnitude(self, a, b, n):
        lo, hi = sorted((a, b))
        axis = np.linspace(lo, hi, n)
        nearest = _nearest_zero(lo, hi, n)
        assert abs(nearest) == np.abs(axis).min() and nearest in axis

    @pytest.mark.parametrize("lo, hi, n", [
        (-1.0, 1.0, 3), (-1.0, 1.0, 2), (-3e-200, 1e-200, 3), (2.0, 3.0, 5), (-3.0, -2.0, 5),
        (-5e-324, 5e-324, 3), (-1e-323, 5e-324, 4), (0.0, 1e-300, 10**6), (-1.0, 1.0, 1),
        # the step (hi - lo) / (n - 1) underflows to 0, and numpy scales k / (n - 1) instead
        (-5e-324, 5e-324, 5), (-1e-323, 5e-324, 7), (-5e-324, 1.5e-323, 1001),
    ])
    def test_nearest_sample_to_zero_at_edges(self, lo, hi, n):
        axis = np.linspace(lo, hi, n)
        assert _nearest_zero(lo, hi, n) == axis[np.argmin(np.abs(axis))]

    def test_rejects_a_point_whose_range_underflows_on_an_axis_too_large_to_build(self):
        # 2**60 + 1 samples of [-1, 1] hold 0; numpy could not size the axis
        with pytest.raises(GeometryError, match=r"nearest the origin, \(0\.0, 0\.0, 1e-200\)"):
            PositionGrid((-1.0, 1.0), (0.0, 0.0), (1e-200, 1.0), nx=2**60 + 1, ny=1, nz=1)

    def test_a_point_near_the_origin_whose_range_is_a_double_is_kept(self):
        grid = PositionGrid((-1.0, 1.0), (0.0, 0.0), (1e-200, 1.0), nx=2, ny=1, nz=2)
        assert grid.points()[0].tolist() == [-1.0, 0.0, 1e-200]


class TestDictionary:
    def test_single_point_matches_direct_fingerprint(self):
        grid = PositionGrid((0.1, 0.1), (0.0, 0.0), (3.0, 3.0), nx=1, ny=1, nz=1)
        d = build_dictionary(grid, PLAN8, MODEL8, ANT)
        assert d.size == 1
        direct = build_fingerprint(unit_measurement((0.1, 0.0, 3.0)))
        np.testing.assert_array_equal(d.entries[0], direct.vector)

    def test_two_by_one_order(self):
        grid = PositionGrid((-0.1, 0.1), (0.0, 0.0), (3.0, 3.0), nx=2, ny=1, nz=1)
        d = build_dictionary(grid, PLAN8, MODEL8, ANT)
        np.testing.assert_allclose(d.positions[0], [-0.1, 0.0, 3.0])
        np.testing.assert_allclose(d.positions[1], [0.1, 0.0, 3.0])

    def test_all_halves_unit_norm_on_cubic_grid(self):
        grid = PositionGrid((-0.3, 0.3), (-0.3, 0.3), (2.5, 3.5), nx=11, ny=11, nz=11)
        d = build_dictionary(grid, PLAN8, MODEL8, ANT)
        assert d.size == 1331
        m = d.n_points
        np.testing.assert_allclose(np.linalg.norm(d.entries[:, :m], axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(d.entries[:, m:], axis=1), 1.0, atol=1e-12)

    def test_rows_across_chunk_boundary_match_single_target_fingerprints(self):
        grid = PositionGrid((-0.3, 0.3), (-0.3, 0.3), (2.5, 3.5), nx=11, ny=11, nz=11)
        d = build_dictionary(grid, PLAN8, MODEL8, ANT)
        assert d.size == 1331  # more rows than one echo batch
        for row, pos in zip(d.entries, d.positions):
            direct = build_fingerprint(unit_measurement(pos))
            np.testing.assert_array_equal(row, direct.vector)

    def test_parallel_build_bit_identical(self):
        grid = PositionGrid((-0.2, 0.2), (-0.2, 0.2), (2.5, 3.5), nx=3, ny=3, nz=3)
        serial = build_dictionary(grid, PLAN8, MODEL8, ANT)
        threaded = build_dictionary(grid, PLAN8, MODEL8, ANT, workers=4)
        np.testing.assert_array_equal(serial.entries, threaded.entries)
        np.testing.assert_array_equal(serial.positions, threaded.positions)


def brute_force_localize(measurement, dictionary):
    """Independent reference scan: plain loop, explicit inner products."""
    fp = build_fingerprint(measurement)
    m = dictionary.n_points
    best_idx, best_score = 0, -1.0
    for i in range(dictionary.size):
        entry = dictionary.entries[i]
        sx = sum(entry[q] * np.conj(fp.vector[q]) for q in range(m))
        sy = sum(entry[m + q] * np.conj(fp.vector[m + q]) for q in range(m))
        score = 0.5 * (abs(sx) + abs(sy))
        if score > best_score:
            best_idx, best_score = i, score
    return best_idx, best_score


LOCALIZE_GRID = PositionGrid((-0.4, 0.4), (-0.4, 0.4), (2.0, 4.0), nx=5, ny=5, nz=5)


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(LOCALIZE_GRID, PLAN8, MODEL8, ANT_WIDE)


class TestLocalize:
    GRID = LOCALIZE_GRID

    def test_on_grid_target_recovered_exactly(self, dictionary):
        target_pos = dictionary.positions[62]  # an interior point
        result = localize(unit_measurement(target_pos, antenna=ANT_WIDE), dictionary)
        assert result.index == 62
        np.testing.assert_array_equal(result.position, target_pos)
        assert result.score == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_measurement_rejected(self, dictionary, bad):
        m = unit_measurement(dictionary.positions[62], antenna=ANT_WIDE)
        s_y = m.s_y.copy()
        s_y[3] = bad
        with pytest.raises(DegenerateMeasurementError,
                           match="^measurement has a sample that is not finite$"):
            localize(Measurement(PLAN8, m.s_x, s_y), dictionary)

    def test_matches_brute_force_scan(self, dictionary):
        rng = np.random.default_rng(11)
        for _ in range(5):
            pos = rng.uniform([-0.35, -0.35, 2.1], [0.35, 0.35, 3.9])
            m = unit_measurement(pos, antenna=ANT_WIDE)
            fast = localize(m, dictionary)
            idx, score = brute_force_localize(m, dictionary)
            assert fast.index == idx
            assert fast.score == pytest.approx(score, rel=1e-9)

    def test_off_grid_target_lands_within_one_spacing(self):
        # the grid's z extent must fit inside the unambiguous range window
        # c * M / (2 B) of the frequency sampling (0.8 m at M = 32)
        plan = FrequencyPlan(60e9, 66e9, 32)
        model = LinearSineDispersion.for_plan(plan)
        # beamwidth balancing angular vs range discrimination on this grid
        ant = AntennaModel(length=0.025)
        grid = PositionGrid((-0.4, 0.4), (-0.4, 0.4), (2.7, 3.3), nx=5, ny=5, nz=5)
        d = build_dictionary(grid, plan, model, ant)
        xs, ys, zs = axis_points(grid)
        steps = np.array([xs[1] - xs[0], ys[1] - ys[0], zs[1] - zs[0]])
        rng = np.random.default_rng(4)
        for _ in range(10):
            pos = rng.uniform([-0.35, -0.35, 2.75], [0.35, 0.35, 3.25])
            result = localize(
                unit_measurement(pos, plan, model, antenna=ant), d
            )
            assert np.all(np.abs(result.position - pos) <= steps + 1e-12)

    def test_scaled_measurement_same_argmax(self, dictionary):
        pos = dictionary.positions[31]
        base = unit_measurement(pos, antenna=ANT_WIDE)
        scaled = Measurement(
            base.plan,
            5 * np.exp(1j * math.pi / 3) * base.s_x,
            5 * np.exp(1j * math.pi / 3) * base.s_y,
        )
        assert localize(scaled, dictionary).index == localize(base, dictionary).index

    def test_reflectivity_scaling_leaves_argmax(self, dictionary):
        pos = tuple(dictionary.positions[44])
        rng = np.random.default_rng(8)
        gamma = complex(rng.normal(), rng.normal())
        a = localize(unit_measurement(pos, antenna=ANT_WIDE), dictionary)
        b = localize(unit_measurement(pos, antenna=ANT_WIDE, refl=gamma), dictionary)
        assert a.index == b.index

    def test_exact_tie_resolves_to_lowest_index(self):
        # two identical entries: argmax must pick index 0 deterministically
        grid = PositionGrid((0.0, 0.1), (0.0, 0.0), (3.0, 3.0), nx=2, ny=1, nz=1)
        entry = build_fingerprint(unit_measurement((0.0, 0.0, 3.0))).vector
        d = Entries(grid, np.vstack([entry, entry]))
        assert localize(unit_measurement((0.0, 0.0, 3.0)), d).index == 0

    def test_tie_across_chunks_resolves_to_the_lower_index(self):
        # the same entry at grid index 5 and, in the next chunk of rows, at 5 + CHUNK_ROWS
        grid = PositionGrid((0.0, 0.1), (0.0, 0.0), (3.0, 3.0), nx=CHUNK_ROWS + 6, ny=1, nz=1)
        entry = build_fingerprint(unit_measurement((0.0, 0.0, 3.0))).vector
        entries = np.zeros((grid.size, len(entry)), complex)
        entries[[5, CHUNK_ROWS + 5]] = entry
        assert localize(unit_measurement((0.0, 0.0, 3.0)), Entries(grid, entries)).index == 5

    def test_streamed_dictionary_gives_the_built_results(self, tmp_path):
        grid = PositionGrid((-0.4, 0.4), (-0.4, 0.4), (2.0, 4.0), nx=9, ny=9, nz=9)
        built = build_dictionary(grid, PLAN8, MODEL8, ANT_WIDE)
        streamed = Dictionary(grid, PLAN8, MODEL8, ANT_WIDE)
        assert grid.size > 2 * CHUNK_ROWS
        rows = np.concatenate([rows for _, rows in streamed.chunks()])
        assert rows.tobytes() == built.entries.tobytes()
        assert b"".join(dictionary_text(streamed)) == b"".join(dictionary_text(built))
        path = tmp_path / "dict.csv"
        write_text(path, dictionary_text(streamed))
        localize_batch([], streamed, path)
        rng = np.random.default_rng(6)
        positions = rng.uniform([-0.35, -0.35, 2.1], [0.35, 0.35, 3.9], size=(7, 3))
        block = np.stack([build_fingerprint(unit_measurement(p, antenna=ANT_WIDE)).vector
                          for p in positions])
        blocks = [block[:4], block[4:]]
        got = localize_batch(blocks, streamed, path)
        expected = localize_batch(blocks, built)
        assert len(got) == len(expected) == 2
        for (got_idx, got_score), (idx, score) in zip(got, expected):
            assert got_idx.tobytes() == idx.tobytes()
            assert got_score.tobytes() == score.tobytes()
        assert "entries" not in vars(streamed)  # no pass held every row

    def test_localize_is_the_one_row_batch(self, dictionary):
        rng = np.random.default_rng(5)
        positions = rng.uniform([-0.35, -0.35, 2.1], [0.35, 0.35, 3.9], size=(6, 3))
        measurements = [unit_measurement(p, antenna=ANT_WIDE) for p in positions]
        block = np.stack([build_fingerprint(m).vector for m in measurements])
        [(indices, scores)] = localize_batch([block], dictionary)
        for t, m in enumerate(measurements):
            result = localize(m, dictionary)
            [([idx], [score])] = localize_batch([block[t : t + 1]], dictionary)
            assert (result.index, result.score) == (idx, score)
            np.testing.assert_array_equal(result.position, dictionary.positions[idx])
            # a wider batch is one matrix product: same winner, scores to rounding
            assert indices[t] == idx
            assert scores[t] == pytest.approx(score, rel=1e-12)

    def test_each_block_keeps_the_bits_it_has_alone(self, dictionary):
        # blocks scored in one pass get the indices and score bits of scoring each on its own
        rng = np.random.default_rng(8)
        positions = rng.uniform([-0.35, -0.35, 2.1], [0.35, 0.35, 3.9], size=(9, 3))
        block = np.stack([build_fingerprint(unit_measurement(p, antenna=ANT_WIDE)).vector
                          for p in positions])
        blocks = [block[:1], block[1:6], block[6:], block[:0]]
        for (indices, scores), alone in zip(localize_batch(blocks, dictionary), blocks):
            [(idx, score)] = localize_batch([alone], dictionary)
            assert indices.tobytes() == idx.tobytes()
            assert scores.tobytes() == score.tobytes()

    def test_size_mismatch_rejected(self, dictionary):
        plan4 = FrequencyPlan(60e9, 66e9, 4)
        m = unit_measurement((0, 0, 3.0), plan4, LinearSineDispersion.for_plan(plan4))
        with pytest.raises(ValueError, match="frequency points"):
            localize(m, dictionary)


def walked_width(offsets: np.ndarray, values: np.ndarray) -> float | None:
    """The half-power width by a per-sample walk outward from offset 0 on each sign: the
    oracle whose bits half_power_width keeps."""
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


# offsets from a coarse lattice, so that |offsets| repeat across and within signs and 0
# occurs, or any finite double; values around HALF_POWER, on it and on either side
CURVE_SAMPLES = st.lists(st.tuples(
    st.integers(-6, 6).map(lambda k: k * 0.25) | st.floats(-10.0, 10.0),
    st.sampled_from([0.0, HALF_POWER, math.nextafter(HALF_POWER, 0.0), 1.0])
    | st.floats(0.0, 1.0),
), max_size=16)


class TestHalfPowerWidth:
    def test_linear_interpolation_exact(self):
        # crafted curve: crosses 1/sqrt(2) exactly half way between samples
        offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        lo = HALF_POWER - 0.1
        hi = HALF_POWER + 0.1
        values = np.array([lo, hi, 1.0, hi, lo])
        assert half_power_width(offsets, values) == pytest.approx(1.5, rel=1e-12)

    def test_asymmetric_curve_takes_smaller_side(self):
        offsets = np.array([-1.0, 0.0, 0.5, 1.0])
        values = np.array([0.9, 1.0, 0.5, 0.4])
        # positive branch crosses between 0 (anchor 1.0) and 0.5 (0.5)
        expected = (1.0 - HALF_POWER) / (1.0 - 0.5) * 0.5
        assert half_power_width(offsets, values) == pytest.approx(expected, rel=1e-12)

    def test_no_crossing_returns_none(self):
        offsets = np.linspace(-1, 1, 11)
        values = np.full(11, 0.95)
        assert half_power_width(offsets, values) is None

    @given(samples=CURVE_SAMPLES)
    @example(samples=[])
    @example(samples=[(0.0, 0.1), (0.5, 0.9), (-0.5, 0.8)])  # no crossing on either sign
    @example(samples=[(0.5, 0.9), (-0.5, 0.8), (-1.0, 0.2)])  # one on the negative side only
    @example(samples=[(1.0, 0.2), (-1.0, 0.3), (1.0, 0.9), (-1.0, 0.1)])  # repeated |offsets|
    @settings(max_examples=500, deadline=None)
    def test_width_has_the_bits_of_the_walk(self, samples):
        offsets = np.array([offset for offset, _ in samples], dtype=float)
        values = np.array([value for _, value in samples], dtype=float)
        got, want = half_power_width(offsets, values), walked_width(offsets, values)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestAmbiguityProbe:
    def test_zero_offset_similarity_is_one(self):
        offsets = np.linspace(-0.2, 0.2, 21)
        curve = ambiguity_probe((0, 0, 3.0), "range", offsets, PLAN8, MODEL8, ANT)
        mid = np.argmin(np.abs(offsets))
        assert curve.similarities[mid] == pytest.approx(1.0, abs=1e-12)

    def test_azimuth_rotation_preserves_range_channel(self):
        # rotation keeps R constant, so the elevation channel stays fully
        # correlated and the curve floors at 1/2
        curve = ambiguity_probe(
            (0, 0, 3.0), "azimuth", np.linspace(-0.5, 0.5, 41), PLAN8, MODEL8, ANT
        )
        assert np.all(curve.similarities >= 0.5 - 1e-9)

    @pytest.mark.parametrize("antenna", [ANT, ANT_WIDE])
    @pytest.mark.parametrize("elevation_p0, azimuth_p0", [
        ((0.0, 0.0, 3.0), (0.0, 0.0, 3.0)),
        ((0.0, 0.3, 3.0), (0.3, 0.0, 3.0)),
    ])
    def test_elevation_mirrors_azimuth_across_the_channels(self, antenna, elevation_p0,
                                                           azimuth_p0):
        # swapping x and y swaps the two channels, whose mean the similarity is
        offsets = np.linspace(-0.3, 0.3, 25)
        elevation = ambiguity_probe(elevation_p0, "elevation", offsets, PLAN8, MODEL8, antenna)
        azimuth = ambiguity_probe(azimuth_p0, "azimuth", offsets, PLAN8, MODEL8, antenna)
        assert np.array_equal(elevation.similarities, azimuth.similarities)
        assert elevation.similarities.min() < 0.9

    def test_vector_axis_matches_manual_displacement(self):
        offsets = np.array([-0.05, 0.0, 0.05])
        curve = ambiguity_probe((0, 0, 3.0), (0.0, 0.0, 1.0), offsets, PLAN8, MODEL8, ANT)
        manual = ambiguity_probe((0, 0, 3.0), "range", offsets, PLAN8, MODEL8, ANT)
        np.testing.assert_allclose(curve.similarities, manual.similarities, atol=1e-12)

    def test_forward_half_space_enforced(self):
        from sweepsense.core import GeometryError

        with pytest.raises(GeometryError):
            ambiguity_probe((0, 0, 0.1), "range", np.array([-0.2]), PLAN8, MODEL8, ANT)

    def test_zero_norm_error_names_offset(self):
        # a 1.5 rad azimuth turn leaves the 60 deg scan: the x-channel gain
        # underflows to zero there; the row is named by its index and position
        position = (3.0 * math.sin(1.5), 0.0, 3.0 * math.cos(1.5))
        with pytest.raises(DegenerateMeasurementError) as exc:
            ambiguity_probe((0, 0, 3.0), "azimuth", np.array([0.0, 1.5]), PLAN8, MODEL8, ANT)
        assert str(exc.value) == f"probe position 1 at {position} has a zero-norm channel"

    @pytest.mark.parametrize(
        "direction", [(0.0, 0.0, 0.0), (1e-200, 1e-200, 0.0), (1e200, 1e200, 0.0), (math.nan, 0, 1)]
    )
    def test_direction_norm_must_be_finite_and_nonzero(self, direction):
        # 1e-200 components pass a nonzero check, but their norm underflows to
        # 0; 1e200 components overflow it to inf
        with pytest.raises(ValueError, match="finite nonzero norm"):
            ambiguity_probe((0, 0, 3.0), direction, np.array([0.1]), PLAN8, MODEL8, ANT)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ambiguity_probe((0, 0, 3.0), "diagonal", np.array([0.1]), PLAN8, MODEL8, ANT)


class TestFingerprintRows:
    def test_chunks_match_one_position_rows(self):
        # Two full chunks and a short one, collected before use: rows that
        # aliased the reused echo block would show the last chunk's values.
        plan = FrequencyPlan(60e9, 66e9, 32)
        model = LinearSineDispersion.for_plan(plan)
        n = 2 * CHUNK_ROWS + 3
        positions = _displace(np.array([0.1, 0.0, 3.0]), "range", np.linspace(-0.5, 0.5, n))
        chunks = list(_fingerprint_rows(positions, plan, model, ANT, str))
        assert [(start, len(rows)) for start, rows in chunks] == [
            (0, CHUNK_ROWS), (CHUNK_ROWS, CHUNK_ROWS), (2 * CHUNK_ROWS, 3)
        ]
        got = np.concatenate([rows for _, rows in chunks])
        expected = np.concatenate(
            [normalize(echo(p[None], plan, model, ANT), str) for p in positions]
        )
        assert (expected == 0).any()  # the 12 cm beam's gain underflows at some points
        assert got.tobytes() == expected.tobytes()


class TestDictionaryCsv:
    @staticmethod
    def read_back(path, grid, m):
        """The dictionary of the cells the file holds."""
        with open_bytes(path) as fh:
            body = read_table(path, _csv_header(m), fh)
        return Entries(grid, body[:, 6:].view(np.complex128))

    def test_round_trip_bytes(self, tmp_path):
        grid = PositionGrid((-0.2, 0.2), (0.0, 0.0), (2.5, 3.5), nx=3, ny=1, nz=2)
        d = build_dictionary(grid, PLAN8, MODEL8, ANT)
        path = tmp_path / "dict.csv"
        write_text(path, dictionary_text(d))
        localize_batch([], d, path)
        loaded = self.read_back(path, grid, PLAN8.n_points)
        assert loaded.n_points == d.n_points
        assert loaded.size == d.size
        # emit(parse(emit(x))) must equal emit(x) to the last digit
        assert b"".join(dictionary_text(loaded)) == path.read_bytes()

    def test_round_trip_preserves_localization(self, tmp_path):
        grid = PositionGrid((-0.2, 0.2), (-0.2, 0.2), (2.5, 3.5), nx=3, ny=3, nz=3)
        d = build_dictionary(grid, PLAN8, MODEL8, ANT_WIDE)
        path = tmp_path / "dict.csv"
        write_text(path, dictionary_text(d))
        loaded = self.read_back(path, grid, PLAN8.n_points)
        m = unit_measurement((0.05, -0.1, 3.1), antenna=ANT_WIDE)
        assert localize(m, loaded).index == localize(m, d).index

    def test_malformed_rows_reported_with_line(self, tmp_path):
        grid = PositionGrid((0.0, 0.0), (0.0, 0.0), (3.0, 3.0), nx=1, ny=1, nz=1)
        d = build_dictionary(grid, PLAN8, MODEL8, ANT)
        path = tmp_path / "dict.csv"
        write_text(path, dictionary_text(d))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]  # drop one field
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2"):
            localize_batch([], d, path)
