"""Measurement synthesis, noise reproducibility, dechirp."""

import cmath
import hashlib
import math
import struct
import sys
import warnings

import numpy as np
import pytest

from sweepsense import synth
from sweepsense.core import (
    SPEED_OF_LIGHT,
    ChannelAxis,
    ChirpConfig,
    FrequencyPlan,
    GeometryError,
    NoiseConfig,
    Scene,
    Target,
    frequency_grid,
    range_of,
)
from sweepsense.dispersion import LinearSineDispersion
from sweepsense.fingerprint import CHUNK_ROWS, PositionGrid
from sweepsense.synth import (
    AntennaModel,
    dechirp_range_profile,
    derive_seeds,
    echo,
    noise,
    noise_sigma,
    scene_echo,
    simulate_measurement,
)

PLAN = FrequencyPlan(60e9, 66e9, 16)
MODEL = LinearSineDispersion.for_plan(PLAN)
ANT = AntennaModel()
EXP_FLOOR = math.log(sys.float_info.min)  # below it exp is subnormal or +0.0


def reference_key(seed: int, *path) -> np.ndarray:
    """Reference key of the stream (seed, *path): the blake2b digest of the 64-bit seed and
    the path labels, as two little-endian words."""
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<Q", int(seed) & 0xFFFFFFFFFFFFFFFF))
    for part in path:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return np.frombuffer(h.digest(), dtype="<u8")


def substream(seed: int, *path) -> np.random.Generator:
    """Reference generator for the stream (seed, *path): a new Philox at that key."""
    return np.random.Generator(np.random.Philox(key=reference_key(seed, *path)))


def oracle_sample(f, beam, position, axis, refl: complex, antenna) -> complex:
    """Scalar oracle for one noiseless echo sample, from the formulas alone:
    refl * gain * exp(-j 4 pi f R / c), where the one-way gain is
    exp(-4 ln2 (dtheta / (c / (f L)))^2), squared when two-way, and dtheta is the target's
    in-plane angle, atan2(x, z) on the x channel and atan2(y, z) on the y channel, less the
    beam angle. A gain below the smallest normal double is 0.0."""
    x, y, z = position
    dtheta = math.atan2(x if axis is ChannelAxis.X_SCAN else y, z) - beam
    width = SPEED_OF_LIGHT / f / antenna.length
    one_way = math.exp(-4.0 * math.log(2.0) * (dtheta / width) ** 2)
    gain = one_way * one_way if antenna.two_way else one_way
    if gain < sys.float_info.min:
        gain = 0.0
    phase = 4.0 * math.pi * f * math.sqrt(x * x + y * y + z * z) / SPEED_OF_LIGHT
    return complex(refl) * gain * cmath.exp(-1j * phase)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("make, error, message", [
    (lambda v: AntennaModel(length=v), ValueError, "antenna length must be positive"),
    (lambda v: dechirp_range_profile(ChirpConfig(), [(v, 1.0)]), GeometryError,
     "target range must be positive, got {}"),
])
def test_length_and_range_must_be_finite_and_positive(make, error, message, value):
    with pytest.raises(error) as exc:
        make(value)
    assert str(exc.value) == message.format(value)


@pytest.mark.parametrize("targets, snr_db, message", [
    # co-located targets whose sum overflows
    ([Target((0, 0, 3.0), 1e308)] * 4, None,
     "the scene's echo is not finite: a reflectivity is too large or NaN"),
    ([Target((0, 0, 3.0), complex(math.nan, 0.0))], None,
     "the scene's echo is not finite: a reflectivity is too large or NaN"),
    # a finite echo whose noise overflows
    ([Target((0, 0, 3.0), 1e306)], -100.0, "the measurement at SNR -100.0 dB is not finite"),
    # a noise power that overflows
    ([Target((0, 0, 3.0))], -4000.0, "the measurement at SNR -4000.0 dB is not finite"),
])
def test_non_finite_measurement_rejected_without_a_warning(targets, snr_db, message):
    scene = Scene(tuple(targets), NoiseConfig(snr_db, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:  # a short antenna: gains near 1 at boresight
            simulate_measurement(scene, PLAN, MODEL, AntennaModel(length=0.012))
    assert str(exc.value) == message


def test_noise_power_that_overflows_gives_an_infinite_sigma():
    clean = np.ones((2, 4), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert noise_sigma(clean, -4000.0) == math.inf
        assert noise_sigma(clean, -3082.0) == math.sqrt(10.0 ** 308.2 / 2.0)
        assert noise_sigma(np.zeros_like(clean), -4000.0) == 0.0


class TestAntennaGain:
    def test_peak_on_beam_axis(self):
        assert ANT.gain(0.3, 63e9, 0.3) == 1.0

    def test_half_power_offset_one_way(self):
        ant = AntennaModel(two_way=False)
        thp = ant.half_power_beamwidth(63e9)
        assert ant.gain(thp / 2, 63e9, 0.0) == pytest.approx(0.5, rel=1e-9)

    def test_half_power_offset_two_way_squares(self):
        thp = ANT.half_power_beamwidth(63e9)
        assert ANT.gain(thp / 2, 63e9, 0.0) == pytest.approx(0.25, rel=1e-9)

    def test_beamwidth_scale(self):
        # lambda / L at 63 GHz with the 12 cm default
        assert ANT.half_power_beamwidth(63e9) == pytest.approx(
            (SPEED_OF_LIGHT / 63e9) / 0.12, rel=1e-12
        )

    def test_no_taper_in_orthogonal_plane(self):
        # moving in x must not change the y-scan gain
        g1 = ANT.gain(ChannelAxis.Y_SCAN.target_angle((0.0, 0.2, 3.0)), 63e9, 0.1)
        g2 = ANT.gain(ChannelAxis.Y_SCAN.target_angle((1.5, 0.2, 3.0)), 63e9, 0.1)
        assert g1 == pytest.approx(g2, rel=1e-12)

    def test_masked_exp_is_bit_equal_to_plain_exp(self):
        # exponents through the normal, subnormal (-708.4 ... -745.1) and
        # underflow (< -745.1) regions of exp; the gain is +0.0 below the floor
        target = -np.concatenate([np.linspace(0.0, 700.0, 50), np.linspace(707.0, 747.0, 801),
                                  np.linspace(747.0, 5000.0, 50)])
        f = np.full(target.shape, 63e9)
        hpbw = ANT.half_power_beamwidth(f)
        angle = 0.2
        beam = angle - hpbw * np.sqrt(-target / (2 * 4 * math.log(2)))  # two-way
        exponent = -4 * math.log(2) * 2 * ((angle - beam) / hpbw) ** 2  # as gain forms it
        expected = np.exp(exponent)
        got = ANT.gain(angle, f, beam)
        tiny = np.finfo(float).tiny
        above = exponent >= EXP_FLOOR
        assert ((0 < expected) & (expected < tiny)).sum() > 100 and (exponent < -746).sum() > 50
        assert above.sum() > 50 and (above & (exponent < -707.0)).sum() > 20
        assert got[above].tobytes() == expected[above].tobytes()
        assert got[~above].tobytes() == bytes(got[~above].nbytes)  # +0.0

    @pytest.mark.parametrize("two_way", [True, False])
    def test_in_place_exponent_gives_the_bits_of_the_out_of_place_one(self, two_way):
        ant = AntennaModel(two_way=two_way)
        four_ln2 = 4.0 * math.log(2.0)

        def reference(angle, f, beam):
            dtheta = angle - np.asarray(beam, dtype=float)
            with np.errstate(over="ignore"):
                a = -four_ln2 * (1 + two_way) * (dtheta / ant.half_power_beamwidth(f)) ** 2
            return np.exp(a, out=np.zeros(np.shape(a)), where=~(a < EXP_FLOOR)), a

        freqs = frequency_grid(PLAN)
        thetas = MODEL.beam_angle(freqs)
        rows = np.array(TestEcho.ORACLE_POSITIONS)[:, None, :]
        # beams whose exponent steps across the floor at the 0.2 rad target
        hpbw = ant.half_power_beamwidth(np.full(401, 63e9))
        across = 0.2 - hpbw * np.sqrt(np.linspace(698.0, 718.0, 401) / (four_ln2 * (1 + two_way)))
        _, exponent = reference(0.2, 63e9, across)
        assert (exponent < EXP_FLOOR).any() and (exponent >= EXP_FLOOR).any()
        cases = [
            (0.31, 63e9, 0.3),  # Python floats
            (math.nan, 63e9, 0.3),  # a NaN target angle
            (0.31, 63e9, math.nan),  # a NaN beam angle
            (0.1, freqs, thetas),  # 1-D arrays
            (0.1, freqs, 0.1),  # f alone an array
            (-0.2, freqs, np.where(np.arange(PLAN.n_points) % 5, thetas, math.nan)),
            (0.2, np.full(401, 63e9), across),
            # echo's (N, 1) angles by (M,)
            *((axis.target_angle(rows), freqs, thetas) for axis in ChannelAxis),
        ]
        for angle, f, beam in cases:
            expected, _ = reference(angle, f, beam)
            got = ant.gain(angle, f, beam)
            assert np.shape(got) == np.shape(expected)
            assert got.tobytes() == expected.tobytes()
            # NaN stays NaN, not 0
            assert np.isnan(got).any() == (np.isnan(angle).any() or np.isnan(beam).any())
        np.testing.assert_array_equal(thetas, MODEL.beam_angle(freqs))  # no input is written

    def test_gain_is_zero_or_normal_across_the_floor(self):
        # One-way, a 1 rad beamwidth (f = c, length 1 m) and beam 0: gain forms its exponent
        # as angle * angle * -4 ln2, so the angles below give exactly known exponents.
        ant = AntennaModel(length=1.0, two_way=False)
        k = -4.0 * math.log(2.0)
        x0 = math.sqrt(EXP_FLOOR / k)
        near = x0 + np.arange(-64, 65) * np.spacing(x0)  # consecutive doubles around the floor
        sweep = np.sqrt(np.linspace(-746.5, -708.0, 2001) / k)
        angle = np.concatenate([sweep, near, [math.nan]])
        exponent = angle * angle * k
        for edge in (np.nextafter(EXP_FLOOR, -math.inf), np.nextafter(EXP_FLOOR, math.inf)):
            assert (exponent == edge).any()
        assert ((0 < np.exp(exponent)) & (np.exp(exponent) < sys.float_info.min)).sum() > 1000
        got = ant.gain(angle, SPEED_OF_LIGHT, 0.0)
        assert np.isnan(got[-1]) and not np.isnan(got[:-1]).any()
        got, exponent = got[:-1], exponent[:-1]
        assert (got[got != 0] >= sys.float_info.min).all()
        above = exponent >= EXP_FLOOR
        assert got[above].tobytes() == np.exp(exponent[above]).tobytes()
        assert not np.signbit(got).any()

    def test_nan_angle_gives_nan_gain(self):
        assert math.isnan(ANT.gain(0.3, 63e9, math.nan))


class TestSampleSynthesis:
    def test_zero_reflectivity(self):
        assert oracle_sample(60e9, 0.0, (0, 0, 3), ChannelAxis.X_SCAN, 0.0, ANT) == 0.0

    def test_gain_far_off_the_beam_underflows_to_zero(self):
        assert oracle_sample(60e9, 0.0, (3, 0, 0.1), ChannelAxis.X_SCAN, 1.0 + 1.0j, ANT) == 0.0

    def test_half_wavelength_round_trip_gives_pi_phase(self):
        # R chosen so 4 pi f R / c == pi exactly, on the beam axis
        r = SPEED_OF_LIGHT / 2.4e11
        s = oracle_sample(60e9, 0.0, (0.0, 0.0, r), ChannelAxis.X_SCAN, 1.0, ANT)
        assert s.real == pytest.approx(-1.0, rel=1e-12)
        assert s.imag == pytest.approx(0.0, abs=1e-9)

    def test_phase_decomposition_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = rng.uniform(55e9, 70e9)
            p = rng.uniform(0.1, 5.0, 3)
            alpha = rng.normal() + 1j * rng.normal()
            s = oracle_sample(f, math.atan2(p[0], p[2]), p, ChannelAxis.X_SCAN, alpha, ANT)
            expected = (
                np.angle(alpha) - 4 * math.pi * f * np.linalg.norm(p) / SPEED_OF_LIGHT
            )
            diff = (np.angle(s) - expected) % (2 * math.pi)
            assert min(diff, 2 * math.pi - diff) < 1e-6


class TestEchoPhase:
    # one sweep point at 60 GHz, where the beam is on the axis z
    PLAN1 = FrequencyPlan(59e9, 61e9, 1)

    def sample(self, r):
        model = LinearSineDispersion.for_plan(self.PLAN1)
        return complex(echo([(0.0, 0.0, r)], self.PLAN1, model, AntennaModel(0.012))[0, 0, 0])

    def test_half_wavelength_round_trip_gives_pi_phase(self):
        assert self.sample(SPEED_OF_LIGHT / 2.4e11) == pytest.approx(-1.0, abs=1e-12)

    def test_linear_in_range(self):
        assert self.sample(2.0) == pytest.approx(self.sample(1.0) ** 2, rel=1e-9)


class TestSimulateMeasurement:
    def test_empty_scene_noiseless_is_zero(self):
        meas = simulate_measurement(Scene(), PLAN, MODEL, ANT)
        assert np.all(meas.s_x == 0.0)
        assert np.all(meas.s_y == 0.0)

    def test_single_target_matches_per_sample_synthesis(self):
        target = Target((0.1, -0.2, 3.0), refl_x=2.0 + 1.0j, refl_y=0.5j)
        meas = simulate_measurement(Scene(targets=(target,)), PLAN, MODEL, ANT)
        freqs = frequency_grid(PLAN)
        thetas = MODEL.beam_angle(freqs)
        for i in range(PLAN.n_points):
            assert meas.s_x[i] == pytest.approx(oracle_sample(
                freqs[i], thetas[i], target.position, ChannelAxis.X_SCAN, target.refl_x, ANT
            ), rel=1e-12)
            assert meas.s_y[i] == pytest.approx(oracle_sample(
                freqs[i], thetas[i], target.position, ChannelAxis.Y_SCAN, target.refl_y, ANT
            ), rel=1e-12)

    def test_superposition(self):
        t1 = Target((0.1, 0.0, 2.5))
        t2 = Target((-0.3, 0.2, 3.5), refl_x=1.0 - 2.0j)
        both = simulate_measurement(Scene(targets=(t1, t2)), PLAN, MODEL, ANT)
        only1 = simulate_measurement(Scene(targets=(t1,)), PLAN, MODEL, ANT)
        only2 = simulate_measurement(Scene(targets=(t2,)), PLAN, MODEL, ANT)
        np.testing.assert_array_equal(both.s_x, only1.s_x + only2.s_x)
        np.testing.assert_array_equal(both.s_y, only1.s_y + only2.s_y)

    def test_noise_reproducible_bit_identical(self):
        scene = Scene(
            targets=(Target((0, 0, 3.0)),), noise=NoiseConfig(snr_db=10.0, seed=42)
        )
        m1 = simulate_measurement(scene, PLAN, MODEL, ANT)
        m2 = simulate_measurement(scene, PLAN, MODEL, ANT)
        np.testing.assert_array_equal(m1.s_x, m2.s_x)
        np.testing.assert_array_equal(m1.s_y, m2.s_y)

    def test_noise_matches_keyed_substreams_in_any_order(self):
        scene = Scene(
            targets=(Target((0, 0, 3.0)),), noise=NoiseConfig(snr_db=0.0, seed=99)
        )
        noisy = simulate_measurement(scene, PLAN, MODEL, ANT)
        clean = simulate_measurement(
            Scene(targets=scene.targets), PLAN, MODEL, ANT
        )
        p_sig = (
            np.sum(np.abs(clean.s_x) ** 2) + np.sum(np.abs(clean.s_y) ** 2)
        ) / (2 * PLAN.n_points)
        sigma = math.sqrt(p_sig / 2.0)  # snr 0 dB -> var == p_sig
        # reassemble the noise from one stream per channel, channels in either order
        for order in (("x", "y"), ("y", "x")):
            expected = {}
            for axis in order:
                draws = substream(99, axis).normal(0.0, sigma, 2 * PLAN.n_points)
                expected[axis] = draws[0::2] + 1j * draws[1::2]
            # signal+noise-signal round-trip costs one rounding step
            np.testing.assert_allclose(noisy.s_x - clean.s_x, expected["x"], rtol=1e-12)
            np.testing.assert_allclose(noisy.s_y - clean.s_y, expected["y"], rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 16, 128])
    def test_noise_is_each_substream_bit_for_bit(self, m):
        # the ends of the seed range, and a seed above it, which is masked to 64 bits
        seeds = [0, 2**64 - 1, 2**64 + 12345]
        seeds += derive_seeds(2024, [(k, t) for k in range(2) for t in range(100)])
        # sigmas across the double range; the first two make sigma * z underflow
        for sigma in (5e-324, 1e-310, 1e-9, 1e-3, 0.3, 7.7, 1e6, 1e300):
            block = noise(seeds, sigma, m)
            assert block.shape == (len(seeds), 2, m)
            for t, seed in enumerate(seeds):
                for c, axis in enumerate(ChannelAxis):
                    expected = substream(seed, axis.value).normal(0.0, sigma, 2 * m)
                    # compared as bits, so the sign of a zero counts too
                    np.testing.assert_array_equal(
                        block[t, c].view(np.uint64), expected.view(np.uint64)
                    )

    @pytest.mark.parametrize("seed", [0, 2024, 2**64 - 1, 2**64 + 12345])
    def test_batched_seeds_are_each_derive_seed(self, seed):
        paths = [(k, t) for k in range(3) for t in range(70)] + [(), ("x",), (2**70, "é", -1.5)]
        expected = [int(reference_key(seed, *path)[0]) for path in paths]
        assert derive_seeds(seed, paths) == expected
        assert derive_seeds(seed, iter(paths)) == expected
        assert [derive_seeds(seed, [path])[0] for path in paths] == expected
        assert derive_seeds(seed, []) == []

    def test_noise_with_sigma_zero_is_zeros(self):
        block = noise(derive_seeds(3, [(t,) for t in range(5)]), 0.0, 16)
        np.testing.assert_array_equal(block.view(np.uint64), np.zeros((5, 2, 32), np.uint64))

    def test_different_seeds_differ(self):
        base = Scene(targets=(Target((0, 0, 3.0)),), noise=NoiseConfig(10.0, 1))
        other = Scene(targets=base.targets, noise=NoiseConfig(10.0, 2))
        m1 = simulate_measurement(base, PLAN, MODEL, ANT)
        m2 = simulate_measurement(other, PLAN, MODEL, ANT)
        assert not np.array_equal(m1.s_x, m2.s_x)

    def test_snr_controls_noise_power(self):
        target = Target((0, 0, 3.0))
        clean = simulate_measurement(Scene(targets=(target,)), PLAN, MODEL, ANT)
        p_sig = (
            np.sum(np.abs(clean.s_x) ** 2) + np.sum(np.abs(clean.s_y) ** 2)
        ) / (2 * PLAN.n_points)
        # average noise power over many seeds approaches p_sig * 10^(-snr/10)
        for snr, rel in ((0.0, 0.15), (20.0, 0.15)):
            acc = 0.0
            n_seeds = 40
            for seed in range(n_seeds):
                scene = Scene(targets=(target,), noise=NoiseConfig(snr, seed))
                noisy = simulate_measurement(scene, PLAN, MODEL, ANT)
                acc += float(
                    np.sum(np.abs(noisy.s_x - clean.s_x) ** 2)
                    + np.sum(np.abs(noisy.s_y - clean.s_y) ** 2)
                ) / (2 * PLAN.n_points)
            measured = acc / n_seeds
            assert measured == pytest.approx(p_sig * 10 ** (-snr / 10), rel=rel)


class TestEcho:
    def test_rows_match_single_target_simulation(self):
        targets = (
            Target((0.1, -0.2, 3.0), refl_x=2.0 + 1.0j, refl_y=0.5j),
            Target((-0.3, 0.2, 3.5), refl_x=1.0 - 2.0j),
        )
        rows = echo([t.position for t in targets], PLAN, MODEL, ANT)
        assert rows.shape == (2, 2, PLAN.n_points)
        for row, target in zip(rows, targets):
            meas = simulate_measurement(Scene(targets=(target,)), PLAN, MODEL, ANT)
            np.testing.assert_array_equal(row[0] * target.refl_x, meas.s_x)
            np.testing.assert_array_equal(row[1] * target.refl_y, meas.s_y)

    def test_empty_batch(self):
        assert echo(np.empty((0, 3)), PLAN, MODEL, ANT).shape == (0, 2, PLAN.n_points)

    def test_fills_and_returns_a_given_block(self):
        positions = [(0.1, -0.2, 3.0), (-0.4, 0.35, 2.2), (5.0, 0.1, 0.5)]
        block = np.full((5, 2, PLAN.n_points), complex(math.nan, math.nan))
        view = block[1:4]
        assert echo(positions, PLAN, MODEL, ANT, out=view) is view
        assert view.tobytes() == echo(positions, PLAN, MODEL, ANT).tobytes()
        assert np.isnan(block[[0, 4]].view(np.float64)).all()  # nothing outside the view

    # In view of the 60 deg scan, at its edge, and far outside it, where a
    # narrow beam's gain underflows to zero; every range is at most 5.2 m.
    ORACLE_POSITIONS = [
        (0.1, -0.2, 3.0), (-0.4, 0.35, 2.2), (1.5, 0.0, 1.0), (0.0, 3.0, 0.5),
        (2.0, -2.5, 4.0), (0.0, 0.0, 5.2), (5.0, 0.1, 0.5), (-0.3, -5.0, 0.4),
    ]

    @pytest.mark.parametrize(
        "m, antenna, underflows",
        [(128, ANT, True), (1, ANT, True), (7, ANT, True), (31, ANT, True),
         (31, AntennaModel(0.012), False), (7, AntennaModel(0.012, two_way=False), False)],
    )
    def test_matches_the_scalar_oracle_for_any_point_count(self, m, antenna, underflows):
        # M of 1, 7 and 31 is no multiple of the kernel's carrier block; only
        # the 12 cm beam is narrow enough for its gain to underflow
        # at unit reflectivity through echo, and at complex ones through a scene of each
        # position alone
        plan = FrequencyPlan(60e9, 66e9, m)
        model = LinearSineDispersion.for_plan(plan)
        unit = [(1.0, 1.0)] * len(self.ORACLE_POSITIONS)
        refl = [(2.0 + 1.0j, 0.5j), (1.0, 1.0), (-0.3 + 0.7j, 1e-3)] * 3
        refl = refl[: len(self.ORACLE_POSITIONS)]
        scenes = np.array([scene_echo([Target(p, *rs)], plan, model, antenna)
                           for p, rs in zip(self.ORACLE_POSITIONS, refl)])
        freqs = frequency_grid(plan)
        thetas = model.beam_angle(freqs)
        for got, reflectivities in ((echo(self.ORACLE_POSITIONS, plan, model, antenna), unit),
                                    (scenes, refl)):
            expected = np.array([
                [[oracle_sample(f, theta, p, axis, r, antenna) for f, theta in zip(freqs, thetas)]
                 for axis, r in zip(ChannelAxis, rs)]
                for p, rs in zip(self.ORACLE_POSITIONS, reflectivities)
            ])
            zero = expected == 0
            assert zero.any() == underflows and not zero.all()
            # Exact zeros where the oracle's gain underflows, and never a -0.0.
            np.testing.assert_array_equal(got == 0, zero)
            assert not np.signbit(got.view(np.float64)).reshape(got.shape + (2,))[zero].any()
            # Below 2.2e-308 the doubles are too coarse for a relative bound, so
            # subnormal samples get a floor of 20 of their steps (4.9e-324 each).
            np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-322)

    @pytest.mark.parametrize(
        "bad", [(0.0, 0.0, 0.0), (0.1, 0.0, -1.0), (math.nan, 0.0, 3.0), (0.0, math.inf, 3.0)]
    )
    def test_rejects_positions_a_target_rejects(self, bad):
        with pytest.raises(GeometryError):
            echo([(0.0, 0.0, 3.0), bad], PLAN, MODEL, ANT)


def rows_evaluated(monkeypatch, owner, name, arg) -> list:
    """A list that grows by the row count of argument ``arg`` of each call of ``owner.name``
    for the rest of the test."""
    calls, func = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(len(a[arg])) or func(*a, **k))
    return calls


def _arc(p0, offsets, kind):
    """p0 moved along its line of sight by ``offsets`` m, or rotated by them in the x-z plane."""
    p0, offsets = np.asarray(p0), np.asarray(offsets)
    if kind == "range":
        return p0 * (1.0 + offsets / np.linalg.norm(p0))[:, None]
    c, s = np.cos(offsets), np.sin(offsets)
    return np.column_stack([p0[0] * c + p0[2] * s, np.full_like(c, p0[1]), -p0[0] * s + p0[2] * c])


# A chunk of the 9^3 bench grid, a range line, an azimuth arc, repeated positions
# with signed zeros, and positions of which no two share a range or an angle.
_SIGNED = [(sx * 0.0, sy * 0.0, 3.0) for sx in (1, -1) for sy in (1, -1)]
KERNEL_BATCHES = {
    "grid-chunk": PositionGrid((-0.5, 0.5), (-0.5, 0.5), (2.0, 4.0), 9, 9, 9)
    .points()[CHUNK_ROWS : 2 * CHUNK_ROWS],
    "range-line": _arc((0.24, -0.31, 3.02), np.linspace(-0.5, 0.5, 101), "range"),
    "azimuth-arc": _arc((0.24, -0.31, 3.02), np.linspace(-0.04, 0.04, 101), "azimuth"),
    "repeats-signed-zeros": np.array(
        _SIGNED + [(0.3, -0.0, 2.0), (0.3, 0.0, 2.0), (0.6, 0.8, 2.5), (0.8, 0.6, 2.5),
                   (0.1, 0.2, 1.0), (0.2, 0.4, 2.0)] + _SIGNED[::-1] + [(0.3, 0.0, 2.0)]),
    "all-distinct": np.random.default_rng(7).uniform([-1, -1, 0.5], [1, 1, 4], (64, 3)),
}


class TestEchoPerDistinctKey:
    @pytest.mark.parametrize("m, antenna", [(16, ANT), (128, ANT), (31, AntennaModel(0.012))])
    @pytest.mark.parametrize("batch", KERNEL_BATCHES)
    def test_batch_has_the_bits_of_each_position_alone(self, m, antenna, batch):
        plan = FrequencyPlan(60e9, 66e9, m)
        model = LinearSineDispersion.for_plan(plan)
        positions = KERNEL_BATCHES[batch]
        alone = np.concatenate([echo(p[None], plan, model, antenna) for p in positions])
        np.testing.assert_array_equal(echo(positions, plan, model, antenna).view(np.uint64),
                                      alone.view(np.uint64))

    @pytest.mark.parametrize("batch", KERNEL_BATCHES)
    def test_each_factor_is_evaluated_once_per_distinct_key(self, monkeypatch, batch):
        positions = KERNEL_BATCHES[batch]
        distinct = lambda keys: len(np.unique(keys.view(np.uint64)))
        carrier = rows_evaluated(monkeypatch, synth, "_carrier", 0)
        gain = rows_evaluated(monkeypatch, AntennaModel, "gain", 1)
        echo(positions, PLAN, MODEL, ANT)
        assert carrier == [distinct(range_of(positions))]
        assert gain == [distinct(axis.target_angle(positions)) for axis in ChannelAxis]
        if batch == "grid-chunk":  # 256 positions: 57 ranges, 33 x and 27 y angles
            assert carrier[0] < len(positions) // 4 and max(gain) < len(positions) // 7
        if batch == "all-distinct":
            assert carrier + gain == [len(positions)] * 3


class TestDechirp:
    CHIRP = ChirpConfig(
        duration=20e-6, guard=1e-6, slope=2.34375e12, n_samples=64, sample_rate=1e6
    )

    def test_exact_bin_target(self):
        # beat 46.875 kHz = 3 * (1 MHz / 64): lands exactly on bin 3
        r = 46875.0 * SPEED_OF_LIGHT / (2 * self.CHIRP.slope)
        profile, ranges = dechirp_range_profile(self.CHIRP, [(r, 1.0 + 0.0j)])
        assert int(np.argmax(np.abs(profile))) == 3
        assert ranges[3] == pytest.approx(r, rel=1e-12)

    def test_near_zero_range_peaks_at_dc(self):
        profile, _ = dechirp_range_profile(self.CHIRP, [(1e-6, 1.0)])
        assert int(np.argmax(np.abs(profile))) == 0

    def test_two_separated_targets_give_two_peaks(self):
        bin_hz = self.CHIRP.sample_rate / self.CHIRP.n_samples
        r_of_bin = lambda q: q * bin_hz * SPEED_OF_LIGHT / (2 * self.CHIRP.slope)
        profile, _ = dechirp_range_profile(
            self.CHIRP, [(r_of_bin(5), 1.0), (r_of_bin(12), 0.8)]
        )
        mag = np.abs(profile)
        top2 = set(np.argsort(mag)[-2:])
        assert top2 == {5, 12}

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(3)
        targets = [
            (float(rng.uniform(1.0, 25.0)), complex(rng.normal(), rng.normal()))
            for _ in range(3)
        ]
        profile, _ = dechirp_range_profile(self.CHIRP, targets)
        # independent O(N^2) DFT of the same beat signal
        n = self.CHIRP.n_samples
        t = np.arange(n) / self.CHIRP.sample_rate
        beat = np.zeros(n, dtype=complex)
        for r, a in targets:
            beat += a * np.exp(
                2j * math.pi * (2 * self.CHIRP.slope * r / SPEED_OF_LIGHT) * t
            )
        naive = np.array(
            [np.sum(beat * np.exp(-2j * math.pi * q * np.arange(n) / n)) for q in range(n)]
        )
        np.testing.assert_allclose(profile, naive, rtol=1e-9, atol=1e-9)
        assert int(np.argmax(np.abs(profile))) == int(np.argmax(np.abs(naive)))

    def test_parseval(self):
        rng = np.random.default_rng(5)
        targets = [
            (float(rng.uniform(1.0, 25.0)), complex(rng.normal(), rng.normal()))
            for _ in range(4)
        ]
        profile, _ = dechirp_range_profile(self.CHIRP, targets)
        n = self.CHIRP.n_samples
        t = np.arange(n) / self.CHIRP.sample_rate
        beat = np.zeros(n, dtype=complex)
        for r, a in targets:
            beat += a * np.exp(
                2j * math.pi * (2 * self.CHIRP.slope * r / SPEED_OF_LIGHT) * t
            )
        e_time = float(np.sum(np.abs(beat) ** 2))
        e_freq = float(np.sum(np.abs(profile) ** 2)) / n
        assert abs(e_time - e_freq) / e_time < 1e-9

    def test_aliasing_rejected(self):
        r_alias = (self.CHIRP.sample_rate / 2) * SPEED_OF_LIGHT / (2 * self.CHIRP.slope)
        with pytest.raises(ValueError, match="aliases at sample rate"):
            dechirp_range_profile(self.CHIRP, [(r_alias, 1.0)])
