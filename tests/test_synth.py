"""Measurement synthesis, noise reproducibility, dechirp."""

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest

from sweepsense.core import (
    SPEED_OF_LIGHT,
    AliasingError,
    ChannelAxis,
    ChirpConfig,
    FrequencyPlan,
    GeometryError,
    NoiseConfig,
    Scene,
    Target,
    frequency_grid,
)
from sweepsense.dispersion import LinearSineDispersion
from sweepsense.synth import (
    AntennaModel,
    dechirp_range_profile,
    derive_seed,
    derive_seeds,
    echo,
    noise,
    noise_sigma,
    phase_curvature,
    scene_echo,
    simulate_measurement,
)

PLAN = FrequencyPlan(60e9, 66e9, 16)
MODEL = LinearSineDispersion.for_plan(PLAN)
ANT = AntennaModel()


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


def synthesize_sample(f, position, refl: complex, gain) -> complex:
    """Scalar oracle for one noiseless echo sample refl * gain * exp(-j 4 pi f R / c)."""
    return complex(refl * gain * np.exp(-1j * phase_curvature(f, position)))


def pos_at_azimuth(theta, r=3.0):
    return (r * math.sin(theta), 0.0, r * math.cos(theta))


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
        g = ANT.gain(63e9, 0.3, pos_at_azimuth(0.3), ChannelAxis.X_SCAN)
        assert g == pytest.approx(1.0, abs=1e-12)

    def test_half_power_offset_one_way(self):
        ant = AntennaModel(two_way=False)
        thp = ant.half_power_beamwidth(63e9)
        g = ant.gain(63e9, 0.0, pos_at_azimuth(thp / 2), ChannelAxis.X_SCAN)
        assert g == pytest.approx(0.5, rel=1e-9)

    def test_half_power_offset_two_way_squares(self):
        thp = ANT.half_power_beamwidth(63e9)
        g = ANT.gain(63e9, 0.0, pos_at_azimuth(thp / 2), ChannelAxis.X_SCAN)
        assert g == pytest.approx(0.25, rel=1e-9)

    def test_beamwidth_scale(self):
        # lambda / L at 63 GHz with the 12 cm default
        assert ANT.half_power_beamwidth(63e9) == pytest.approx(
            (SPEED_OF_LIGHT / 63e9) / 0.12, rel=1e-12
        )

    def test_no_taper_in_orthogonal_plane(self):
        # moving in x must not change the y-scan gain
        g1 = ANT.gain(63e9, 0.1, (0.0, 0.2, 3.0), ChannelAxis.Y_SCAN)
        g2 = ANT.gain(63e9, 0.1, (1.5, 0.2, 3.0), ChannelAxis.Y_SCAN)
        assert g1 == pytest.approx(g2, rel=1e-12)

    def test_masked_exp_is_bit_equal_to_plain_exp(self):
        # exponents through the normal, subnormal (-708 ... -745.1) and
        # underflow (< -746) regions of exp
        target = -np.concatenate([np.linspace(0.0, 700.0, 50), np.linspace(707.0, 747.0, 801),
                                  np.linspace(747.0, 5000.0, 50)])
        f = np.full(target.shape, 63e9)
        hpbw = ANT.half_power_beamwidth(f)
        position = pos_at_azimuth(0.2)
        angle = ChannelAxis.X_SCAN.target_angle(position)
        beam = angle - hpbw * np.sqrt(-target / (2 * 4 * math.log(2)))  # two-way
        exponent = -4 * math.log(2) * 2 * ((angle - beam) / hpbw) ** 2  # as gain forms it
        expected = np.exp(exponent)
        got = ANT.gain(f, beam, position, ChannelAxis.X_SCAN)
        tiny = np.finfo(float).tiny
        assert ((0 < expected) & (expected < tiny)).sum() > 100 and (exponent < -746).sum() > 50
        assert got.tobytes() == expected.tobytes()
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("two_way", [True, False])
    def test_in_place_exponent_gives_the_bits_of_the_out_of_place_one(self, two_way):
        ant = AntennaModel(two_way=two_way)
        four_ln2 = 4.0 * math.log(2.0)

        def reference(f, beam, position, axis):
            dtheta = axis.target_angle(position) - np.asarray(beam, dtype=float)
            with np.errstate(over="ignore"):
                a = -four_ln2 * (1 + two_way) * (dtheta / ant.half_power_beamwidth(f)) ** 2
            return np.exp(a, out=np.zeros(np.shape(a)), where=~(a <= -746.0)), a

        freqs = frequency_grid(PLAN)
        thetas = MODEL.beam_angle(freqs)
        rows = np.array(TestEcho.ORACLE_POSITIONS)[:, None, :]
        # beams whose exponent steps across -746 at the 0.2 rad target
        hpbw = ant.half_power_beamwidth(np.full(401, 63e9))
        across = 0.2 - hpbw * np.sqrt(np.linspace(736.0, 756.0, 401) / (four_ln2 * (1 + two_way)))
        _, exponent = reference(63e9, across, pos_at_azimuth(0.2), ChannelAxis.X_SCAN)
        assert (exponent <= -746.0).any() and (exponent > -746.0).any()
        cases = [
            (63e9, 0.3, pos_at_azimuth(0.31), ChannelAxis.X_SCAN),  # Python floats
            (63e9, 0.1, (0.2, 0.1, 3.0), ChannelAxis.Y_SCAN),
            (63e9, math.nan, pos_at_azimuth(0.3), ChannelAxis.X_SCAN),  # a NaN beam angle
            (freqs, thetas, (0.1, -0.2, 3.0), ChannelAxis.X_SCAN),  # 1-D arrays
            (freqs, 0.1, (0.1, -0.2, 3.0), ChannelAxis.X_SCAN),  # f alone an array
            (freqs, np.where(np.arange(PLAN.n_points) % 5, thetas, math.nan), (0.1, -0.2, 3.0),
             ChannelAxis.Y_SCAN),
            (np.full(401, 63e9), across, pos_at_azimuth(0.2), ChannelAxis.X_SCAN),
            *((freqs, thetas, rows, axis) for axis in ChannelAxis),  # echo's (N, 1, 3) by (M,)
        ]
        for f, beam, position, axis in cases:
            expected, _ = reference(f, beam, position, axis)
            got = ant.gain(f, beam, position, axis)
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got, dtype=float).tobytes() == expected.tobytes()
            assert np.isnan(got).any() == np.isnan(beam).any()  # NaN stays NaN, not 0
        np.testing.assert_array_equal(thetas, MODEL.beam_angle(freqs))  # no input is written

    def test_scalar_gain_is_a_float_even_where_it_underflows(self):
        on_beam = ANT.gain(63e9, 0.3, pos_at_azimuth(0.3), ChannelAxis.X_SCAN)
        far_off = ANT.gain(63e9, -1.0, pos_at_azimuth(1.0), ChannelAxis.X_SCAN)
        assert type(on_beam) is float and type(far_off) is float
        assert far_off == 0.0 and not math.copysign(1.0, far_off) < 0

    def test_nan_angle_gives_nan_gain(self):
        assert math.isnan(ANT.gain(63e9, math.nan, pos_at_azimuth(0.3), ChannelAxis.X_SCAN))


class TestSampleSynthesis:
    def test_zero_reflectivity(self):
        assert synthesize_sample(60e9, (0, 0, 3), 0.0, 1.0) == 0.0 + 0.0j

    def test_zero_gain(self):
        assert synthesize_sample(60e9, (0, 0, 3), 1.0 + 1.0j, 0.0) == 0.0 + 0.0j

    def test_half_wavelength_round_trip_gives_pi_phase(self):
        # R chosen so 4 pi f R / c == pi exactly
        r = SPEED_OF_LIGHT / 2.4e11
        s = synthesize_sample(60e9, (0.0, 0.0, r), 1.0, 1.0)
        assert s.real == pytest.approx(-1.0, rel=1e-12)
        assert s.imag == pytest.approx(0.0, abs=1e-9)

    def test_phase_decomposition_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = rng.uniform(55e9, 70e9)
            p = rng.uniform(0.1, 5.0, 3)
            p[2] = abs(p[2])
            alpha = rng.normal() + 1j * rng.normal()
            g = rng.uniform(0.0, 1.0)
            s = synthesize_sample(f, p, alpha, g)
            expected = (
                np.angle(alpha) - 4 * math.pi * f * np.linalg.norm(p) / SPEED_OF_LIGHT
            )
            if abs(s) > 0:
                diff = (np.angle(s) - expected) % (2 * math.pi)
                assert min(diff, 2 * math.pi - diff) < 1e-6


class TestPhaseCurvature:
    def test_pi_construction(self):
        r = SPEED_OF_LIGHT / 2.4e11
        assert phase_curvature(60e9, (0, 0, r)) == pytest.approx(math.pi, rel=1e-12)

    def test_linear_in_range(self):
        p1 = phase_curvature(60e9, (0, 0, 1.0))
        p2 = phase_curvature(60e9, (0, 0, 2.0))
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_not_wrapped(self):
        assert phase_curvature(60e9, (0, 0, 3.0)) > 2 * math.pi

    def test_zero_frequency_gives_zero_phase(self):
        assert phase_curvature(0.0, (0, 0, 3.0)) == 0.0


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
            gx = ANT.gain(freqs[i], thetas[i], target.position, ChannelAxis.X_SCAN)
            gy = ANT.gain(freqs[i], thetas[i], target.position, ChannelAxis.Y_SCAN)
            assert meas.s_x[i] == pytest.approx(
                synthesize_sample(freqs[i], target.position, target.refl_x, gx), rel=1e-12
            )
            assert meas.s_y[i] == pytest.approx(
                synthesize_sample(freqs[i], target.position, target.refl_y, gy), rel=1e-12
            )

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
        seeds += [derive_seed(2024, k, t) for k in range(2) for t in range(100)]
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
        expected = [derive_seed(seed, *path) for path in paths]
        assert derive_seeds(seed, paths) == expected
        assert derive_seeds(seed, iter(paths)) == expected
        assert expected == [int(reference_key(seed, *path)[0]) for path in paths]
        assert derive_seeds(seed, []) == []

    def test_noise_with_sigma_zero_is_zeros(self):
        block = noise([derive_seed(3, t) for t in range(5)], 0.0, 16)
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
                [[synthesize_sample(f, p, r, antenna.gain(f, theta, p, axis))
                  for f, theta in zip(freqs, thetas)]
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
        with pytest.raises(AliasingError):
            dechirp_range_profile(self.CHIRP, [(r_alias, 1.0)])
