"""Measurement synthesis: echo samples, scene superposition, noise, dechirp.

The per-frequency-point echo model is

    s = refl * gain * exp(-j * 4 pi f R / c)

with the antenna's directional response folded into ``gain`` and the exact
spherical two-way phase 4 pi f R / c carrying the near-field curvature that
makes positions separable; ``echo`` evaluates it at refl = 1 for position batches.
Noise is circular complex Gaussian, drawn per (seed, channel) from one
counter-based Philox stream keyed by a hash of the two, so results never
depend on evaluation order; ``noise`` draws it for a batch of seeds at once,
and ``derive_seeds`` gives each Monte-Carlo trial of a batch its own seed.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from sweepsense.core import (
    SPEED_OF_LIGHT,
    ChannelAxis,
    ChirpConfig,
    FrequencyPlan,
    GeometryError,
    Measurement,
    Record,
    Scene,
    frequency_grid,
    range_of,
)
from sweepsense.dispersion import DispersionModel

_FOUR_LN2 = 4.0 * math.log(2.0)
# ln of the smallest normal double: exp below it is subnormal or +0.0, and subnormal
# gains cost many times a normal value in exp and in every product and sum after it.
_EXP_FLOOR = math.log(sys.float_info.min)
_K = 16  # echo's carrier tables: ceil(M / K) coarse and K fine exps per distinct range


class AntennaModel(Record):
    """Gaussian-mainlobe surrogate for the frequency-scanned antenna response.

    The one-way pattern has half-power beamwidth lambda(f) / length radians;
    with two_way (default) the gain is squared for the monostatic round trip.
    The gain depends only on the in-plane angular offset of the target from
    the channel's beam direction; there is no taper in the orthogonal plane.
    """

    length: float = 0.12  # m
    two_way: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.length < math.inf:
            raise ValueError("antenna length must be positive")

    def half_power_beamwidth(self, f):
        """One-way half-power beamwidth lambda(f)/length in rad."""
        return (SPEED_OF_LIGHT / np.asarray(f, dtype=float)) / self.length

    def gain(self, angle, f, beam_angle) -> np.ndarray:
        """Directional response toward in-plane ``angle`` (a channel's ``target_angle``) for a
        beam at ``beam_angle``, as an array: real-valued in [0, 1], peak 1.0 on the beam axis,
        one-way value 0.5 at half the half-power beamwidth off axis."""
        with np.errstate(over="ignore"):  # an offset of many beamwidths: exp(-inf) is 0
            # The offset is freed before exp's block is allocated; a is squared and scaled in place.
            a = np.asarray((angle - np.asarray(beam_angle, dtype=float))
                           / self.half_power_beamwidth(f))
            np.square(a, out=a)
            a *= -_FOUR_LN2 * (1 + self.two_way)
        # The gain is +0.0 below the floor, so every gain is +0.0 or normal (NaN still propagates)
        return np.exp(a, out=np.zeros(a.shape), where=~(a < _EXP_FLOOR))


def _phase(f: np.ndarray, r):
    """Two-way propagation phase 4 pi f R / c in rad at frequencies ``f`` for ranges ``r``,
    not reduced mod 2 pi."""
    return 4.0 * math.pi * f * r / SPEED_OF_LIGHT


def _carrier(r: np.ndarray, plan: FrequencyPlan, freqs: np.ndarray) -> np.ndarray:
    """exp(-j 4 pi f R / c) for each range of the (N, 1) column ``r``, shape (N, M).

    The sweep is uniform, so the carrier at point K a + b is that of f[K a]
    times that of b * step.
    """
    coarse = np.exp(-1j * _phase(freqs[::_K], r))
    fine = np.exp(-1j * _phase(np.arange(_K) * plan.step, r))
    carrier = (coarse[:, :, None] * fine[:, None, :]).reshape(-1, coarse.shape[1] * _K)
    return carrier[:, : plan.n_points]


def _per_distinct(evaluate, keys: np.ndarray) -> np.ndarray:
    """evaluate(keys) for an (N, 1) column of doubles, evaluated once per distinct bit pattern.

    ``evaluate`` must give each row a value that depends only on that row's
    key, so the rows it returns for the distinct keys are gathered back.
    Where no two keys share their bits, it is called on ``keys`` itself.
    """
    bits = keys.reshape(-1).view(np.uint64)
    order = np.argsort(bits, kind="stable")  # maps less sort code than the default kind
    ordered = bits[order]
    new = np.ones(len(bits), dtype=bool)  # where a key's bits first appear in ``ordered``
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if new.all():
        return evaluate(keys)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return evaluate(keys[order[new]])[inverse]


def echo(positions, plan: FrequencyPlan, model: DispersionModel, antenna: AntennaModel,
         out: np.ndarray | None = None) -> np.ndarray:
    """Noiseless unit-reflectivity echoes gain * exp(-j 4 pi f R / c), shape (N, 2, M).

    ``positions`` is (N, 3). Entries depend only on their own position, so
    any split of the batch gives the same bits. The carrier depends only on
    the range, and each channel's gain only on the target's in-plane angle,
    so each is computed once per distinct range or angle of the batch.
    The echoes are written into ``out``, an (N, 2, M) complex block, when
    one is given, and it is returned.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    if not (np.isfinite(positions).all() and (positions[:, 2] > 0.0).all()):
        bad = ~np.isfinite(positions).all(axis=1) | (positions[:, 2] <= 0.0)
        where = tuple(positions[bad.argmax()].tolist())
        raise GeometryError(f"position {where} is not finite or not in the half-space z > 0")
    freqs = frequency_grid(plan)
    thetas = model.beam_angle(freqs)
    rows = positions[:, None, :]  # (N, 1, 3) against a frequency axis
    carrier = _per_distinct(lambda r: _carrier(r, plan, freqs), range_of(rows))
    if out is None:
        out = np.empty((len(rows), 2, plan.n_points), dtype=np.complex128)
    for c, axis in enumerate(ChannelAxis):
        gain = _per_distinct(lambda angle: antenna.gain(angle, freqs, thetas),
                             axis.target_angle(rows))
        np.multiply(carrier, gain, out=out[:, c])
    # a +0.0 gain, or an underflowed product, times a carrier part < 0 gives -0.0, as in
    # (-0.5+0.3j) * 0.0 = -0.0+0.0j; adding +0.0 makes it +0.0
    out += 0.0
    return out


def scene_echo(targets, plan: FrequencyPlan, model: DispersionModel,
               antenna: AntennaModel) -> np.ndarray:
    """Noiseless dual-channel measurement of ``targets``, shape (2, M).

    Target echoes superpose linearly; an empty scene is all zeros. A sum
    that is not finite raises ValueError naming the first target whose phase
    4 pi f R / c is not finite at a frequency of the plan, or else the
    reflectivities.
    """
    positions = [t.position for t in targets]
    refl = np.array([(t.refl_x, t.refl_y) for t in targets], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = echo(positions, plan, model, antenna)
        rows *= refl.reshape(-1, 2, 1)  # against the M axis
        clean = rows.sum(axis=0) + 0.0  # as in echo: no -0.0
    if np.isfinite(clean).all():
        return clean
    for i, position in enumerate(positions):
        cause = phase_fault(position, plan)
        if cause:
            raise ValueError(f"target {i} at {position}: {cause}")
    raise ValueError("the scene's echo is not finite: a reflectivity is too large or NaN")


def phase_fault(position, plan: FrequencyPlan) -> str | None:
    """Why the echo at ``position`` is not finite, where its phase 4 pi f R / c is not finite
    at a frequency of the plan; None where it is finite at every one."""
    with np.errstate(over="ignore"):
        finite = np.isfinite(_phase(frequency_grid(plan), range_of(position))).all()
    return None if finite else ("the echo phase 4 pi f R / c is not finite for the plan's "
                                "frequencies")


def noise_sigma(clean: np.ndarray, snr_db: float | None) -> float:
    """Per-component noise standard deviation for a clean (2, M) measurement.

    The per-sample variance is sigma_c^2 = P_sig / 10^(snr_db/10), where P_sig
    is the mean noiseless per-sample power across both channels; each of the
    real and imaginary parts gets half of it. Where P_sig is inf or not a
    normal double, it is taken of the scene over its largest |sample|.
    Noiseless (None) or a zero-power scene gives 0. A non-finite snr_db
    raises ValueError; an SNR so low that the noise power overflows gives
    inf, which is rejected where the noise is added.
    """
    if snr_db is None:
        return 0.0
    if not math.isfinite(snr_db):
        raise ValueError(f"SNR must be a finite number of dB, got {snr_db!r}")
    scale = 1.0
    with np.errstate(over="ignore"):
        power = float(np.mean(np.abs(clean) ** 2))
        if not np.finfo(float).tiny <= power < math.inf and clean.any():
            scale = float(np.abs(clean).max())
            power = float(np.mean(np.abs(clean / scale) ** 2))
        var = power * np.float64(10.0) ** (-float(snr_db) / 10.0) if power else 0.0
    return scale * math.sqrt(var / 2.0)


def _keys(seeds, paths) -> np.ndarray:
    """Philox key of the stream (seed, *path), which starts at counter 0, for each seed of
    ``seeds`` and, within it, each path of ``paths``, shape (len(seeds) * len(paths), 2):
    the blake2b digest of the seed, masked to 64 bits, and the path labels, as two
    little-endian words."""
    from hashlib import blake2b  # here, so that only a verb that keys noise loads OpenSSL

    labels = [b"".join(b"/" + str(part).encode("utf-8") for part in path) for path in paths]
    digests = b"".join(
        blake2b(data + label, digest_size=16).digest()
        for data in ((int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little") for seed in seeds)
        for label in labels
    )
    return np.frombuffer(digests, dtype="<u8").reshape(-1, 2)


def derive_seeds(seed: int, paths) -> list[int]:
    """64-bit child seed of the stream (seed, *path) for each path of ``paths``: the first
    word of its key."""
    return _keys([seed], paths)[:, 0].tolist()


def noise(seeds, sigma: float, m: int) -> np.ndarray:
    """Circular complex Gaussian noise for each seed, shape (T, 2, M).

    Row t, channel c is the stream (seeds[t], c.value) read as M
    interleaved (re, im) normals of standard deviation ``sigma``, so a row
    depends only on its own seed. The keys of all the streams are hashed in
    one pass; one Philox bit generator, local to the call, is re-keyed to
    each stream in turn and draws straight into the block. With sigma 0 the
    block is zeros and no stream is keyed or drawn.
    """
    out = np.zeros((len(seeds), 2, m), dtype=np.complex128)
    if sigma:
        bits = np.random.Philox(0)
        gen = np.random.Generator(bits)
        start = bits.state  # counter 0 and an empty buffer; each stream sets its own key
        # The state setter reads numpy scalars slowly, so it is given plain ints.
        start["state"]["counter"], start["buffer"] = [0] * 4, [0] * 4
        normals = out.view(np.float64).reshape(-1, 2 * m)  # (T·2, 2M): each stream's pairs
        keys = _keys(seeds, [(axis.value,) for axis in ChannelAxis])
        for row, key in zip(normals, keys.tolist()):
            start["state"]["key"] = key
            bits.state = start
            gen.standard_normal(out=row)
        # normal(0, sigma) returns 0 + sigma * z: the sum turns an underflowed -0.0 into +0.0.
        with np.errstate(over="ignore"):  # an overflow is rejected where the noise is added
            normals *= sigma
        normals += 0.0
    return out


def simulate_measurement(
    scene: Scene,
    plan: FrequencyPlan,
    model: DispersionModel,
    antenna: AntennaModel,
) -> Measurement:
    """Dual-channel measurement of a scene over the full frequency sweep.

    The clean scene (``scene_echo``) plus, when configured, the noise row
    keyed by the scene's seed at the ``noise_sigma`` of its SNR. The result
    is bit-identical regardless of evaluation order. A noisy sum that is not
    finite raises ValueError.
    """
    clean = scene_echo(scene.targets, plan, model, antenna)
    sigma = noise_sigma(clean, scene.noise.snr_db)
    with np.errstate(over="ignore"):
        s = clean + noise([scene.noise.seed], sigma, plan.n_points)[0]
    if not np.isfinite(s).all():
        raise ValueError(f"the measurement at SNR {scene.noise.snr_db} dB is not finite")
    return Measurement(plan, *s)


def dechirp_range_profile(
    chirp: ChirpConfig, targets: list[tuple[float, complex]]
) -> tuple[np.ndarray, np.ndarray]:
    """Range profile of one chirp via dechirped beat tones and an FFT.

    ``targets`` are (range_m, complex_amplitude) pairs. Each target produces a
    beat tone at 2 k R / c; the returned profile is the n_samples-point DFT of
    the composite beat signal, with range axis R(q) = c q f_s / (2 k N).
    Raises ValueError if any beat frequency reaches f_s / 2.
    """
    t = np.arange(chirp.n_samples) / chirp.sample_rate
    beat = np.zeros(chirp.n_samples, dtype=np.complex128)
    for r, amp in targets:
        if not 0.0 < r < math.inf:
            raise GeometryError(f"target range must be positive, got {r}")
        f_beat = 2.0 * chirp.slope * r / SPEED_OF_LIGHT
        if f_beat >= chirp.sample_rate / 2.0:
            raise ValueError(f"beat frequency {f_beat:.6g} Hz aliases at sample rate "
                             f"{chirp.sample_rate:.6g} Hz")
        beat += amp * np.exp(2j * math.pi * f_beat * t)
    profile = np.fft.fft(beat)
    bins = np.arange(chirp.n_samples)
    ranges = SPEED_OF_LIGHT * bins * chirp.sample_rate / (
        2.0 * chirp.slope * chirp.n_samples
    )
    return profile, ranges
