"""Command-line surface: JSON config ingestion and experiment orchestration.

Verbs: simulate, dict, localize, probe, compare, sweep. All commands are
deterministic functions of (config file, flags): fixed seeds give
byte-identical output files. Exit codes: 0 success, 2 configuration/parse
error, 3 runtime or numerical error.

Config files are a single JSON document with unit-suffixed keys (`*_hz`,
`*_m`, `*_s`, `*_deg`); unknown keys are rejected to catch typos, and every
value is checked against its kind. Angles in files and flags are degrees;
internal math is radians.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np

from sweepsense import archcomp
from sweepsense.core import (
    FLOAT_FMT,
    DegenerateMeasurementError,
    FrequencyPlan,
    GeometryError,
    Measurement,
    NoiseConfig,
    Record,
    Scene,
    Target,
    check_rows,
    frequency_grid,
    open_bytes,
    read_table,
    table_text,
    write_text,
)
from sweepsense.dispersion import (
    DispersionModel,
    LinearSineDispersion,
    LookupTableDispersion,
)
from sweepsense.fingerprint import (
    Dictionary,
    PositionGrid,
    ambiguity_probe,
    build_fingerprint,
    dictionary_text,
    direction_norm,
    localize_batch,
    normalize,
)
from sweepsense.synth import (
    AntennaModel,
    derive_seeds,
    noise,
    noise_sigma,
    scene_echo,
    simulate_measurement,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# config parsing


_MAX_COUNT = int(np.iinfo(np.intp).max)  # the largest size numpy can give an array


class _Count(int):
    """The kind of a count: an integer no larger than _MAX_COUNT."""


# The kinds a config value can have, and how a wrong one is described.
_KINDS = {
    float: "a finite number",
    int: "an integer",
    _Count: f"an integer of at most {_MAX_COUNT}",
    bool: "a boolean",
    str: "a string",
    list: "a list",
}


def _sizable(*shape: int, itemsize: int) -> bool:
    """Whether numpy can size an array of ``shape`` and ``itemsize``: its bytes fit an intp."""
    return math.prod(shape) * itemsize <= _MAX_COUNT


def _checked(kind: type, value):
    """``value`` as ``kind``, or None if it is not of that kind.

    A bool counts only as a bool. A float must be finite; a JSON integer is
    one too, and one beyond the range of a double counts as infinite.
    """
    if kind is _Count:
        value = _checked(int, value)
        return None if value is None or value > _MAX_COUNT else value
    if isinstance(value, bool) != (kind is bool):
        return None
    if kind is float and isinstance(value, int):
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kind) or (kind is float and not math.isfinite(value)):
        return None
    return value


def _read(name: str, sec, kinds: dict, optional=()) -> dict:
    """Check section ``name`` against its key -> kind map; return its checked values.

    Every key of ``kinds`` not in ``optional`` is required.
    """
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    unknown = set(sec) - set(kinds)
    if unknown:
        raise ConfigError(f"section '{name}': unknown key(s) {sorted(unknown)}")
    missing = set(kinds) - set(optional) - set(sec)
    if missing:
        raise ConfigError(f"section '{name}': missing key(s) {sorted(missing)}")
    values = {key: _checked(kinds[key], value) for key, value in sec.items()}
    for key, value in values.items():
        if value is None:
            raise ConfigError(f"section '{name}': key '{key}' must be {_KINDS[kinds[key]]}")
        if isinstance(value, str) and any("\ud800" <= c <= "\udfff" for c in value):
            raise ConfigError(f"section '{name}': key '{key}' holds a lone surrogate (a JSON "
                              "\\u escape), which UTF-8 cannot encode")
    return values


def _build(where: str, make, *args, **kwargs):
    """Call ``make``; a ValueError or OSError it raises becomes a ConfigError naming ``where``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def load_config(path) -> dict:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        text = data.decode("utf-8")  # JSON is UTF-8 whatever the locale (RFC 8259)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        message = f"not UTF-8 text: byte 0x{data[exc.start]:02x} at column {column}"
        raise ConfigError(f"{path}: line {line}: {message}") from None

    def non_finite(name: str):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        cfg = json.loads(text, parse_constant=non_finite, object_pairs_hook=unique)
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: arrays or objects nested too deeply") from None
    except ConfigError:  # a non-finite constant or a repeated key, named already
        raise
    except ValueError as exc:  # a JSONDecodeError, or an integer of more digits than int() takes
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
    return cfg


def _section(sections: dict, name: str):
    if name not in sections:
        raise ConfigError(f"config is missing the required '{name}' section")
    return sections[name]


def parse_plan(sec) -> FrequencyPlan:
    kinds = {"f_min_hz": float, "f_max_hz": float, "n_points": _Count}
    v = _read("plan", sec, kinds)
    if not _sizable(v["n_points"], itemsize=8):
        raise ConfigError("section 'plan': key 'n_points' gives a frequency grid larger than "
                          "numpy can size")
    return _build("plan", FrequencyPlan, v["f_min_hz"], v["f_max_hz"], v["n_points"])


def parse_dispersion(sec, plan: FrequencyPlan, config_path) -> DispersionModel:
    if not isinstance(sec, dict) or "kind" not in sec:
        raise ConfigError("dispersion: missing 'kind'")
    kind = sec["kind"]
    if kind == "linear_sine":
        kinds = {"kind": str, "theta_max_deg": float, "theta_min_deg": float}
        v = _read("dispersion", sec, kinds, optional={"theta_min_deg"})
        theta_min = math.radians(v["theta_min_deg"]) if "theta_min_deg" in v else None
        return _build("dispersion", LinearSineDispersion.for_plan, plan,
                      math.radians(v["theta_max_deg"]), theta_min)
    if kind == "lookup_table":
        v = _read("dispersion", sec, {"kind": str, "table_path": str})
        path = Path(config_path).parent / v["table_path"]
        model = _build("dispersion", LookupTableDispersion.from_csv, path)
        _build("dispersion", model.beam_angle, frequency_grid(plan))  # the plan lies in its band
        return model
    raise ConfigError(f"dispersion: unknown kind {kind!r}")


def parse_antenna(sec, plan: FrequencyPlan | None) -> AntennaModel:
    """The antenna; with a ``plan``, its narrowest beamwidth c/(f_max L) must be a normal double."""
    kinds = {"length_m": float, "two_way": bool}
    v = _read("antenna", sec, kinds, optional=kinds)
    antenna = _build("antenna", AntennaModel, v.get("length_m", AntennaModel.length),
                     v.get("two_way", AntennaModel.two_way))
    with np.errstate(over="ignore"):  # an infinite width is rejected below
        width = float(antenna.half_power_beamwidth(plan.f_max)) if plan else 1.0
    if not sys.float_info.min <= width < math.inf:
        raise ConfigError(f"antenna: plan.f_max_hz = {plan.f_max!r} and antenna.length_m = "
                          f"{antenna.length!r} give a narrowest beamwidth c/(f_max L) of "
                          f"{width!r} rad, which is not a normal double")
    return antenna


# alpha_re/_im, and the per-channel alpha_x_* and alpha_y_* that override them
_ALPHA_KEYS = {f"alpha{ch}_{part}": float for ch in ("", "_x", "_y") for part in ("re", "im")}
_TARGET_KEYS = {"x_m": float, "y_m": float, "z_m": float, **_ALPHA_KEYS}


def _parse_target(i: int, sec) -> Target:
    name = f"scene.targets[{i}]"
    v = _read(name, sec, _TARGET_KEYS, optional=_ALPHA_KEYS)
    alpha = complex(v.get("alpha_re", 1.0), v.get("alpha_im", 0.0))
    refl_x, refl_y = (
        complex(v.get(f"alpha_{ch}_re", alpha.real), v.get(f"alpha_{ch}_im", alpha.imag))
        for ch in "xy"
    )
    return _build(name, Target, (v["x_m"], v["y_m"], v["z_m"]), refl_x, refl_y)


def parse_scene(sec, seed_override: int | None) -> Scene:
    noiseless = isinstance(sec, dict) and sec.get("snr_db") == "noiseless"
    v = _read("scene", sec, {"targets": list, "snr_db": str if noiseless else float, "seed": int})
    targets = tuple(_parse_target(i, t) for i, t in enumerate(v["targets"]))
    seed = v["seed"] if seed_override is None else seed_override
    noise = _build("scene", NoiseConfig, None if noiseless else v["snr_db"], seed)
    return Scene(targets=targets, noise=noise)


def parse_grid(sec, plan: FrequencyPlan | None) -> PositionGrid:
    """The grid; with a ``plan``, numpy must be able to size its (nx*ny*nz, 2*n_points)
    complex dictionary entries."""
    ranges = {f"{a}_{end}_m": float for a in "xyz" for end in ("min", "max")}
    v = _read("grid", sec, {**ranges, "nx": _Count, "ny": _Count, "nz": _Count})
    if plan and not _sizable(v["nx"], v["ny"], v["nz"], 2 * plan.n_points, itemsize=16):
        raise ConfigError("section 'grid': keys 'nx', 'ny', 'nz' with plan key 'n_points' give "
                          "dictionary entries larger than numpy can size")
    return _build(
        "grid", PositionGrid,
        *((v[f"{a}_min_m"], v[f"{a}_max_m"]) for a in "xyz"),
        *(v[f"n{a}"] for a in "xyz"),
    )


def parse_architectures(sec) -> list[archcomp.ArchitectureSpec]:
    """Each entry as an ArchitectureSpec: its fields are the keys, their annotations the
    kinds (without an optional field's None), and the fields that have a default may be
    left out."""
    if not isinstance(sec, list) or not sec:
        raise ConfigError("architectures: must be a non-empty list")
    spec = archcomp.ArchitectureSpec
    kinds = {key: next((t for t in typing.get_args(hint) if t is not type(None)), hint)
             for key, hint in typing.get_type_hints(spec).items()}
    optional = {key for key in kinds if hasattr(spec, key)}
    specs = []
    for i, entry in enumerate(sec):
        name = f"architectures[{i}]"
        specs.append(_build(name, spec, **_read(name, entry, kinds, optional)))
    return specs


# Every config section, in parse order, with its parser of (value, sections got so far, args).
_SECTIONS = {
    "plan": lambda sec, got, args: parse_plan(sec),
    "dispersion": lambda sec, got, args: parse_dispersion(sec, _section(got, "plan"), args.config),
    "antenna": lambda sec, got, args: parse_antenna(sec, got.get("plan")),
    "scene": lambda sec, got, args: parse_scene(sec, getattr(args, "seed", None)),
    "grid": lambda sec, got, args: parse_grid(sec, got.get("plan")),
    "architectures": lambda sec, got, args: parse_architectures(sec),
}


def _load(args, *names) -> list:
    """Parse every section the config holds; return the ``names`` ones (antenna has defaults)."""
    cfg, got = {"antenna": {}, **load_config(args.config)}, {}
    for name, parse in _SECTIONS.items():
        if name in cfg:
            got[name] = parse(cfg[name], got, args)
    return [_section(got, name) for name in names]


# ---------------------------------------------------------------------------
# measurement CSV

_MEAS_HEADER = "m,f_hz,theta_deg,sx_re,sx_im,sy_re,sy_im"


def _measurement_keys(plan: FrequencyPlan, model: DispersionModel) -> np.ndarray:
    """The m, f_hz and theta_deg cells of each measurement row, shape (M, 3):
    m = 0..M-1, the plan's frequency grid and the dispersion model's beam angle."""
    freqs = frequency_grid(plan)
    return np.column_stack([np.arange(plan.n_points), freqs, np.degrees(model.beam_angle(freqs))])


def measurement_to_csv(meas: Measurement, model: DispersionModel) -> str:
    s = np.stack([meas.s_x, meas.s_y], axis=1).view(np.float64)  # sx_re, sx_im, sy_re, sy_im
    table = table_text(_MEAS_HEADER, [(_measurement_keys(meas.plan, model), s)], n_int=1)
    return b"".join(table).decode("ascii")


def read_measurement_csv(path, plan: FrequencyPlan, model: DispersionModel) -> Measurement:
    """Read a measurement CSV whose key cells are _measurement_keys(plan, model).

    A malformed file raises ValueError naming its line."""
    with open_bytes(path) as fh:
        body = read_table(path, _MEAS_HEADER, fh)
        check_rows(path, body[:, :3], _measurement_keys(plan, model), _MEAS_HEADER.split(","), fh)
    s = body[:, 3:].view(np.complex128)  # columns s_x, s_y
    return Measurement(plan, s[:, 0], s[:, 1])


# ---------------------------------------------------------------------------
# SNR sweep


class SweepPoint(Record):
    snr_db: float | None  # None means noiseless
    rmse: float
    errors: tuple[float, ...]


# Trials normalized and scored together. The last bits of a score depend on this width, so
# the sweep CSV's bytes do; fingerprint.CHUNK_ROWS, the rows a score call takes, changes none.
SWEEP_BATCH = 64


def run_sweep(
    plan: FrequencyPlan,
    model: DispersionModel,
    antenna: AntennaModel,
    scene: Scene,
    grid: PositionGrid,
    snrs: list[float | None],
    trials: int,
    workers: int = 1,
) -> list[SweepPoint]:
    """Monte-Carlo localization RMSE per SNR point.

    Trial k of SNR point i is the clean scene plus the noise keyed by
    derive_seeds(scene seed, [(i, k)]), so its measurement never depends on trial
    count, ordering, or workers. Trials are normalized in batches of
    SWEEP_BATCH (64), held until they reach the grid's row count (the size
    of its entries), then scored in one pass over the dictionary. The last
    bits of a score depend on the batch width, so a trial gets the grid
    index that localizing it on its own gives except at a score tie within
    rounding (about 2e-16). With noise sigma 0 every trial is the clean
    scene, scored once. Each error, and the RMSE, is taken with
    hypot, which squares nothing and so cannot overflow. The first
    configured target is the ground truth, so a scene without one raises
    ConfigError; every SNR must be finite, or None for noiseless.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not scene.targets:
        raise ConfigError("sweep needs at least one target as ground truth")
    clean = scene_echo(scene.targets, plan, model, antenna)
    sigmas = [noise_sigma(clean, snr) for snr in snrs]
    dictionary = Dictionary(grid, plan, model, antenna)
    indices = [np.empty(trials if sigma else 1, dtype=np.intp) for sigma in sigmas]
    blocks, outs = [], []  # the held trial batches, and the indices each one fills
    for snr_idx, sigma in enumerate(sigmas):
        for start in range(0, len(indices[snr_idx]), SWEEP_BATCH):
            stop = min(start + SWEEP_BATCH, len(indices[snr_idx]))
            # noise with sigma 0 reads no seed, so none is keyed and OpenSSL stays unloaded
            seeds = (derive_seeds(scene.noise.seed, ((snr_idx, t) for t in range(start, stop)))
                     if sigma else [None])
            with np.errstate(over="ignore"):  # a sum that overflows is rejected as not finite
                measured = clean + noise(seeds, sigma, plan.n_points)
            blocks.append(normalize(measured,
                                    lambda i: f"trial {start + i} of SNR point {snr_idx}"))
            outs.append(indices[snr_idx][start:stop])
            last = (snr_idx, stop) == (len(sigmas) - 1, len(indices[-1]))
            if last or sum(map(len, blocks)) >= grid.size:
                for out, (found, _) in zip(outs, localize_batch(blocks, dictionary)):
                    out[:] = found
                blocks, outs = [], []

    dx, dy, dz = (dictionary.positions - scene.targets[0].position).T
    miss = np.hypot(np.hypot(dx, dy), dz)
    points = []
    for snr, found in zip(snrs, indices):
        errors = miss[np.broadcast_to(found, trials)].tolist()
        rmse = math.hypot(*errors) / math.sqrt(trials)
        points.append(SweepPoint(snr_db=snr, rmse=rmse, errors=tuple(errors)))
    return points


def sweep_to_csv(points: list[SweepPoint]) -> str:
    lines = ["snr_db,rmse_m,trials"]
    for p in points:
        label = "noiseless" if p.snr_db is None else FLOAT_FMT % p.snr_db
        lines.append(f"{label},{FLOAT_FMT % p.rmse},{len(p.errors)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: each returns (output, side), and main writes both. output is the verb's
# primary output, its text or the ASCII blocks it prints as they are drawn (none for
# compare without --out); side is the text for the other stream, or None.


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_simulate(args) -> tuple:
    plan, model, antenna, scene = _load(args, "plan", "dispersion", "antenna", "scene")
    meas = simulate_measurement(scene, plan, model, antenna)
    return measurement_to_csv(meas, model), None


def cmd_dict(args) -> tuple:
    plan, model, antenna, grid = _load(args, "plan", "dispersion", "antenna", "grid")
    return dictionary_text(Dictionary(grid, plan, model, antenna)), None


def cmd_localize(args) -> tuple:
    plan, model, antenna, grid = _load(args, "plan", "dispersion", "antenna", "grid")
    dictionary = Dictionary(grid, plan, model, antenna)
    try:
        try:
            meas = read_measurement_csv(args.measurement, plan, model)
            block = build_fingerprint(meas).vector[None]
        except (OSError, ValueError):  # the rows' errors, then the file's, come first
            localize_batch([], dictionary, args.dict)
            raise
        [(indices, scores)] = localize_batch([block], dictionary, args.dict)
    except (OSError, ValueError) as exc:
        if isinstance(exc, DegenerateMeasurementError):
            raise  # a measurement or dictionary row that cannot be normalized: exit 3
        raise ConfigError(str(exc)) from None
    payload = {
        "estimate": grid.points()[indices[0]].tolist(),
        "score": float(scores[0]),
        "grid_index": int(indices[0]),
        "dictionary_size": grid.size,
    }
    return _json_dumps(payload), None


def cmd_probe(args) -> tuple:
    plan, model, antenna = _load(args, "plan", "dispersion", "antenna")
    axis_text, axis = args.axis
    angular = axis in ("azimuth", "elevation")
    # Flags and files use degrees for angular offsets; the probe works in rad.
    span = math.radians(args.span) if angular else args.span
    if not math.isfinite(2 * span):  # the width of the offsets, which linspace divides
        raise ConfigError(f"--span: {args.span!r} m puts the offsets -span to span {2 * span} m "
                          "apart, more than a double holds")
    offsets = np.linspace(-span, span, args.steps)
    try:
        curve = ambiguity_probe(args.p0, axis, offsets, plan, model, antenna)
    except GeometryError as exc:
        raise ConfigError(f"probe geometry: {exc}") from None
    file_offsets = np.degrees(offsets) if angular else offsets
    csv = table_text("offset,similarity", [(file_offsets, curve.similarities)])
    summary = {
        "axis": axis_text,
        "p0_m": list(args.p0),
        "offset_unit": "deg" if angular else "m",
        "span": args.span,
        "steps": args.steps,
        "half_power_width": (
            math.degrees(curve.width) if (angular and curve.width is not None) else curve.width
        ),
    }
    if angular:
        summary["half_power_width_rad"] = curve.width
    return csv, _json_dumps(summary)


def cmd_compare(args) -> tuple:
    report = archcomp.compare(*_load(args, "architectures"), r_query=args.r_query)
    return () if args.out is None else _json_dumps(report.to_dict()), report.to_text()


def cmd_sweep(args) -> tuple:
    plan, model, antenna, scene, grid = _load(
        args, "plan", "dispersion", "antenna", "scene", "grid")
    points = run_sweep(plan, model, antenna, scene, grid, args.snr, args.trials)
    return sweep_to_csv(points), None


# ---------------------------------------------------------------------------
# entry point


def _flag(reason: str, parse, accept=lambda value: True):
    """An argparse type: ``parse(text)`` if it is neither None nor a ValueError and
    ``accept`` takes it, else an error naming ``reason`` and ``text``."""

    def convert(text: str):
        try:
            value = parse(text)
            if value is not None and accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{reason}, got '{text}'")

    return convert


_POSITIVE = _flag("must be a finite number > 0", float, lambda x: 0 < x < math.inf)
# checked as the flags are parsed, so a path with no directory to write in fails before the run
_OUT = _flag("must be '-' or a file path in a directory that exists", str,
             lambda p: p == "-" or p != "" and not os.path.isdir(p)
             and os.path.isdir(os.path.dirname(p) or "."))


def _vector(text: str) -> tuple[float, float, float] | None:
    """Three finite numbers 'x,y,z', or None."""
    v = tuple(float(part) for part in text.split(","))
    return v if len(v) == 3 and all(map(math.isfinite, v)) else None


def _axis(text: str):
    """``text`` with the probe axis it names: azimuth, elevation, range or a direction."""
    if text in ("azimuth", "elevation", "range"):
        return text, text
    vector = _vector(text)
    if vector is None:
        return None
    direction_norm(vector)  # a ValueError unless the probe can divide by its norm
    return text, vector


def _snrs(text: str) -> list[float | None]:
    """Each comma-separated token of ``text`` as finite dB, or None for 'noiseless'."""
    snrs = []
    for token in text.split(","):
        try:
            snr = None if token.strip() == "noiseless" else float(token)
        except ValueError:
            snr = math.nan
        if snr is not None and not math.isfinite(snr):
            raise argparse.ArgumentTypeError(
                f"'{token}' is not 'noiseless' or a finite number of dB, got '{text}'"
            )
        snrs.append(snr)
    return snrs


class _Parser(argparse.ArgumentParser):
    """Raises every parse error as ArgumentError for main: exit_on_error=False does so only
    for a rejected flag value, not an unknown argument or a missing verb or flag."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    # With exit_on_error=False a rejected flag value raises ArgumentError for main.
    parser = _Parser(
        prog="sweepsense",
        description="Frequency-scanned virtual-aperture near-field sensing simulator",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, help, out_default="-", seed=False) -> argparse.ArgumentParser:
        """Register ``name`` running ``func``, with --config, --out and, if asked, --seed."""
        p = sub.add_parser(name, help=help, exit_on_error=False)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=out_default, type=_OUT, help="output path ('-' = stdout)")
        if seed:
            seed_type = _flag("must be an integer in [0, 2**64)", int, lambda n: 0 <= n < 2**64)
            p.add_argument("--seed", type=seed_type, help="override the scene seed")
        p.set_defaults(func=func)
        return p

    verb("simulate", cmd_simulate, "synthesize a dual-channel measurement CSV", seed=True)
    verb("dict", cmd_dict, "build and export a fingerprint dictionary CSV")

    p = verb("localize", cmd_localize, "match a measurement CSV against a dictionary")
    p.add_argument("--measurement", required=True, help="measurement CSV path")
    p.add_argument("--dict", default=None,
                   help="check an exported dictionary CSV against the config")

    p = verb("probe", cmd_probe, "trace an ambiguity curve around a position")
    p.add_argument("--p0", default="0,0,3", help="reference position x,y,z in meters",
                   type=_flag("must be three finite numbers x,y,z", _vector))
    p.add_argument(
        "--axis",
        default="azimuth",
        help="azimuth | elevation | range | ux,uy,uz direction vector",
        type=_flag("must be azimuth, elevation, range or a vector ux,uy,uz of finite nonzero norm",
                   _axis),
    )
    p.add_argument("--span", required=True, type=_POSITIVE,
                   help="max |offset| (deg for angular axes, m otherwise)")
    # A count is accepted only if numpy can size the doubles it gives: the probe's (steps, 3)
    # positions, the sweep's (trials,) errors.
    p.add_argument("--steps", default=201, type=_flag(
        f"must be an integer from 3 to {_MAX_COUNT // 24}, the most (steps, 3) positions "
        "numpy can size", int, lambda n: 3 <= n and _sizable(n, 3, itemsize=8)))

    p = verb("compare", cmd_compare, "architecture comparison report", out_default=None)
    p.add_argument("--r-query", type=_POSITIVE, default=3.0, help="cell-volume range (m)")

    p = verb("sweep", cmd_sweep, "Monte-Carlo localization RMSE vs SNR", seed=True)
    p.add_argument("--snr", required=True, type=_snrs,
                   help="comma list of SNR dB values; 'noiseless' allowed")
    p.add_argument("--trials", default=100, type=_flag(
        f"must be an integer from 1 to {_MAX_COUNT // 8}, the most (trials,) errors numpy "
        "can size", int, lambda n: 1 <= n and _sizable(n, itemsize=8)))
    return parser


def _then(blocks, finish):
    """``blocks``, then ``finish()`` once the last is drawn: write_text draws every block
    before it puts a file in place, so a failure in ``finish`` leaves the file as it was."""
    yield from blocks
    finish()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "--axis -0.3,0.2,1.0" or "--snr -10,0" as two options; attach the value.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--p0", "--axis", "--snr"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = build_parser().parse_args(argv)
        output, side = args.func(args)

        def finish():  # a full or closed stdout fails here, before an --out file is in place
            if side is not None:  # on stderr when the output takes stdout, so each stream parses
                (sys.stderr if args.out == "-" else sys.stdout).write(side)
            sys.stdout.flush()

        blocks = [output.encode("ascii")] if isinstance(output, str) else output
        write_text(sys.stdout if args.out in ("-", None) else args.out, _then(blocks, finish))
        return 0
    except argparse.ArgumentError as exc:
        flag = f"{exc.argument_name}: " if exc.argument_name else ""
        print(f"error: {flag}{exc.message}", file=sys.stderr)
        return 2
    except (ConfigError, archcomp.NonFiniteMetricError, archcomp.RatioKeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # GeometryError and DegenerateMeasurementError are ValueErrors.
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The process entry of ``python -m sweepsense.cli`` and the ``sweepsense`` script.

    ``gc.freeze()`` moves the objects the imports made, mostly numpy's, to the collector's
    permanent generation: neither the run's collections nor those at interpreter exit
    walk them, and the OS reclaims the cycles among them. ``main``, the in-process API,
    does not freeze: each call would keep its reference cycles alive for good. stdout
    and stderr are set to UTF-8, so a verb prints the same bytes whatever the locale;
    ``main`` writes text to whichever streams it is given. When stdout is full or closed,
    ``main`` has said so and returned 3; fd 1 then points at the null device, so the
    interpreter's flush at exit does not fail a second time on the text left unwritten.
    A stream closed at start is opened on the null device, stdout read-only so printing fails.
    """
    gc.freeze()
    for name, flags in (("stdout", os.O_RDONLY), ("stderr", os.O_WRONLY)):
        if getattr(sys, name) is None:  # its fd was closed at start
            setattr(sys, name, open(os.open(os.devnull, flags), "w"))
    sys.stdout.reconfigure(encoding="utf-8", errors="strict")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
