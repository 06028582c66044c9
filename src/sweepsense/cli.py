"""Command-line surface: JSON config ingestion and experiment orchestration.

Verbs: simulate, dict, localize, probe, compare, sweep. All commands are
deterministic functions of (config file, flags): fixed seeds give
byte-identical output files. Exit codes: 0 success, 2 configuration/parse
error, 3 runtime or numerical error.

Config files are a single JSON document with unit-suffixed keys (`*_hz`,
`*_m`, `*_s`, `*_deg`); unknown keys are rejected to catch typos. Angles in
files and flags are degrees; internal math is radians.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sweepsense import archcomp
from sweepsense.core import (
    FLOAT_FMT,
    AliasingError,
    BandError,
    DegenerateMeasurementError,
    FrequencyPlan,
    GeometryError,
    Measurement,
    NoiseConfig,
    Scene,
    Target,
    frequency_grid,
    line_error,
    read_table,
    write_table,
)
from sweepsense.dispersion import (
    DispersionModel,
    LinearSineDispersion,
    LookupTableDispersion,
)
from sweepsense.fingerprint import (
    SCORE_CELLS,
    PositionGrid,
    _normalize,
    ambiguity_probe,
    build_dictionary,
    export_dictionary,
    import_dictionary,
    localize,
    localize_batch,
)
from sweepsense.streams import derive_seed
from sweepsense.synth import AntennaModel, noise, noise_sigma, scene_echo, simulate_measurement


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# config parsing


def _check_keys(name: str, obj: dict, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"section '{name}' must be a JSON object")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(f"section '{name}': unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"section '{name}': missing key(s) {sorted(missing)}")


def _number(name: str, key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"section '{name}': key '{key}' must be a number")
    return float(value)


def _integer(name: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"section '{name}': key '{key}' must be an integer")
    return value


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None

    def non_finite(name: str):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")

    try:
        cfg = json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    known = {"plan", "dispersion", "antenna", "scene", "grid", "architectures"}
    unknown = set(cfg) - known
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"config is missing the required '{name}' section")
    return cfg[name]


def parse_plan(cfg: dict) -> FrequencyPlan:
    sec = _section(cfg, "plan")
    _check_keys("plan", sec, {"f_min_hz", "f_max_hz", "n_points"})
    try:
        return FrequencyPlan(
            f_min=_number("plan", "f_min_hz", sec["f_min_hz"]),
            f_max=_number("plan", "f_max_hz", sec["f_max_hz"]),
            n_points=_integer("plan", "n_points", sec["n_points"]),
        )
    except ValueError as exc:
        raise ConfigError(f"plan: {exc}") from None


def parse_dispersion(cfg: dict, plan: FrequencyPlan, base_dir: Path) -> DispersionModel:
    sec = _section(cfg, "dispersion")
    if not isinstance(sec, dict) or "kind" not in sec:
        raise ConfigError("dispersion: missing 'kind'")
    kind = sec["kind"]
    try:
        if kind == "linear_sine":
            _check_keys("dispersion", sec, {"kind", "theta_max_deg"}, {"theta_min_deg"})
            theta_max = math.radians(_number("dispersion", "theta_max_deg", sec["theta_max_deg"]))
            theta_min = (
                math.radians(_number("dispersion", "theta_min_deg", sec["theta_min_deg"]))
                if "theta_min_deg" in sec
                else None
            )
            return LinearSineDispersion.for_plan(plan, theta_max=theta_max, theta_min=theta_min)
        if kind == "lookup_table":
            _check_keys("dispersion", sec, {"kind", "table_path"})
            return LookupTableDispersion.from_csv(base_dir / sec["table_path"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"dispersion: {exc}") from None
    raise ConfigError(f"dispersion: unknown kind {kind!r}")


def parse_antenna(cfg: dict) -> AntennaModel:
    sec = cfg.get("antenna", {})
    _check_keys("antenna", sec, set(), {"length_m", "two_way"})
    length = _number("antenna", "length_m", sec.get("length_m", 0.12))
    two_way = sec.get("two_way", True)
    if not isinstance(two_way, bool):
        raise ConfigError("antenna: 'two_way' must be a boolean")
    try:
        return AntennaModel(length=length, two_way=two_way)
    except ValueError as exc:
        raise ConfigError(f"antenna: {exc}") from None


_TARGET_KEYS_REQ = {"x_m", "y_m", "z_m"}
_TARGET_KEYS_OPT = {
    "alpha_re",
    "alpha_im",
    "alpha_x_re",
    "alpha_x_im",
    "alpha_y_re",
    "alpha_y_im",
}


def _parse_target(i: int, sec: dict) -> Target:
    name = f"scene.targets[{i}]"
    _check_keys(name, sec, _TARGET_KEYS_REQ, _TARGET_KEYS_OPT)
    pos = tuple(_number(name, k, sec[k]) for k in ("x_m", "y_m", "z_m"))
    alpha = complex(
        _number(name, "alpha_re", sec.get("alpha_re", 1.0)),
        _number(name, "alpha_im", sec.get("alpha_im", 0.0)),
    )
    refl_x = alpha
    refl_y = alpha
    if "alpha_x_re" in sec or "alpha_x_im" in sec:
        refl_x = complex(
            _number(name, "alpha_x_re", sec.get("alpha_x_re", alpha.real)),
            _number(name, "alpha_x_im", sec.get("alpha_x_im", alpha.imag)),
        )
    if "alpha_y_re" in sec or "alpha_y_im" in sec:
        refl_y = complex(
            _number(name, "alpha_y_re", sec.get("alpha_y_re", alpha.real)),
            _number(name, "alpha_y_im", sec.get("alpha_y_im", alpha.imag)),
        )
    try:
        return Target(position=pos, refl_x=refl_x, refl_y=refl_y)
    except GeometryError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_scene(cfg: dict, seed_override: int | None = None) -> Scene:
    sec = _section(cfg, "scene")
    _check_keys("scene", sec, {"targets", "snr_db", "seed"})
    if not isinstance(sec["targets"], list):
        raise ConfigError("scene: 'targets' must be a list")
    targets = tuple(_parse_target(i, t) for i, t in enumerate(sec["targets"]))
    snr = sec["snr_db"]
    if snr == "noiseless":
        snr_db = None
    else:
        snr_db = _number("scene", "snr_db", snr)
    seed = _integer("scene", "seed", sec["seed"])
    if seed_override is not None:
        seed = seed_override
    try:
        return Scene(targets=targets, noise=NoiseConfig(snr_db=snr_db, seed=seed))
    except ValueError as exc:
        raise ConfigError(f"scene: {exc}") from None


def parse_grid(cfg: dict) -> PositionGrid:
    sec = _section(cfg, "grid")
    keys = {"x_min_m", "x_max_m", "nx", "y_min_m", "y_max_m", "ny", "z_min_m", "z_max_m", "nz"}
    _check_keys("grid", sec, keys)
    try:
        return PositionGrid(
            x_range=(_number("grid", "x_min_m", sec["x_min_m"]),
                     _number("grid", "x_max_m", sec["x_max_m"])),
            y_range=(_number("grid", "y_min_m", sec["y_min_m"]),
                     _number("grid", "y_max_m", sec["y_max_m"])),
            z_range=(_number("grid", "z_min_m", sec["z_min_m"]),
                     _number("grid", "z_max_m", sec["z_max_m"])),
            nx=_integer("grid", "nx", sec["nx"]),
            ny=_integer("grid", "ny", sec["ny"]),
            nz=_integer("grid", "nz", sec["nz"]),
        )
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from None


_ARCH_KEYS_REQ = {
    "name",
    "rf_chains",
    "physical_size_m",
    "bandwidth_hz",
    "n_samples",
    "aperture_kind",
    "f_ref_hz",
    "power_mw",
    "cost_usd",
    "fov_deg",
}
_ARCH_KEYS_OPT = {"eta_reference", "observability", "noise_rejection"}


def parse_architectures(cfg: dict) -> list[archcomp.ArchitectureSpec]:
    sec = _section(cfg, "architectures")
    if not isinstance(sec, list) or not sec:
        raise ConfigError("architectures: must be a non-empty list")
    specs = []
    for i, entry in enumerate(sec):
        name = f"architectures[{i}]"
        _check_keys(name, entry, _ARCH_KEYS_REQ, _ARCH_KEYS_OPT)
        try:
            specs.append(
                archcomp.ArchitectureSpec(
                    name=str(entry["name"]),
                    rf_chains=_integer(name, "rf_chains", entry["rf_chains"]),
                    physical_size=_number(name, "physical_size_m", entry["physical_size_m"]),
                    bandwidth=_number(name, "bandwidth_hz", entry["bandwidth_hz"]),
                    n_samples=_integer(name, "n_samples", entry["n_samples"]),
                    aperture_kind=str(entry["aperture_kind"]),
                    f_ref=_number(name, "f_ref_hz", entry["f_ref_hz"]),
                    power_mw=_number(name, "power_mw", entry["power_mw"]),
                    cost_usd=_number(name, "cost_usd", entry["cost_usd"]),
                    fov_deg=_number(name, "fov_deg", entry["fov_deg"]),
                    eta_reference=(
                        _number(name, "eta_reference", entry["eta_reference"])
                        if "eta_reference" in entry
                        else None
                    ),
                    observability=entry.get("observability"),
                    noise_rejection=entry.get("noise_rejection"),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return specs


# ---------------------------------------------------------------------------
# measurement CSV

_MEAS_HEADER = "m,f_hz,theta_deg,sx_re,sx_im,sy_re,sy_im"


def measurement_to_csv(meas: Measurement, model: DispersionModel) -> str:
    freqs = frequency_grid(meas.plan)
    thetas = np.degrees(np.atleast_1d(model.beam_angle(freqs)))
    s = np.stack([meas.s_x, meas.s_y], axis=1).view(np.float64)  # sx_re, sx_im, sy_re, sy_im
    table = np.column_stack([np.arange(len(freqs)), freqs, thetas, s])
    return write_table(None, _MEAS_HEADER, table, n_int=1)


def read_measurement_csv(path, plan: FrequencyPlan,
                         model: DispersionModel | None = None) -> Measurement:
    """Read a measurement CSV; rows must be m = 0..M-1 on the plan's frequency grid.

    Given a dispersion model, each theta_deg must also be its beam angle at
    that frequency. A malformed file raises ValueError naming its line.
    """
    header, body = read_table(path)
    if ",".join(header) != _MEAS_HEADER:
        raise ValueError(f"{path}: line 1: expected header '{_MEAS_HEADER}'")
    if len(body) != plan.n_points:
        raise ValueError(
            f"{path}: has {len(body)} data rows but the plan expects {plan.n_points}"
        )
    freqs = frequency_grid(plan)
    # Printed with 10 significant digits, f_hz is within 5e-10 (relative) of the plan's.
    off_plan = body[:, 0] != np.arange(plan.n_points)
    off_plan |= np.abs(body[:, 1] - freqs) > 1e-9 * freqs
    if off_plan.any():
        i = int(np.argmax(off_plan))
        message = (
            f"expected m = {i} at f_hz = {FLOAT_FMT % freqs[i]} (the plan's grid), "
            f"got m = {body[i, 0]:g} at f_hz = {FLOAT_FMT % body[i, 1]}"
        )
        raise line_error(path, i, message)
    if model is not None:
        thetas = np.degrees(np.atleast_1d(model.beam_angle(freqs)))
        # Printing rounds each angle by at most 5e-10 of the column's largest |value|.
        off_beam = np.abs(body[:, 2] - thetas) > 1e-9 * np.abs(thetas).max()
        if off_beam.any():
            i = int(np.argmax(off_beam))
            message = (
                f"expected theta_deg = {FLOAT_FMT % thetas[i]} at m = {i} (the dispersion "
                f"model's beam angle), got {FLOAT_FMT % body[i, 2]}"
            )
            raise line_error(path, i, message)
    s = np.ascontiguousarray(body[:, 3:]).view(np.complex128)  # columns s_x, s_y
    return Measurement(plan, s[:, 0], s[:, 1])


# ---------------------------------------------------------------------------
# SNR sweep


@dataclass(frozen=True)
class SweepPoint:
    snr_db: float | None  # None means noiseless
    rmse: float
    errors: tuple[float, ...]

    @property
    def label(self) -> str:
        return "noiseless" if self.snr_db is None else FLOAT_FMT % self.snr_db


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
    derive_seed(scene seed, i, k), localized against one dictionary: the
    same result as simulating and localizing that trial on its own, so a
    given trial's outcome never depends on trial count, ordering, or
    workers. Trials are scored in batches of about SCORE_CELLS dictionary
    scores. The first configured target is the ground truth; every SNR
    must be finite, or None for noiseless.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not scene.targets:
        raise ValueError("sweep needs at least one target as ground truth")
    clean = scene_echo(scene.targets, plan, model, antenna)
    sigmas = [noise_sigma(clean, snr) for snr in snrs]
    dictionary = build_dictionary(grid, plan, model, antenna, workers=workers)
    truth = np.asarray(scene.targets[0].position)
    # One 3-vector norm per entry, as a single localize result's error is taken.
    miss = np.array([np.linalg.norm(p - truth) for p in dictionary.positions])
    batch = max(1, SCORE_CELLS // dictionary.size)

    points = []
    for snr_idx, (snr, sigma) in enumerate(zip(snrs, sigmas)):
        indices = np.empty(trials, dtype=np.intp)
        for start in range(0, trials, batch):
            stop = min(start + batch, trials)
            seeds = [derive_seed(scene.noise.seed, snr_idx, t) for t in range(start, stop)]
            measured = clean + noise(seeds, sigma, plan.n_points)
            block = _normalize(measured, lambda i: f"trial {start + i} of SNR point {snr_idx}")
            indices[start:stop], _ = localize_batch(block, dictionary)
        errors = miss[indices].tolist()
        rmse = math.sqrt(sum(e * e for e in errors) / trials)
        points.append(SweepPoint(snr_db=snr, rmse=rmse, errors=tuple(errors)))
    return points


def sweep_to_csv(points: list[SweepPoint], trials: int) -> str:
    lines = ["snr_db,rmse_m,trials"]
    for p in points:
        lines.append(f"{p.label},{FLOAT_FMT % p.rmse},{trials}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _workers(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    return args.workers


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    plan = parse_plan(cfg)
    model = parse_dispersion(cfg, plan, Path(args.config).parent)
    antenna = parse_antenna(cfg)
    scene = parse_scene(cfg, seed_override=args.seed)
    meas = simulate_measurement(scene, plan, model, antenna)
    _write_output(args.out, measurement_to_csv(meas, model))
    return 0


def cmd_dict(args) -> int:
    cfg = load_config(args.config)
    plan = parse_plan(cfg)
    model = parse_dispersion(cfg, plan, Path(args.config).parent)
    antenna = parse_antenna(cfg)
    grid = parse_grid(cfg)
    dictionary = build_dictionary(grid, plan, model, antenna, workers=_workers(args))
    export_dictionary(dictionary, sys.stdout if args.out in (None, "-") else args.out)
    return 0


def cmd_localize(args) -> int:
    workers = _workers(args)
    cfg = load_config(args.config)
    plan = parse_plan(cfg)
    model = parse_dispersion(cfg, plan, Path(args.config).parent)
    try:
        dictionary = None if args.dict is None else import_dictionary(args.dict)
        meas = read_measurement_csv(args.measurement, plan, model)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if dictionary is None:
        antenna = parse_antenna(cfg)
        grid = parse_grid(cfg)
        dictionary = build_dictionary(grid, plan, model, antenna, workers=workers)
    elif dictionary.n_points != plan.n_points:
        raise ConfigError(
            f"dictionary has {dictionary.n_points} frequency points but the "
            f"plan expects {plan.n_points}"
        )
    result = localize(meas, dictionary)
    payload = {
        "estimate": [float(v) for v in result.position],
        "score": result.score,
        "grid_index": result.index,
        "dictionary_size": dictionary.size,
    }
    _write_output(args.out, _json_dumps(payload))
    return 0


def _parse_vector(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"{flag}: expected 'x,y,z', got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise ConfigError(f"{flag}: non-numeric component in {text!r}") from None


def cmd_probe(args) -> int:
    cfg = load_config(args.config)
    plan = parse_plan(cfg)
    model = parse_dispersion(cfg, plan, Path(args.config).parent)
    antenna = parse_antenna(cfg)
    p0 = _parse_vector(args.p0, "--p0")
    if args.steps < 3:
        raise ConfigError("--steps must be >= 3")
    if args.span <= 0:
        raise ConfigError("--span must be positive")
    angular = args.axis in ("azimuth", "elevation")
    axis = args.axis if args.axis in ("azimuth", "elevation", "range") else _parse_vector(
        args.axis, "--axis"
    )
    # Flags and files use degrees for angular offsets; the probe works in rad.
    span = math.radians(args.span) if angular else args.span
    offsets = np.linspace(-span, span, args.steps)
    try:
        curve = ambiguity_probe(p0, axis, offsets, plan, model, antenna)
    except GeometryError as exc:
        raise ConfigError(f"probe geometry: {exc}") from None
    file_offsets = np.degrees(curve.offsets) if angular else curve.offsets
    table = np.column_stack([file_offsets, curve.similarities])
    _write_output(args.out, write_table(None, "offset,similarity", table))
    summary = {
        "axis": args.axis,
        "p0_m": list(p0),
        "offset_unit": "deg" if angular else "m",
        "span": args.span,
        "steps": args.steps,
        "half_power_width": (
            math.degrees(curve.width) if (angular and curve.width is not None) else curve.width
        ),
    }
    if angular:
        summary["half_power_width_rad"] = curve.width
    sys.stdout.write(_json_dumps(summary))
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    specs = parse_architectures(cfg)
    report = archcomp.compare(specs, r_query=args.r_query)
    if args.out is not None:
        _write_output(args.out, _json_dumps(report.to_dict()))
    sys.stdout.write(report.to_text())
    return 0


def cmd_sweep(args) -> int:
    workers = _workers(args)
    cfg = load_config(args.config)
    plan = parse_plan(cfg)
    model = parse_dispersion(cfg, plan, Path(args.config).parent)
    antenna = parse_antenna(cfg)
    scene = parse_scene(cfg, seed_override=args.seed)
    grid = parse_grid(cfg)
    snrs: list[float | None] = []
    for token in args.snr.split(","):
        token = token.strip()
        if token == "noiseless":
            snrs.append(None)
        else:
            try:
                value = float(token)
            except ValueError:
                raise ConfigError(f"--snr: bad value {token!r}") from None
            if not math.isfinite(value):
                raise ConfigError(
                    f"--snr: {token!r} is not a finite number of dB; use 'noiseless' for no noise"
                )
            snrs.append(value)
    if not snrs:
        raise ConfigError("--snr: need at least one value")
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    try:
        points = run_sweep(
            plan, model, antenna, scene, grid, snrs, args.trials, workers=workers
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write_output(args.out, sweep_to_csv(points, args.trials))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepsense",
        description="Frequency-scanned virtual-aperture near-field sensing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_default=None) -> None:
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=out_default, help="output path ('-' = stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the scene seed")

    p = sub.add_parser("simulate", help="synthesize a dual-channel measurement CSV")
    common(p, out_default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dict", help="build and export a fingerprint dictionary CSV")
    common(p, out_default="-")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_dict)

    p = sub.add_parser("localize", help="match a measurement CSV against a dictionary")
    common(p, out_default="-")
    p.add_argument("--measurement", required=True, help="measurement CSV path")
    p.add_argument("--dict", default=None, help="reuse an exported dictionary CSV")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("probe", help="trace an ambiguity curve around a position")
    common(p, out_default="-")
    p.add_argument("--p0", default="0,0,3", help="reference position x,y,z in meters")
    p.add_argument(
        "--axis",
        default="azimuth",
        help="azimuth | elevation | range | ux,uy,uz direction vector",
    )
    p.add_argument("--span", type=float, required=True,
                   help="max |offset| (deg for angular axes, m otherwise)")
    p.add_argument("--steps", type=int, default=201)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("compare", help="architecture comparison report")
    common(p)
    p.add_argument("--r-query", type=float, default=3.0, help="cell-volume range (m)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="Monte-Carlo localization RMSE vs SNR")
    common(p, out_default="-")
    p.add_argument("--snr", required=True,
                   help="comma list of SNR dB values; 'noiseless' allowed")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "--axis -0.3,0.2,1.0" as two options; attach the value.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--p0", "--axis"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        GeometryError,
        BandError,
        AliasingError,
        DegenerateMeasurementError,
        ValueError,
        ArithmeticError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
