"""Output checks: every CLI output is compared against the reference model
or against a property the method must have, never against a stored copy of
an earlier output.

Tolerances follow from how the outputs are printed and computed:

- CSV floats carry 10 significant digits, so each printed component is off
  by at most 5e-10 of its magnitude and a complex sample by at most 7.1e-10
  (``CSV_REL`` rounds this up to 1e-9).
- The reference model orders its floating-point operations differently. The
  largest term is the two-way phase 4 pi f R / c, about 1.2e4 rad here, whose
  rounding moves a sample by about 1e-11 of its magnitude, far below
  ``CSV_REL``. ``ABS_FLOOR`` only covers gains that underflow differently.
- A matched-filter score combines two CSV-rounded unit vectors, so it can
  move by about 2 * 7.1e-10 per channel; ``SCORE_TOL`` is 5e-9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

CSV_REL = 1e-9
ABS_FLOOR = 1e-15
SCORE_TOL = 5e-9
SIM_TOL = 2e-9
FALSE_ALARM = 1e-9  # chance that the noise-power band rejects a correct draw


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Files:
    """Read-only view of one round's outputs, parsing each file once."""

    def __init__(self, work: Path):
        self.work = work
        self._cache: dict = {}

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def bytes(self, name: str) -> bytes:
        return (self.work / name).read_bytes()

    def json(self, name: str):
        return self._memo(("json", name), lambda: json.loads(self.bytes(name)))

    def header(self, name: str) -> str:
        with open(self.work / name) as fh:
            return fh.readline().rstrip("\n")

    def table(self, name: str) -> np.ndarray:
        """Numeric body of a CSV file with one header line."""
        return self._memo(
            ("table", name),
            lambda: np.loadtxt(self.work / name, delimiter=",", skiprows=1, ndmin=2),
        )


@dataclass(frozen=True)
class Check:
    name: str
    fn: Callable
    args: tuple

    def run(self, files: Files) -> tuple[bool, str]:
        try:
            return True, self.fn(files, *self.args) or ""
        except Exception as exc:  # an unreadable or malformed output fails its check
            return False, f"{type(exc).__name__}: {exc}"


class References:
    """Reference dictionaries, computed once per config and reused by rounds."""

    def __init__(self):
        self._dicts: dict = {}

    def dictionary(self, cfg: dict):
        key = json.dumps([cfg["plan"], cfg["dispersion"], cfg["antenna"], cfg["grid"]],
                         sort_keys=True)
        if key not in self._dicts:
            plan = ref.Plan(cfg)
            pos, idx = ref.grid_points(cfg["grid"])
            self._dicts[key] = (plan, pos, idx, ref.unit_rows(plan.echo(pos)))
        return self._dicts[key]


def _close(actual, expected, rel=CSV_REL) -> np.ndarray:
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected)) if expected.size else 0.0
    return np.abs(actual - expected) <= rel * np.abs(expected) + ABS_FLOOR * scale


def _worst(actual, expected) -> str:
    err = np.abs(np.asarray(actual) - np.asarray(expected))
    return f"max |error| {err.max():.3g}"


# -- dictionary CSV -----------------------------------------------------------


def _dict_entries(files: Files, out: str, m: int) -> np.ndarray:
    body = files.table(out)
    require(body.shape[1] == 6 + 4 * m, f"{body.shape[1]} columns, expected {6 + 4 * m}")
    pairs = body[:, 6:]
    return (pairs[:, 0::2] + 1j * pairs[:, 1::2]).reshape(len(body), 2, m)


def dict_rows(files: Files, out: str, cfg: dict) -> str:
    m = cfg["plan"]["n_points"]
    header = ["ix", "iy", "iz", "x", "y", "z"]
    header += [f"{part}_{q}" for q in range(2 * m) for part in ("re", "im")]
    require(files.header(out) == ",".join(header), "header differs from the documented one")
    body = files.table(out)
    pos, idx = ref.grid_points(cfg["grid"])
    require(len(body) == len(pos), f"{len(body)} rows, grid has {len(pos)}")
    require(np.array_equal(body[:, :3], idx), "ix,iy,iz are not in grid order")
    require(bool(np.all(_close(body[:, 3:6], pos))), "x,y,z differ from the grid positions")
    return f"{len(body)} rows in ix,iy,iz order"


def dict_unit_norm(files: Files, out: str, cfg: dict) -> str:
    norms = np.linalg.norm(_dict_entries(files, out, cfg["plan"]["n_points"]), axis=2)
    worst = float(np.max(np.abs(norms - 1.0)))
    require(worst <= 2 * CSV_REL, f"a half has |norm - 1| = {worst:.3g}")
    return f"max |norm - 1| {worst:.3g}"


def dict_reference(files: Files, out: str, cfg: dict, refs: References) -> str:
    _, _, _, rows = refs.dictionary(cfg)
    entries = _dict_entries(files, out, cfg["plan"]["n_points"])
    bad = np.argwhere(~_close(entries, rows))
    if len(bad):
        raise CheckFailed(f"{len(bad)} entries differ from the reference, first in row "
                          f"{bad[0][0]}; {_worst(entries, rows)}")
    return _worst(entries, rows)


# -- measurement CSV ----------------------------------------------------------


def _measurement(files: Files, out: str, plan: ref.Plan) -> np.ndarray:
    require(files.header(out) == "m,f_hz,theta_deg,sx_re,sx_im,sy_re,sy_im",
            "measurement header differs from the documented one")
    body = files.table(out)
    require(body.shape == (plan.m, 7), f"measurement table has shape {body.shape}")
    require(np.array_equal(body[:, 0], np.arange(plan.m)), "m column is not 0..M-1")
    require(bool(np.all(_close(body[:, 1], plan.freqs))), "f_hz differs from the plan")
    require(bool(np.all(_close(body[:, 2], np.degrees(plan.beam)))),
            "theta_deg differs from the dispersion model")
    return np.stack([body[:, 3] + 1j * body[:, 4], body[:, 5] + 1j * body[:, 6]])


def meas_reference(files: Files, out: str, cfg: dict) -> str:
    plan = ref.Plan(cfg)
    clean = plan.scene(cfg["scene"]["targets"])
    meas = _measurement(files, out, plan)
    require(bool(np.all(_close(meas, clean))),
            f"noiseless measurement differs from the reference; {_worst(meas, clean)}")
    return _worst(meas, clean)


def _gamma_band(n: int) -> tuple[float, float]:
    """Band [lo, hi] for the mean of n unit exponentials, from the Chernoff
    bound P <= exp(-n (a - 1 - ln a)) set to FALSE_ALARM on each side."""
    target = -math.log(FALSE_ALARM) / n

    def excess(a: float) -> float:
        return a - 1.0 - math.log(a) - target

    def root(lo: float, hi: float) -> float:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (excess(mid) > 0.0) == (excess(lo) > 0.0):
                lo = mid
            else:
                hi = mid
        return lo

    # excess(2 + 2 target) >= 1 - ln 2 > 0, so the upper root lies below it.
    return root(1e-12, 1.0), root(1.0, 2.0 + 2.0 * target)


def meas_noise_power(files: Files, out: str, cfg: dict) -> str:
    plan = ref.Plan(cfg)
    clean = plan.scene(cfg["scene"]["targets"])
    meas = _measurement(files, out, plan)
    var = float(np.mean(np.abs(clean) ** 2)) * 10.0 ** (-cfg["scene"]["snr_db"] / 10.0)
    ratio = float(np.mean(np.abs(meas - clean) ** 2)) / var
    lo, hi = _gamma_band(clean.size)
    require(lo <= ratio <= hi, f"noise power / sigma^2 = {ratio:.4f}, outside [{lo:.3f}, {hi:.3f}]")
    return f"noise power / sigma^2 = {ratio:.4f} in [{lo:.3f}, {hi:.3f}]"


def same_bytes(files: Files, a: str, b: str) -> str:
    require(files.bytes(a) == files.bytes(b), f"{a} and {b} differ")
    return f"{len(files.bytes(a))} identical bytes"


# -- localize JSON ------------------------------------------------------------


def loc_brute_force(files: Files, out: str, meas_out: str, cfg: dict, refs: References) -> str:
    plan, pos, _, rows = refs.dictionary(cfg)
    loc = files.json(out)
    scores = ref.scores(rows, _measurement(files, meas_out, plan))
    best = float(scores.max())
    gi = loc["grid_index"]
    require(loc["dictionary_size"] == len(pos), f"dictionary_size {loc['dictionary_size']}")
    require(0 <= gi < len(pos), f"grid_index {gi} out of range")
    require(abs(loc["score"] - best) <= SCORE_TOL,
            f"score {loc['score']!r} but the brute-force best is {best!r}")
    require(scores[gi] >= best - SCORE_TOL,
            f"entry {gi} scores {scores[gi]!r}, the best is {best!r}")
    require(bool(np.all(_close(loc["estimate"], pos[gi]))),
            f"estimate {loc['estimate']} is not the position of entry {gi}")
    return f"score {loc['score']:.12f} = brute-force best {best:.12f} at entry {gi}"


def loc_on_grid(files: Files, out: str, cfg: dict, truth: int) -> str:
    pos, _ = ref.grid_points(cfg["grid"])
    loc = files.json(out)
    require(loc["grid_index"] == truth, f"grid_index {loc['grid_index']}, target is {truth}")
    require(bool(np.all(_close(loc["estimate"], pos[truth]))), "estimate is not the target")
    require(abs(loc["score"] - 1.0) <= SCORE_TOL, f"score {loc['score']!r}, expected 1")
    return f"recovered grid point {truth}"


# -- sweep CSV ----------------------------------------------------------------


def _sweep_rows(files: Files, out: str) -> list[tuple[str, float, int]]:
    lines = (files.work / out).read_text().splitlines()
    require(lines and lines[0] == "snr_db,rmse_m,trials", "sweep header differs")
    rows = []
    for line in lines[1:]:
        label, rmse, trials = line.split(",")
        rows.append((label, float(rmse), int(trials)))
    return rows


def sweep_table(files: Files, out: str, cfg: dict, snrs: str, trials: int) -> str:
    rows = _sweep_rows(files, out)
    tokens = snrs.split(",")
    require(len(rows) == len(tokens), f"{len(rows)} rows for {len(tokens)} SNR points")
    g = cfg["grid"]
    diagonal = math.dist((g["x_min_m"], g["y_min_m"], g["z_min_m"]),
                         (g["x_max_m"], g["y_max_m"], g["z_max_m"]))
    for token, (label, rmse, n) in zip(tokens, rows):
        require(label == token if token == "noiseless" else float(label) == float(token),
                f"row label {label!r} for SNR {token!r}")
        require(n == trials, f"trials column {n}, requested {trials}")
        require(math.isfinite(rmse) and 0.0 <= rmse <= diagonal,
                f"RMSE {rmse!r} at {label} outside [0, grid diagonal {diagonal:.3f}]")
    noisy = sorted((float(label), rmse) for label, rmse, _ in rows if label != "noiseless")
    require(noisy[-1][1] <= noisy[0][1],
            f"RMSE at {noisy[-1][0]} dB ({noisy[-1][1]}) above {noisy[0][0]} dB ({noisy[0][1]})")
    return "; ".join(f"{label}: {rmse:.4g} m" for label, rmse, _ in rows)


def sweep_noiseless(files: Files, out: str, cfg: dict, refs: References) -> str:
    """Noiseless RMSE is the distance from the truth to the grid entry that the
    reference brute-force match picks. For an off-grid truth that entry is
    often not the geometrically nearest grid point, so the check does not
    assume it is."""
    plan, pos, _, rows = refs.dictionary(cfg)
    rmse = {label: value for label, value, _ in _sweep_rows(files, out)}["noiseless"]
    truth = cfg["scene"]["targets"][0]
    truth = np.array([truth["x_m"], truth["y_m"], truth["z_m"]])
    scores = ref.scores(rows, plan.scene(cfg["scene"]["targets"][:1]))
    tied = np.flatnonzero(scores >= scores.max() - SCORE_TOL)
    dists = np.linalg.norm(pos[tied] - truth, axis=1)
    require(bool(np.any(_close(np.full(len(dists), rmse), dists))),
            f"noiseless RMSE {rmse!r}, reference best match is {dists.min()!r} away")
    nearest = float(np.min(np.linalg.norm(pos - truth, axis=1)))
    return f"noiseless RMSE {rmse:.6g} m (nearest grid point {nearest:.6g} m)"


# -- probe CSV and summary ----------------------------------------------------


def _probe_offsets(spec) -> tuple[np.ndarray, np.ndarray, bool]:
    """Exact offsets the probe steps through, and the same in file units."""
    _, axis, span, steps = spec
    angular = axis in ("azimuth", "elevation")
    exact = np.linspace(-math.radians(span), math.radians(span), steps) if angular \
        else np.linspace(-span, span, steps)
    return exact, (np.degrees(exact) if angular else exact), angular


def probe_shape(files: Files, out: str, spec) -> str:
    require(files.header(out) == "offset,similarity", "probe header differs")
    body = files.table(out)
    _, in_file, _ = _probe_offsets(spec)
    require(body.shape == (spec[3], 2), f"probe table has shape {body.shape}")
    require(bool(np.all(_close(body[:, 0], in_file))), "offsets differ from linspace(-span, span)")
    values = body[:, 1]
    require(bool(np.all((values >= 0.0) & (values <= 1.0))), "a similarity lies outside [0, 1]")
    # linspace puts the middle offset within a few ulp of the span of 0.
    zero = int(np.argmin(np.abs(in_file)))
    require(abs(in_file[zero]) <= 1e-12 * spec[2] and abs(values[zero] - 1.0) <= CSV_REL,
            f"similarity at offset {in_file[zero]!r} is {values[zero]!r}, expected 1")
    return f"{len(values)} offsets, min similarity {values.min():.4f}"


def probe_reference(files: Files, out: str, cfg: dict, spec) -> str:
    p0, axis, _, steps = spec
    exact, _, _ = _probe_offsets(spec)
    body = files.table(out)
    centre = steps // 2
    sample = np.unique(np.concatenate([
        np.linspace(0, steps - 1, 257).round().astype(int),
        np.arange(max(centre - 16, 0), min(centre + 17, steps)),
    ]))
    plan = ref.Plan(cfg)
    fp0 = ref.unit_rows(plan.echo([p0]))[0]
    fps = ref.unit_rows(plan.echo([ref.displace(p0, axis, float(exact[i])) for i in sample]))
    expected = np.abs(np.einsum("nci,ci->nc", np.conj(fps), fp0)).mean(axis=1)
    err = np.abs(body[sample, 1] - expected)
    require(float(err.max()) <= SIM_TOL,
            f"similarity at offset row {int(sample[np.argmax(err)])} is off by {err.max():.3g}")
    return f"{len(sample)} sampled offsets, max |error| {err.max():.3g}"


def probe_width(files: Files, out: str, summary_out: str, spec) -> str:
    _, axis, span, steps = spec
    summary = files.json(summary_out)
    require(summary["axis"] == axis and summary["steps"] == steps, "summary echoes other flags")
    body = files.table(out)
    width = ref.half_power_width(body[:, 0], body[:, 1])
    reported = summary["half_power_width"]
    if width is None or reported is None:
        require(width is None and reported is None,
                f"half-power width {reported!r}, own interpolation {width!r}")
        return "no half-power crossing within the span"
    # CSV rounding moves a crossing by a tiny fraction of one offset step.
    step = 2.0 * span / (steps - 1)
    require(abs(reported - width) <= 1e-4 * step + CSV_REL * abs(width),
            f"half-power width {reported!r}, own interpolation {width!r}")
    _, _, angular = _probe_offsets(spec)
    if angular:
        require(math.isclose(summary["half_power_width_rad"], math.radians(reported),
                             rel_tol=1e-12), "half_power_width_rad disagrees with degrees")
    return f"half-power width {reported:.6g} = own interpolation {width:.6g}"


# -- compare JSON -------------------------------------------------------------


def compare_closed_forms(files: Files, out: str, cfg: dict, r_query: float) -> str:
    report = files.json(out)
    require(report["r_query_m"] == r_query, f"r_query_m {report['r_query_m']}")
    rows = {row["name"]: row for row in report["rows"]}
    require(len(rows) == len(cfg["architectures"]), "one row per architecture expected")
    for arch in cfg["architectures"]:
        row = rows[arch["name"]]
        dr = ref.C / (2.0 * arch["bandwidth_hz"])
        lam = ref.C / arch["f_ref_hz"]
        n, length = arch["n_samples"], arch["physical_size_m"]
        if arch["aperture_kind"] == "virtual":
            theta, aperture = 2.0 / n, n * lam / 2.0
            cell = (theta * r_query) ** 2 * dr
        else:
            theta, aperture = lam / (length * math.sqrt(3.0)), length
            cell = theta * r_query * 2.0 * r_query * math.tan(math.radians(arch["fov_deg"])) * dr
        expected = {
            "range_resolution_m": dr,
            "angular_resolution_rad": theta,
            "effective_aperture_m": aperture,
            "cell_volume_m3": cell,
            "eta_computed": (1.0 / theta) / (arch["rf_chains"] * length),
        }
        for key, value in expected.items():
            require(math.isclose(row[key], value, rel_tol=1e-12),
                    f"{arch['name']}: {key} {row[key]!r}, closed form {value!r}")
    return f"{len(rows)} rows match c/2B, 2/n, n lambda/2, (theta r)^2 dR"
