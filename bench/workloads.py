"""The three benchmark workloads: configs, seeded inputs and per-round steps.

Every workload runs every verb that one of the end-to-end metrics times, so
each metric has a value on each workload. The verbs a workload is built
around run at its own config; the others run once per round as small
companions on the small config (9^3 grid, M=32, 1.2 cm antenna).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks
import reference as ref

NAMES = ("dict-reuse", "mc-sweep", "probe-fresh")

_BOX = {"x_min_m": -0.5, "x_max_m": 0.5, "y_min_m": -0.5, "y_max_m": 0.5,
        "z_min_m": 2.0, "z_max_m": 4.0}
_ARCHITECTURES = [
    {"name": "FaA-Single", "rf_chains": 1, "physical_size_m": 0.12, "bandwidth_hz": 6e9,
     "n_samples": 128, "aperture_kind": "virtual", "f_ref_hz": 63e9, "power_mw": 850.0,
     "cost_usd": 55.0, "fov_deg": 60.0, "eta_reference": 926.0},
    {"name": "FaA-Dual", "rf_chains": 2, "physical_size_m": 0.12, "bandwidth_hz": 6e9,
     "n_samples": 64, "aperture_kind": "virtual", "f_ref_hz": 63e9, "power_mw": 1400.0,
     "cost_usd": 90.0, "fov_deg": 60.0, "eta_reference": 231.0},
    {"name": "1T3R-MIMO", "rf_chains": 4, "physical_size_m": 0.12, "bandwidth_hz": 6e9,
     "n_samples": 4, "aperture_kind": "physical", "f_ref_hz": 60e9, "power_mw": 1600.0,
     "cost_usd": 100.0, "fov_deg": 60.0, "eta_reference": 58.0},
]

# Sizes per workload. "full" is what the benchmark measures; "tiny" is the
# self-test's smoke size, small enough to run every workload in seconds.
SIZES = {
    "full": {"large_n": 21, "large_m": 128, "small_n": 9, "small_m": 32,
             "sweep_trials": 500, "companion_trials": 40,
             "probe_steps": 20001, "companion_steps": 2001},
    "tiny": {"large_n": 5, "large_m": 32, "small_n": 3, "small_m": 16,
             "sweep_trials": 4, "companion_trials": 2,
             "probe_steps": 101, "companion_steps": 51},
}
SWEEP_SNRS = "noiseless,-10,0,10,20,30"
COMPANION_SNRS = "noiseless,-10,30"
NOISY_SNR_DB = 10.0
# Short companion verbs run this many times per round: one 0.3 s process
# varies by 20 % on a shared host, and the metric is the median.
COMPANION_REPEATS = 4


@dataclass(frozen=True)
class Step:
    """One verb invocation. Outputs are files in the round's work directory:
    ``out`` from --out, and ``<name>.stdout`` for what the verb prints."""

    name: str
    verb: str
    args: tuple[str, ...]
    out: str
    work: int = 0  # trials for sweep, offsets for probe

    def argv(self) -> list[str]:
        return [self.verb, *self.args, "--out", self.out]


@dataclass
class Workload:
    name: str
    configs: dict[str, dict]  # file name -> config document
    steps: list[Step] = field(default_factory=list)
    checks: list[checks.Check] = field(default_factory=list)


def _config(n: int, m: int, length: float, targets=None, snr="noiseless", seed=0) -> dict:
    cfg = {
        "plan": {"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": m},
        "dispersion": {"kind": "linear_sine", "theta_max_deg": 60.0},
        "antenna": {"length_m": length, "two_way": True},
        "grid": dict(_BOX, nx=n, ny=n, nz=n),
        "architectures": _ARCHITECTURES,
    }
    if targets is not None:
        cfg["scene"] = {"targets": targets, "snr_db": snr, "seed": seed}
    return cfg


def _target(pos, rng) -> dict:
    re, im = rng.normal(size=2)
    return {"x_m": float(pos[0]), "y_m": float(pos[1]), "z_m": float(pos[2]),
            "alpha_re": float(re), "alpha_im": float(im)}


def _off_grid(rng) -> np.ndarray:
    return rng.uniform([-0.4, -0.4, 2.2], [0.4, 0.4, 3.8])


class _Assembler:
    """Collects configs, steps and checks of one workload."""

    def __init__(self, name: str, size: str, seed: int):
        self.w = Workload(name, {})
        self.size = SIZES[size]
        self.rng = np.random.default_rng([seed, NAMES.index(name)])
        self.refs = checks.References()

    def config(self, fname: str, cfg: dict) -> str:
        self.w.configs[fname] = cfg
        return fname

    def step(self, name, verb, *args, out_ext="csv", work=0) -> Step:
        s = Step(name, verb, tuple(args), f"{name}.{out_ext}", work)
        self.w.steps.append(s)
        return s

    def check(self, name, fn, *args) -> None:
        self.w.checks.append(checks.Check(name, fn, args))

    def again(self, s: Step, k: int) -> None:
        """Run ``s`` a ``k``-th time; the copy must write the same bytes."""
        ext = s.out.rsplit(".", 1)[1]
        copy = self.step(f"{s.name}.{k}", s.verb, *s.args, out_ext=ext, work=s.work)
        self.check(f"{copy.name}.repeat_bytes", checks.same_bytes, s.out, copy.out)

    def repeat(self, s: Step, times: int) -> None:
        for k in range(2, times + 1):
            self.again(s, k)

    def seed(self) -> int:
        return int(self.rng.integers(2**63))

    def small(self, targets=None, snr="noiseless", seed=0) -> dict:
        return _config(self.size["small_n"], self.size["small_m"], 0.012, targets, snr, seed)

    def large(self, targets=None, snr="noiseless", seed=0) -> dict:
        return _config(self.size["large_n"], self.size["large_m"], 0.12, targets, snr, seed)

    # -- verbs with their checks ------------------------------------------

    def dictionary(self, name: str, cfg_file: str) -> Step:
        s = self.step(name, "dict", "--config", cfg_file)
        cfg = self.w.configs[cfg_file]
        self.check(f"{name}.rows", checks.dict_rows, s.out, cfg)
        self.check(f"{name}.unit_norm", checks.dict_unit_norm, s.out, cfg)
        self.check(f"{name}.reference", checks.dict_reference, s.out, cfg, self.refs)
        return s

    def simulate(self, name: str, cfg_file: str) -> Step:
        s = self.step(name, "simulate", "--config", cfg_file)
        cfg = self.w.configs[cfg_file]
        if cfg["scene"]["snr_db"] == "noiseless":
            self.check(f"{name}.reference", checks.meas_reference, s.out, cfg)
        else:
            self.check(f"{name}.noise_power", checks.meas_noise_power, s.out, cfg)
        return s

    def localize(self, name: str, cfg_file: str, meas: Step, dict_step: Step | None,
                 truth_index: int | None = None) -> Step:
        args = ["--config", cfg_file, "--measurement", meas.out]
        if dict_step is not None:
            args += ["--dict", dict_step.out]
        s = self.step(name, "localize", *args, out_ext="json")
        cfg = self.w.configs[cfg_file]
        self.check(f"{name}.brute_force", checks.loc_brute_force, s.out, meas.out, cfg,
                   self.refs)
        if truth_index is not None:
            self.check(f"{name}.on_grid", checks.loc_on_grid, s.out, cfg, truth_index)
        return s

    def sweep(self, name: str, cfg_file: str, snrs: str, trials: int) -> Step:
        n_snr = len(snrs.split(","))
        s = self.step(name, "sweep", "--config", cfg_file, "--snr", snrs,
                      "--trials", str(trials), work=n_snr * trials)
        cfg = self.w.configs[cfg_file]
        self.check(f"{name}.table", checks.sweep_table, s.out, cfg, snrs, trials)
        self.check(f"{name}.noiseless", checks.sweep_noiseless, s.out, cfg, self.refs)
        return s

    def probe(self, name: str, cfg_file: str, p0, axis: str, span: float, steps: int) -> Step:
        p0_text = ",".join(repr(float(v)) for v in p0)
        # "--flag=value" keeps argparse from reading a leading minus as a flag.
        s = self.step(name, "probe", "--config", cfg_file, f"--p0={p0_text}", f"--axis={axis}",
                      f"--span={span!r}", f"--steps={steps}", work=steps)
        cfg = self.w.configs[cfg_file]
        spec = (tuple(float(v) for v in p0), axis, span, steps)
        self.check(f"{name}.shape", checks.probe_shape, s.out, spec)
        self.check(f"{name}.reference", checks.probe_reference, s.out, cfg, spec)
        self.check(f"{name}.width", checks.probe_width, s.out, f"{s.name}.stdout", spec)
        return s

    def compare(self, name: str, cfg_file: str) -> Step:
        s = self.step(name, "compare", "--config", cfg_file, out_ext="json")
        self.check(f"{name}.closed_forms", checks.compare_closed_forms, s.out,
                   self.w.configs[cfg_file], 3.0)
        return s

    # -- small-config companions ------------------------------------------

    def on_grid(self, cfg: dict) -> tuple[int, np.ndarray]:
        pos, _ = ref.grid_points(cfg["grid"])
        index = int(self.rng.integers(len(pos)))
        return index, pos[index]

    def companion_sweep(self) -> Step:
        _, truth = self.on_grid(self.small())
        cfg = self.config("c_sweep.json", self.small([_target(truth, self.rng)], seed=self.seed()))
        return self.sweep("c_sweep", cfg, COMPANION_SNRS, self.size["companion_trials"])

    def companion_probe(self) -> Step:
        cfg = self.config("c_probe.json", self.small())
        return self.probe("c_probe", cfg, _off_grid(self.rng), "range", 1.0,
                          self.size["companion_steps"])

    def companion_dict(self) -> Step:
        return self.dictionary("c_dict", self.config("c_dict.json", self.small()))


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's configs, steps and checks for this seed.

    Where a round has several main verbs, the companions' repeats are spread
    between them, so that their samples see more of the host's slow and fast
    stretches than four back-to-back runs would.
    """
    b = _Assembler(name, size, seed)
    if name == "dict-reuse":
        companions = [b.companion_sweep(), b.companion_probe()]
        d = b.dictionary("dict", b.config("large.json", b.large()))
        on_grid, truth = b.on_grid(b.large())
        scenes = [
            ("ongrid", [_target(truth, b.rng)], "noiseless", on_grid),
            ("noisy", [_target(_off_grid(b.rng), b.rng)], NOISY_SNR_DB, None),
            ("two", [_target(_off_grid(b.rng), b.rng) for _ in range(2)], "noiseless", None),
        ]
        for k, (label, targets, snr, index) in enumerate(scenes, start=2):
            for c in companions:
                b.again(c, k)
            cfg = b.config(f"{label}.json", b.large(targets, snr, b.seed()))
            meas = b.simulate(f"sim_{label}", cfg)
            if label == "noisy":
                b.repeat(meas, 2)
            b.localize(f"loc_{label}", cfg, meas, d, index)
    elif name == "mc-sweep":
        _, truth = b.on_grid(b.small())
        cfg = b.config("small.json", b.small([_target(truth, b.rng)], seed=b.seed()))
        b.sweep("sweep", cfg, SWEEP_SNRS, b.size["sweep_trials"])
        d = b.companion_dict()
        b.repeat(d, COMPANION_REPEATS)
        noisy = b.config("c_noisy.json",
                         b.small([_target(truth, b.rng)], 0.0, b.seed()))
        meas = b.simulate("c_sim", noisy)
        b.repeat(meas, 2)
        b.repeat(b.localize("c_loc", noisy, meas, d), COMPANION_REPEATS)
        b.repeat(b.companion_probe(), COMPANION_REPEATS)
    elif name == "probe-fresh":
        companions = [b.companion_dict(), b.companion_sweep()]
        plan = b.config("large.json", b.large())
        p0 = _off_grid(b.rng)
        direction = b.rng.normal(size=3)
        vector = ",".join(repr(float(v)) for v in direction)
        steps = b.size["probe_steps"]
        axes = (("range", 1.0), ("azimuth", 5.0), ("elevation", 5.0), (vector, 0.5))
        for k, (axis, span) in enumerate(axes, start=1):
            label = axis if "," not in axis else "vector"
            b.probe(f"probe_{label}", plan, p0, axis, span, steps)
            if k < COMPANION_REPEATS:
                for c in companions:
                    b.again(c, k + 1)
        on_grid, truth = b.on_grid(b.large())
        cfg = b.config("ongrid.json", b.large([_target(truth, b.rng)], seed=b.seed()))
        meas = b.simulate("sim_ongrid", cfg)
        b.repeat(meas, 2)
        b.repeat(b.localize("loc_fresh", cfg, meas, None, on_grid), 2)
        b.compare("compare", plan)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return b.w
