"""Measurement loop, metrics and self-test of the benchmark (see run.py)."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans
import workloads
from spawn import KERNEL_REF_S, Spawner, kernel_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DEADLINE_S = 165.0  # a run must end within 180 s
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("dict_s", "s"),
    ("localize_s", "s"),
    ("sweep_trials_per_s", "1/s"),
    ("probe_points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(Exception):
    """The benchmark cannot run here (no program source, wrong package)."""


def at_reference_speed(wall_s: float, calib_s: float) -> float:
    """Wall time scaled by the calibration kernel (see spawn.py)."""
    return wall_s * KERNEL_REF_S / calib_s


@dataclass
class StepResult:
    step: workloads.Step
    wall_s: float
    rss_mb: float
    code: int
    calib_s: float  # calibration kernel time around the step (spawn.py)

    def time_s(self, scaled: bool) -> float:
        return at_reference_speed(self.wall_s, self.calib_s) if scaled else self.wall_s


@dataclass
class Round:
    traced: bool
    steps: list[StepResult]
    checks: list[tuple[str, bool, str]]
    layer: dict = field(default_factory=dict)

    def time_s(self, scaled: bool) -> float:
        return sum(r.time_s(scaled) for r in self.steps)

    def speed_factor(self) -> float:
        """Reference kernel time over this round's median kernel time."""
        return KERNEL_REF_S / statistics.median(r.calib_s for r in self.steps)


def run_step(step: workloads.Step, work: Path, spawner: Spawner | None,
             deadline: float) -> StepResult:
    """Run one verb: as a child process through ``spawner``, or in this
    process through ``sweepsense.cli.main`` when ``spawner`` is None."""
    stdout_path = work / f"{step.name}.stdout"
    if spawner is not None:
        argv = [sys.executable, "-m", "sweepsense.cli", *step.argv()]
        reply = spawner.run(argv, work, stdout_path, deadline)
        return StepResult(step, reply["wall_s"], reply["rss_mb"], reply["code"],
                          reply["calib_s"])
    import sweepsense.cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    # This process runs on the pinned CPU too; no samples during the step,
    # which a thread here would slow by holding the interpreter lock.
    calib = [kernel_s(), kernel_s()]
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = sweepsense.cli.main(step.argv())
    except SystemExit as exc:  # argparse rejects its flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        wall = time.perf_counter() - start
        os.chdir(cwd)
    calib += [kernel_s(), kernel_s()]
    stdout_path.write_text(out.getvalue())
    stdout_path.with_suffix(".stderr").write_text(err.getvalue())
    return StepResult(step, wall, 0.0, code, statistics.median(calib))


def measure_setup(work: Path, spawner: Spawner, deadline: float) -> list[dict]:
    """Fresh interpreter until sweepsense.cli is imported, numpy included.
    A first import compiles the bytecode cache and is not counted."""
    probe = [sys.executable, "-c", "import sweepsense.cli as c; print(c.__file__)"]
    code = spawner.run(probe, work, work / "setup.stdout", deadline)["code"]
    where = Path((work / "setup.stdout").read_text().strip() or ".").resolve()
    if code != 0 or SRC.resolve() not in where.parents:
        raise HarnessError(f"children do not import sweepsense from {SRC} (got {where})")
    argv = [sys.executable, "-c", "import sweepsense.cli"]
    return [spawner.run(argv, work, work / "setup.stdout", deadline)
            for _ in range(SETUP_REPEATS)]


def digest(work: Path, wl: workloads.Workload) -> dict[str, str]:
    names = [s.out for s in wl.steps] + [f"{s.name}.stdout" for s in wl.steps]
    return {n: hashlib.sha256((work / n).read_bytes()).hexdigest()
            for n in names if (work / n).exists()}


def run_round(wl, work, spawner: Spawner | None, tracer, deadline) -> Round:
    if tracer is None:
        results = [run_step(s, work, spawner, deadline) for s in wl.steps]
        layer = {}
    else:
        with tracer:
            results = [run_step(s, work, None, deadline) for s in wl.steps]
        layer = spans.metrics(tracer.totals())
    files = checks.Files(work)
    outcomes = [(c.name, *c.run(files)) for c in wl.checks]
    return Round(tracer is not None, results, outcomes, layer)


def measure(name: str, seed: int, seconds: float, traced: bool, spawner: Spawner,
            size: str = "full") -> dict:
    """Run whole rounds for ``seconds`` and return the result record."""
    begin = time.perf_counter()
    deadline = begin + DEADLINE_S
    wl = workloads.build(name, seed, size)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for fname, cfg in wl.configs.items():
        (work / fname).write_text(json.dumps(cfg, indent=1))

    setup = [] if traced else measure_setup(work, spawner, deadline)
    if traced:
        sys.path.insert(0, str(SRC))
        import sweepsense.cli

        if SRC.resolve() not in Path(sweepsense.cli.__file__).resolve().parents:
            raise HarnessError(f"sweepsense is not imported from {SRC}")

    rounds: list[Round] = []
    first_digest = None
    tracer = None
    start = time.perf_counter()
    while True:
        # Traced runs alternate an untraced and a traced in-process round.
        tracer = spans.Tracer() if traced and len(rounds) % 2 == 1 else None
        r = run_round(wl, work, None if traced else spawner, tracer, deadline)
        now_digest = digest(work, wl)
        if first_digest is None:
            first_digest = now_digest
        else:
            same = now_digest == first_digest
            r.checks.append(("rounds.byte_identical", same,
                             "outputs repeat byte for byte" if same else "outputs changed"))
        rounds.append(r)
        now = time.perf_counter()
        whole = not traced or len(rounds) % 2 == 0
        if whole and (now - start >= seconds or now + (now - begin) / len(rounds) > deadline):
            break
    if tracer is not None:
        tracer.write(work / "spans.jsonl")
    return record(wl, seed, seconds, traced, setup, rounds, time.perf_counter() - begin)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _scale(value: float, unit: str, factor: float) -> float:
    """A time or rate at the reference machine speed; counts stay as they are."""
    return value * factor if unit == "s" else value / factor if unit == "1/s" else value


def end_to_end(setup: list[dict], rounds: list[Round], scaled: bool) -> dict[str, float]:
    """End-to-end metrics from speed-scaled step times (``scaled``) or raw ones."""
    def times(verb: str):
        return [r.time_s(scaled) for rd in rounds for r in rd.steps if r.step.verb == verb]

    def rate(verb: str):
        out = []
        for rd in rounds:
            steps = [r for r in rd.steps if r.step.verb == verb]
            out.append(sum(r.step.work for r in steps) / sum(r.time_s(scaled) for r in steps))
        return out

    return {
        "setup_s": _median(at_reference_speed(s["wall_s"], s["calib_s"]) if scaled
                           else s["wall_s"] for s in setup),
        "wall_s": _median(rd.time_s(scaled) for rd in rounds),
        "dict_s": _median(times("dict")),
        "localize_s": _median(times("localize")),
        "sweep_trials_per_s": _median(rate("sweep")),
        "probe_points_per_s": _median(rate("probe")),
        "peak_rss_mb": max(r.rss_mb for rd in rounds for r in rd.steps),
    }


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def record(wl, seed, seconds, traced, setup, rounds, elapsed) -> dict:
    failed_steps = sum(r.code != 0 for rd in rounds for r in rd.steps)
    failed_checks = sum(not ok for rd in rounds for _, ok, _ in rd.checks)
    attempted = sum(len(rd.steps) + len(rd.checks) for rd in rounds)
    if traced:
        traced_rounds = [rd for rd in rounds if rd.traced]
        units = {name: unit for name, unit, _, _ in spans.METRICS}
        raw = {name: _median(rd.layer[name] for rd in traced_rounds) for name in units}
        metrics = {name: _median(_scale(rd.layer[name], units[name], rd.speed_factor())
                                 for rd in traced_rounds) for name in units}
        plain = _median(rd.time_s(True) for rd in rounds if not rd.traced)
        overhead = _median(rd.time_s(True) for rd in traced_rounds) / plain - 1.0
    else:
        raw = end_to_end(setup, rounds, scaled=False)
        metrics = end_to_end(setup, rounds, scaled=True)
        units = dict(END_TO_END)
        overhead = None
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "machine": machine(), "rounds": len(rounds), "elapsed_s": elapsed,
        "tracing_overhead": overhead, "setup_samples": setup, "unscaled_metrics": raw,
        "steps": [[{"name": r.step.name, "verb": r.step.verb, "wall_s": r.wall_s,
                    "calib_s": r.calib_s, "rss_mb": r.rss_mb, "code": r.code}
                   for r in rd.steps] for rd in rounds],
        "checks": [[{"name": n, "ok": ok, "detail": d} for n, ok, d in rd.checks]
                   for rd in rounds],
        "result": {
            "correct": failed_checks == 0,
            "attempted": attempted,
            "failed": failed_steps + failed_checks,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        },
    }


def failures(rec: dict) -> list[str]:
    lines = [f"FAILED verb {s['name']} ({s['verb']}): exit code {s['code']}"
             for rd in rec["steps"] for s in rd if s["code"] != 0]
    lines += [f"FAILED check {c['name']}: {c['detail']}"
              for rd in rec["checks"] for c in rd if not c["ok"]]
    return lines


def report(rec: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"result-{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    path.write_text(json.dumps(rec, indent=1))
    print(f"machine {json.dumps(rec['machine'])}")
    print(f"{rec['workload']}: {rec['rounds']} rounds in {rec['elapsed_s']:.1f} s, "
          f"record in {path.relative_to(ROOT)}")
    for line in failures(rec):
        print(line)
    if rec["tracing_overhead"] is not None:
        print(f"{rec['workload']} tracing_overhead {rec['tracing_overhead']:+.2%} of in-process wall")
    res = rec["result"]
    raw = rec["unscaled_metrics"] or {}
    for name, m in res["metrics"].items():
        note = f" (unscaled {raw[name]:.6g})" if raw.get(name, m["value"]) != m["value"] else ""
        print(f"{rec['workload']} {name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps(res))


def self_test(spawner: Spawner) -> bool:
    """Smoke-run every workload at tiny size in both modes, check that every
    metric named in BENCHMARK.json is emitted with its unit, and show that a
    deliberately wrong output fails its check."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in workloads.NAMES:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            rec = measure(name, 1, 0, traced, spawner, size="tiny")
            res = rec["result"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            good = got == want and res["correct"] and res["failed"] == 0
            ok &= good
            print(f"smoke {name} trace={int(traced)}: {'ok' if good else 'FAILED'} "
                  f"({res['attempted']} attempted, {res['failed']} failed, "
                  f"{len(got)} metrics)")
            for line in failures(rec):
                print(f"  {line}")
            for k in sorted(set(want) ^ set(got)):
                print(f"  metric {k}: expected {want.get(k)}, emitted {got.get(k)}")
    ok &= _conjugated_entry_is_caught(spawner)
    return ok


def _conjugated_entry_is_caught(spawner: Spawner) -> bool:
    wl = workloads.build("dict-reuse", seed=1, size="tiny")
    work = WORK / "self-test"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    step = next(s for s in wl.steps if s.verb == "dict")
    for fname, cfg in wl.configs.items():
        (work / fname).write_text(json.dumps(cfg))
    run_step(step, work, spawner, time.perf_counter() + DEADLINE_S)
    dict_checks = [c for c in wl.checks if c.name.startswith(f"{step.name}.")]
    before = {c.name: c.run(checks.Files(work))[0] for c in dict_checks}

    # Conjugate the entry with the largest imaginary part in row 7.
    path = work / step.out
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[8].rstrip("\n").split(",")
    im_cols = range(7, len(cells), 2)
    col = max(im_cols, key=lambda i: abs(float(cells[i])))
    cells[col] = cells[col][1:] if cells[col].startswith("-") else "-" + cells[col]
    lines[8] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    after = {c.name: c.run(checks.Files(work)) for c in dict_checks}

    caught = all(before.values()) and not after[f"{step.name}.reference"][0]
    print(f"self-test conjugated dictionary entry: {'caught' if caught else 'MISSED'}")
    for name, (passed, detail) in after.items():
        print(f"  {name}: {'pass' if passed else 'FAIL'} {detail}")
    return caught


def main(args: argparse.Namespace, spawner: Spawner) -> int:
    try:
        if args.self_test:
            return 0 if self_test(spawner) else 1
        if args.workload not in workloads.NAMES:
            raise HarnessError(f"unknown workload {args.workload!r}; one of {workloads.NAMES}")
        report(measure(args.workload, args.seed, args.seconds, bool(args.trace), spawner))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
