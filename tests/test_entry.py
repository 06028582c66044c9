"""The process entry ``cli.entry``, which ``python -m sweepsense.cli`` and the
``sweepsense`` script run: a verb run as a child through it writes the same ``--out``
bytes, stdout and stderr, and exits with the same code, as ``cli.main`` in process, in
the test's locale and in a C locale without UTF-8 mode alike. The entry freezes the
import-time heap (``gc.freeze``); ``cli.main`` freezes nothing. A verb whose stdout is
full or closed, at start too, exits 3 with one ``error:`` line and leaves its ``--out``
file as it was; one that writes nothing to an fd closed at start runs as ``cli.main``."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sweepsense import cli

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# a locale whose streams would be ASCII if the entry did not set them
C_ENV = {**{k: v for k, v in ENV.items() if k != "PYTHONIOENCODING"},
         "LC_ALL": "C", "PYTHONUTF8": "0"}

# M = 8, a 3^3 grid around the one target, which is off the grid; one architecture, whose
# name is not ASCII
CONFIG = {
    "plan": {"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 8},
    "dispersion": {"kind": "linear_sine", "theta_max_deg": 60.0},
    "antenna": {"length_m": 0.012, "two_way": True},
    "scene": {"targets": [{"x_m": 0.1, "y_m": -0.05, "z_m": 2.9}], "snr_db": 10.0,
              "seed": 7},
    "grid": {"x_min_m": -0.25, "x_max_m": 0.25, "nx": 3, "y_min_m": -0.25, "y_max_m": 0.25,
             "ny": 3, "z_min_m": 2.75, "z_max_m": 3.25, "nz": 3},
    "architectures": [{"name": "FaA\u2013Single", "rf_chains": 1, "physical_size_m": 0.12,
                       "bandwidth_hz": 6e9, "n_samples": 128, "aperture_kind": "virtual",
                       "f_ref_hz": 63e9, "power_mw": 850.0, "cost_usd": 55.0,
                       "fov_deg": 60.0, "eta_reference": 926.0}],
}

# name, exit code, then the verb and its flags other than --out; the paths are relative
# to a directory that holds config.json, kind.json, meas.csv, dict.csv and zero.csv
RUNS = [
    ("simulate", 0, "simulate --config config.json --seed 3"),
    ("dict", 0, "dict --config config.json"),
    ("localize", 0, "localize --config config.json --measurement meas.csv --dict dict.csv"),
    ("probe", 0, "probe --config config.json --span 1.0 --steps 11 --axis range"),
    ("compare", 0, "compare --config config.json"),
    ("sweep", 0, "sweep --config config.json --snr noiseless,0,10 --trials 5"),
    ("bad-flag", 2, "sweep --config config.json --snr 10 --trials 0"),
    ("non-ascii-error", 2, "simulate --config kind.json"),
    ("zero-norm", 3, "localize --config config.json --measurement zero.csv"),
]
LOCALES = {"test-locale": ENV, "c-locale": C_ENV}


def inputs(work: Path) -> Path:
    """``work`` holding the config, one whose dispersion kind is unknown and not ASCII, a
    measurement, a dictionary and a measurement whose channels are all zero."""
    work.mkdir()
    (work / "config.json").write_text(json.dumps(CONFIG))
    kind = {**CONFIG, "dispersion": {**CONFIG["dispersion"], "kind": "l\u00ednea"}}
    (work / "kind.json").write_text(json.dumps(kind))
    for verb, out in (("simulate", "meas.csv"), ("dict", "dict.csv")):
        assert cli.main([verb, "--config", str(work / "config.json"), "--out",
                         str(work / out)]) == 0
    header, *rows = (work / "meas.csv").read_text().splitlines()
    zero = [",".join(row.split(",")[:3] + ["0.000000000e+00"] * 4) for row in rows]
    (work / "zero.csv").write_text("\n".join([header, *zero]) + "\n")
    return work


@pytest.mark.parametrize("env", LOCALES.values(), ids=LOCALES)
@pytest.mark.parametrize("name, code, command", RUNS, ids=[name for name, _, _ in RUNS])
def test_a_child_through_the_entry_matches_main_in_process(
    tmp_path, monkeypatch, capsysbinary, name, code, command, env
):
    argv = [*command.split(), "--out", "out"]
    child_dir, main_dir = inputs(tmp_path / "child"), inputs(tmp_path / "main")
    capsysbinary.readouterr()
    child = subprocess.run([sys.executable, "-m", "sweepsense.cli", *argv], cwd=child_dir,
                           env=env, capture_output=True)
    monkeypatch.chdir(main_dir)
    rc = cli.main(argv)
    stdout, stderr = capsysbinary.readouterr()
    assert (child.returncode, child.stdout, child.stderr) == (rc, stdout, stderr)
    assert rc == code, stderr
    outs = [(d / "out").read_bytes() if (d / "out").exists() else None
            for d in (child_dir, main_dir)]
    assert outs[0] == outs[1]
    assert (outs[0] is None) == bool(code)


# name, a verb that writes its output or its side text to stdout, and the bytes of f.csv
# before the run, or None
PROBE = "probe --config config.json --span 1.0 --steps 11 --axis range --out f.csv"
FULL_RUNS = [
    ("simulate", "simulate --config config.json", None),
    ("localize", "localize --config config.json --measurement meas.csv", None),
    ("compare", "compare --config config.json", None),
    ("probe-new-file", PROBE, None),
    ("probe-over-a-file", PROBE, b"earlier output\n"),
]


def closed_pipe() -> int:
    """The write end of a pipe whose read end is closed: a write to it fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    return write


# how the child's stdout is failed: the fd it gets, or None for an fd 1 closed at start
STDOUTS = {
    "full": lambda: os.open("/dev/full", os.O_WRONLY),
    "closed-pipe": closed_pipe,
    "closed-at-start": lambda: None,
}


@pytest.mark.parametrize("stdout", STDOUTS)
@pytest.mark.parametrize("name, command, earlier", FULL_RUNS, ids=[run[0] for run in FULL_RUNS])
def test_a_full_or_closed_stdout_exits_3_leaving_no_file(tmp_path, name, command, earlier,
                                                         stdout):
    # without PYTHONUNBUFFERED the text waits in stdout's buffer until the last flush
    work = inputs(tmp_path / "work")
    if earlier is not None:
        (work / "f.csv").write_bytes(earlier)
    before = {p.name: p.read_bytes() for p in work.iterdir()}
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    fd = STDOUTS[stdout]()
    try:
        child = subprocess.run([sys.executable, "-m", "sweepsense.cli", *command.split()],
                               cwd=work, env=env, stdout=fd, stderr=subprocess.PIPE, text=True,
                               preexec_fn=(lambda: os.close(1)) if fd is None else None)
    finally:
        if fd is not None:
            os.close(fd)
    assert child.returncode == 3, child.stderr
    [line] = child.stderr.splitlines()
    assert line.startswith("error: ")
    assert {p.name: p.read_bytes() for p in work.iterdir()} == before


# name, the fd closed at the child's start, the verb, and main's exit code
CLOSED_RUNS = [
    ("dict-out-without-stdout", 1, "dict --config config.json --out f.csv", 0),
    ("compare-without-stderr", 2, "compare --config config.json", 0),
    ("missing-config-without-stderr", 2, "compare --config missing.json", 2),
]


@pytest.mark.parametrize("name, fd, command, code", CLOSED_RUNS,
                         ids=[run[0] for run in CLOSED_RUNS])
def test_a_closed_fd_the_verb_does_not_need_leaves_mains_run(
    tmp_path, monkeypatch, capsysbinary, name, fd, command, code
):
    # a verb that writes nothing to its closed stream runs as main does, files and all
    child_dir, main_dir = inputs(tmp_path / "child"), inputs(tmp_path / "main")
    capsysbinary.readouterr()
    child = subprocess.run([sys.executable, "-m", "sweepsense.cli", *command.split()],
                           cwd=child_dir, env=ENV, capture_output=True,
                           preexec_fn=lambda: os.close(fd))
    monkeypatch.chdir(main_dir)
    rc = cli.main(command.split())
    stdout, stderr = capsysbinary.readouterr()
    assert child.returncode == rc == code, child.stderr
    assert (child.stdout, child.stderr) == ((b"", stderr) if fd == 1 else (stdout, b""))
    assert {p.name: p.read_bytes() for p in child_dir.iterdir()} == {
        p.name: p.read_bytes() for p in main_dir.iterdir()}


FROZEN = """
import atexit, gc, sys
from sweepsense import cli

atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}\\n"))
sys.argv = ["sweepsense", "compare", "--config", sys.argv[1]]
cli.entry()
"""


def test_the_entry_freezes_the_import_time_heap(tmp_path):
    # numpy's import alone leaves about 20k objects the collector tracks
    work = inputs(tmp_path / "work")
    run = subprocess.run([sys.executable, "-c", FROZEN, str(work / "config.json")],
                         env=ENV, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    label, count = run.stderr.splitlines()[-1].split()
    assert label == "frozen" and int(count) > 10_000


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    work = inputs(tmp_path / "work")
    before = gc.get_freeze_count()
    for verb in ("compare", "sweep --snr 10 --trials 2"):
        assert cli.main([*verb.split(), "--config", str(work / "config.json")]) == 0
    assert gc.get_freeze_count() == before
