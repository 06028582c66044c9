"""The determinism contract across BLAS thread counts: every output byte is the same."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The small bench config: 9^3 grid, M = 32, 1.2 cm antenna, one off-grid target at 10 dB.
CONFIG = {
    "plan": {"f_min_hz": 60e9, "f_max_hz": 66e9, "n_points": 32},
    "dispersion": {"kind": "linear_sine", "theta_max_deg": 60.0},
    "antenna": {"length_m": 0.012, "two_way": True},
    "scene": {"targets": [{"x_m": 0.13, "y_m": -0.21, "z_m": 2.9, "alpha_re": 0.8,
                           "alpha_im": -0.4}], "snr_db": 10.0, "seed": 11},
    "grid": {"x_min_m": -0.5, "x_max_m": 0.5, "y_min_m": -0.5, "y_max_m": 0.5,
             "z_min_m": 2.0, "z_max_m": 4.0, "nx": 9, "ny": 9, "nz": 9},
}
VERBS = [  # in order: localize reads what simulate and dict wrote
    ("simulate", "meas.csv", []),
    ("dict", "dict.csv", []),
    ("localize", "loc.json", ["--measurement", "meas.csv"]),
    ("localize", "loc_dict.json", ["--measurement", "meas.csv", "--dict", "dict.csv"]),
    ("sweep", "sweep.csv", ["--snr", "noiseless,-10,0,10,20", "--trials", "120", "--seed", "5"]),
]


def digests(work: Path, threads: int) -> dict[str, str]:
    """sha256 of each verb's --out file and stdout, run as children with ``threads`` BLAS
    and OpenMP threads."""
    work.mkdir()
    (work / "config.json").write_text(json.dumps(CONFIG))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    found = {}
    for verb, out, args in VERBS:
        run = subprocess.run(
            [sys.executable, "-m", "sweepsense.cli", verb, "--config", "config.json", *args,
             "--out", out], cwd=work, env=env, capture_output=True, check=True)
        found[out] = hashlib.sha256((work / out).read_bytes()).hexdigest()
        found[f"{out} stdout"] = hashlib.sha256(run.stdout).hexdigest()
    return found


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Never more than 2 threads: the reference machine has 2 cores.
    assert digests(tmp_path / "one", 1) == digests(tmp_path / "two", 2)
