"""Smoke run of the benchmark harness: every workload at tiny size.

``bench/run.py --self-test`` runs each CLI verb, checks its outputs against
the benchmark's independent numpy echo model, and shows that a corrupted
dictionary entry fails its check. It takes about half a minute. The test runs
a copy of the benchmark and the source in a temporary directory, because the
harness rewrites ``bench/.work/`` under its own checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test_passes(tmp_path):
    skip = shutil.ignore_patterns(".work", "__pycache__", "*.egg-info")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
