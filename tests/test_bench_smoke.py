"""Smoke run of the benchmark harness: every workload at tiny size.

``bench/run.py --self-test`` runs each CLI verb, checks its outputs against
the benchmark's independent numpy echo model, and shows that a corrupted
dictionary entry fails its check. It takes about half a minute. It shares
``bench/.work/<workload>/`` with benchmark runs, so do not run it while a
benchmark runs in the same checkout.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-test"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
