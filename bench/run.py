"""Benchmark of the sweepsense CLI: three workloads, one verb per process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dict-reuse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

A run repeats whole rounds of its workload until ``--seconds`` have passed.
A round runs the workload's verbs one after another in a closed loop with a
single client, then checks every output against the reference model. With
``--trace 0`` each verb is its own child process and the run reports the
end-to-end metrics. With ``--trace 1`` the same rounds run in this process
through ``sweepsense.cli.main``, alternating untraced and traced rounds; the
run reports the per-layer metrics of the traced rounds and the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

This file only pins threads, checks for the program's source and starts the
child-process helper (spawn.py) while this process is still small; the
measurement itself is in harness.py.
"""

import argparse
import os
import sys
from pathlib import Path

# BLAS and OpenMP read their thread count when numpy loads; children inherit it.
BLAS_THREADS = "1"
SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="dict-reuse, mc-sweep or probe-fresh")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="tiny smoke run of every workload plus a wrong-output check")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not (SRC / "sweepsense" / "cli.py").is_file():
        print(f"error: no sweepsense source under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # One CPU for this process, the helper and every child: on a shared host
    # each CPU slows on its own, and the calibration kernel must run on the
    # CPU the verb runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from spawn import Spawner

    # The checkout's source and nothing else, for children and this process.
    spawner = Spawner(dict(os.environ, PYTHONPATH=str(SRC)))
    try:
        import harness

        return harness.main(args, spawner)
    finally:
        spawner.close()


if __name__ == "__main__":
    sys.exit(main())
