"""Starts the benchmark's child processes from a process that stays small.

Linux reports a child's peak RSS as at least the RSS of the process that
forked it, because exec records the high-water mark of the address space it
replaces. The benchmark itself grows to hundreds of MB while it checks
outputs, so it asks this helper, started before it loads numpy, to run each
child and report the child's own rusage.

The helper also measures how fast the CPU is running while each child runs.
On the reference machine, a 2-core VM on a shared host, everything runs up
to twice as slowly for seconds to minutes at a time while other tenants load
the host, and each of the two CPUs slows on its own. So the benchmark pins
itself, this helper and every child to one CPU, and this helper times a
fixed mix of interpreter work (the calibration kernel) twice before each
child, every 0.5 s while it runs, and twice after it. The median kernel time
is returned with the child's wall time. With the pinning, kernel and verb
times over 4 to 8 s windows correlated 0.9 to 0.99 in a 90 s experiment.

Protocol: one JSON request per line on stdin with argv, cwd, env, stdout,
stderr and timeout; one JSON reply per line on stdout with wall_s, rss_mb,
code and calib_s (median kernel time around and during the child). A child
still running at its timeout is killed.
"""

import json
import marshal
import os
import random
import statistics
import subprocess
import sys
import threading
import time


# Kernel CPU time in seconds on the reference machine (2-core VM, Python
# 3.11) while its host is quiet. A step's wall time divided by the kernel
# time measured during it and multiplied by this constant reads as seconds
# on that machine.
KERNEL_REF_S = 0.0060
SAMPLE_EVERY_S = 0.5  # costs the child about 1 % of its CPU

_SHUFFLED = [i * 0.5 for i in range(100_000)]
random.Random(0).shuffle(_SHUFFLED)
_CODE = marshal.dumps(compile(
    "\n".join(f"def f{i}(x):\n    return [x * {i}, str(x), {{'k': x}}]" for i in range(200)),
    "kernel", "exec"))


def kernel_s() -> float:
    """CPU time of a fixed mix of interpreter work. On the reference machine
    this mix slows with the host's load by the same factor as CLI verbs
    running on the same CPU. CPU time, not wall time, so that a sample taken
    while a child runs does not count the time the child holds the CPU."""
    start = time.thread_time()
    acc = 0
    for i in range(25_000):  # interpreter loop
        acc = (acc + i * i) % 1000003
    sum(_SHUFFLED)  # pointer chasing through 3 MB of float objects
    [str(i) for i in range(10_000)]  # small allocations
    for _ in range(5):  # unmarshalling code, as imports do
        marshal.loads(_CODE)
    return time.thread_time() - start


def run(req: dict) -> dict:
    samples = [kernel_s(), kernel_s()]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(SAMPLE_EVERY_S):
            samples.append(kernel_s())

    sampler = threading.Thread(target=sample)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        sampler.start()
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            stop.set()
        wall = time.perf_counter() - start
    sampler.join()
    samples += [kernel_s(), kernel_s()]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
            "calib_s": statistics.median(samples)}


class Spawner:
    """Client side: starts this file as a helper and sends it requests."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd, stdout_path, deadline: float) -> dict:
        """Wall time, the child's own peak RSS in MB, its exit code and the
        kernel time around it. The child is killed when ``deadline`` (a
        perf_counter time) passes."""
        req = {"argv": argv, "cwd": str(cwd), "env": self.env, "stdout": str(stdout_path),
               "stderr": str(stdout_path.with_suffix(".stderr")),
               "timeout": max(deadline - time.perf_counter(), 0.0)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
