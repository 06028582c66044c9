"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of the layers in timing wrappers. A
module that imported a function by name keeps its own reference, so each
wrapper replaces the function under every name in every sweepsense module
that holds it (``sweepsense.cli.build_dictionary`` as well as
``sweepsense.fingerprint.build_dictionary``, for example). Spans stay in
memory with the index of their parent span; self time is a span's duration
minus the durations of its direct children.

A function that a later change removes produces no span; its metrics then
read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, function) for every wrapped layer boundary.
LAYERS = (
    ("sweepsense.streams", "substream"),
    ("sweepsense.synth", "simulate_measurement"),
    ("sweepsense.fingerprint", "build_fingerprint"),
    ("sweepsense.fingerprint", "build_dictionary"),
    ("sweepsense.fingerprint", "localize"),
    ("sweepsense.fingerprint", "ambiguity_probe"),
    ("sweepsense.fingerprint", "similarity"),
    ("sweepsense.fingerprint", "dictionary_to_csv"),
    ("sweepsense.fingerprint", "import_dictionary"),
    ("sweepsense.cli", "measurement_to_csv"),
    ("sweepsense.cli", "read_measurement_csv"),
    ("sweepsense.cli", "run_sweep"),
)

# Work sizes recorded on a span: entries built, dictionary bytes a match
# multiplies (computed from array sizes, not measured traffic), CSV bytes.
_SIZERS = {
    "fingerprint.build_dictionary": lambda args, result: result.size,
    "fingerprint.localize": lambda args, result: args[1].entries.nbytes,
    "fingerprint.dictionary_to_csv": lambda args, result: len(result),
}

# Per-layer metrics: name, unit, better, value from the per-span totals.
METRICS = (
    ("streams.substream.calls", "count", "lower", lambda t: t["streams.substream"]["calls"]),
    ("streams.substream.s", "s", "lower", lambda t: t["streams.substream"]["s"]),
    ("synth.simulate_measurement.calls", "count", "lower",
     lambda t: t["synth.simulate_measurement"]["calls"]),
    ("synth.simulate_measurement.s", "s", "lower", lambda t: t["synth.simulate_measurement"]["s"]),
    ("fingerprint.build_fingerprint.calls", "count", "lower",
     lambda t: t["fingerprint.build_fingerprint"]["calls"]),
    ("fingerprint.build_fingerprint.s", "s", "lower",
     lambda t: t["fingerprint.build_fingerprint"]["s"]),
    ("fingerprint.build_dictionary.self_s", "s", "lower",
     lambda t: t["fingerprint.build_dictionary"]["self_s"]),
    ("fingerprint.build_dictionary.entries_per_s", "1/s", "higher",
     lambda t: _rate(t["fingerprint.build_dictionary"])),
    ("fingerprint.localize.calls", "count", "lower", lambda t: t["fingerprint.localize"]["calls"]),
    ("fingerprint.localize.s", "s", "lower", lambda t: t["fingerprint.localize"]["s"]),
    ("fingerprint.localize.bytes_computed", "B", "lower",
     lambda t: t["fingerprint.localize"]["size"]),
    ("fingerprint.ambiguity_probe.self_s", "s", "lower",
     lambda t: t["fingerprint.ambiguity_probe"]["self_s"]),
    ("fingerprint.similarity.calls", "count", "lower",
     lambda t: t["fingerprint.similarity"]["calls"]),
    ("fingerprint.dictionary_to_csv.s", "s", "lower",
     lambda t: t["fingerprint.dictionary_to_csv"]["s"]),
    ("fingerprint.dictionary_to_csv.bytes", "B", "lower",
     lambda t: t["fingerprint.dictionary_to_csv"]["size"]),
    ("fingerprint.import_dictionary.s", "s", "lower",
     lambda t: t["fingerprint.import_dictionary"]["s"]),
    ("cli.measurement_to_csv.s", "s", "lower", lambda t: t["cli.measurement_to_csv"]["s"]),
    ("cli.read_measurement_csv.s", "s", "lower", lambda t: t["cli.read_measurement_csv"]["s"]),
    ("cli.run_sweep.self_s", "s", "lower", lambda t: t["cli.run_sweep"]["self_s"]),
)


def _rate(total: dict) -> float:
    return total["size"] / total["s"] if total["s"] > 0.0 else 0.0


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list = []  # (name, parent index or -1, start, end, size)
        self._stack: list[int] = []
        self._restore: list = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items()
                   if (n == "sweepsense" or n.startswith("sweepsense.")) and m is not None]
        for module_name, attr in LAYERS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name.rsplit('.', 1)[1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, sizer = self.spans, self._stack, _SIZERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            size = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if sizer is not None:
                    size = sizer(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, parent, start, end, size)

        return wrapper

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds, summed size."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0})
        for i, (name, _, start, end, size) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
            t["size"] += size
        return out

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, parent, start, end, size in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start_s": start - origin, "dur_s": end - start,
                                     "size": size}) + "\n")


def metrics(totals: dict) -> dict[str, float]:
    return {name: fn(totals) for name, _, _, fn in METRICS}
