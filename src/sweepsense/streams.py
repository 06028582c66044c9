"""Counter-based random substreams for order-independent reproducibility.

A stream is keyed by a root seed plus a path of labels: a measurement's
noise reads one stream per (seed, channel name), and each Monte-Carlo trial
gets its own seed from derive_seed(seed, SNR index, trial index). The key is
hashed into a Philox counter-based generator, so values depend only on
(seed, path) and never on evaluation order or worker count.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def _digest(seed: int, path: tuple) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<Q", int(seed) & 0xFFFFFFFFFFFFFFFF))
    for part in path:
        h.update(b"/")
        h.update(str(part).encode("utf-8"))
    return h.digest()


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path)."""
    lo, hi = struct.unpack("<QQ", _digest(seed, path))
    key = np.array([lo, hi], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *path) -> int:
    """64-bit child seed for (seed, *path), for nesting substream families."""
    return struct.unpack("<Q", _digest(seed, path)[:8])[0]
