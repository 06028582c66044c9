"""Counter-based random substreams for order-independent reproducibility.

A stream is keyed by a root seed plus a path of labels: a measurement's
noise reads one stream per (seed, channel name), and each Monte-Carlo trial
gets its own seed from derive_seed(seed, SNR index, trial index). The key is
hashed into a Philox counter-based generator, so values depend only on
(seed, path) and never on evaluation order or worker count. A stream is the
Philox keyed by that hash at counter 0: substream builds a new generator for
it, and _state gives the same starting state for re-keying one generator
through many streams.
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


def _key(seed: int, path: tuple) -> np.ndarray:
    """Philox key of the stream (seed, *path): its digest as two little-endian words."""
    return np.frombuffer(_digest(seed, path), dtype="<u8")


def substream(seed: int, *path) -> np.random.Generator:
    """Generator for the substream identified by (seed, *path)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, path)))


def _state(seed: int, *path) -> dict:
    """The Philox state substream(seed, *path) starts from: its key, counter 0, empty buffer.

    Assigning it to a Philox's ``state`` re-keys that bit generator to the
    stream without building a new one.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _key(seed, path)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def derive_seed(seed: int, *path) -> int:
    """64-bit child seed for (seed, *path), for nesting substream families."""
    return struct.unpack("<Q", _digest(seed, path)[:8])[0]
