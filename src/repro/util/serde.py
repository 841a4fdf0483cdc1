"""Serialization for checkpoint images and payload size accounting.

Checkpoint images must round-trip through real bytes on disk (the REEXEC
restart mode reloads them in a fresh simulator), so everything MANA
snapshots is encoded with pickle protocol 5 plus a small header.  Message
payload sizes feed the network cost model and the drain algorithm's
per-pair byte counters, so :func:`payload_nbytes` must be consistent for
a given object no matter when it is asked.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib
from typing import Any, Optional, Sequence

import numpy as np

_MAGIC = b"MANA2RPR"
_VERSION_PLAIN = 1
_VERSION_ZLIB = 2


def dumps(obj: Any, compress: bool = False) -> bytes:
    """Serialize ``obj`` into a framed, versioned byte string.

    ``compress`` applies zlib (the analog of DMTCP's --gzip images);
    :func:`loads` dispatches on the frame version either way."""
    body = pickle.dumps(obj, protocol=5)
    if compress:
        return _MAGIC + struct.pack("<I", _VERSION_ZLIB) + zlib.compress(body, 6)
    return _MAGIC + struct.pack("<I", _VERSION_PLAIN) + body


def loads(data: bytes) -> Any:
    """Inverse of :func:`dumps`; validates the frame header."""
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError("not a MANA reproduction image (bad magic)")
    (version,) = struct.unpack_from("<I", data, len(_MAGIC))
    body = data[len(_MAGIC) + 4 :]
    if version == _VERSION_ZLIB:
        return pickle.loads(zlib.decompress(body))
    if version != _VERSION_PLAIN:
        raise ValueError(f"unsupported image version {version}")
    return pickle.loads(body)


class SizedBlocks:
    """A run of ``allgather`` or short-message ``alltoall`` blocks
    travelling as one message.

    Each block's wire size is measured once, by the rank that
    contributed it, and travels with the block: a message costs the
    plain sum of its blocks' sizes (no container header), and forwarding
    a block never re-walks it.  Both collective layers send this type,
    so sender, receiver and the drain's per-pair counters agree on every
    message's size by construction.

    A *typed* run — an ``(n, k)`` int64 array standing for ``n`` blocks
    that are k-tuples of ints, the drain's counter rows — has one size
    per block by construction (:func:`typed_block_nbytes`), so it
    carries no ``sizes`` and no per-block Python object at all.
    """

    __slots__ = ("blocks", "sizes", "nbytes")

    def __init__(self, blocks: Any, sizes: Optional[Sequence[int]] = None):
        self.blocks = blocks
        self.sizes = sizes
        if sizes is None:
            self.nbytes = len(blocks) * typed_block_nbytes(blocks)
        else:
            self.nbytes = sum(sizes)


def typed_block_nbytes(blocks: np.ndarray) -> int:
    """Wire size of each block of a typed run: what
    :func:`payload_nbytes` gives the k-tuple of ints a row stands for."""
    return 8 + 8 * blocks.shape[1]


def payload_nbytes(obj: Any) -> int:
    """Best-effort wire size of a message payload, in bytes.

    numpy arrays and scalars report their true buffer size; bytes-like
    objects their length; other Python objects fall back to their pickled
    size (deterministic for the value types our workloads send).
    """
    # exact-type fast paths first: int/float dominate hot-path payloads
    # (bool deliberately excluded — type(True) is bool, not int)
    t = type(obj)
    if t is int:
        return 8
    if t is float:
        return 8
    if t is tuple or t is list:
        # exact-type sequences (counter pairs, rows of them): same sum
        # as the isinstance branch below, without a generator per level
        n = 8
        for x in obj:
            tx = type(x)
            n += 8 if (tx is int or tx is float) else payload_nbytes(x)
        return n
    if obj is None:
        return 0
    if t is np.ndarray:
        return int(obj.nbytes)
    if t is SizedBlocks:
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, complex):
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple)):
        return 8 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 8 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    buf = io.BytesIO()
    pickle.dump(obj, buf, protocol=5)
    return buf.tell()
