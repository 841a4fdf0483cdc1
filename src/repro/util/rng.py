"""Deterministic random-number helpers.

The whole simulator must be bit-reproducible from a single seed: the DES
kernel breaks event-time ties with sequence numbers, and every stochastic
component (workload generators, straggler injection, fault injection)
derives its own independent stream from the root seed with
:func:`derive_seed` so adding a new consumer never perturbs existing
streams.
"""

from __future__ import annotations

import numpy as np
import numpy.random  # noqa: F401 — else loaded on first np.random.* use

from repro.util.hashing import stable_hash


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive an independent 64-bit seed from a root seed and labels.

    ``labels`` are free-form (rank numbers, component names); they are
    encoded into a canonical string so that
    ``derive_seed(s, "md", rank)`` is stable across runs and platforms.
    """
    key = "\x1f".join([str(root_seed)] + [repr(x) for x in labels])
    return stable_hash(key.encode("utf-8"), bits=64)


def make_rng(root_seed: int, *labels: object) -> np.random.Generator:
    """Create a numpy Generator on an independent derived stream."""
    return np.random.default_rng(derive_seed(root_seed, *labels))
