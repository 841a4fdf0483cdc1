"""The portable upper half: the machine-free restart state of one rank.

This module defines exactly what goes into a checkpoint image — and,
just as deliberately, what does not.  The image holds only state that is
meaningful on *any* machine: the application's memory, the recorded
replay log, the two-phase protocol counters, the drain buffer, the
virtual-handle tables (communicator metadata, request records,
non-blocking-collective log), and pairwise byte counters.  Nothing
machine-derived — costing memos, the FS-register tier, network
parameters, burst-buffer bandwidths, real lower-half objects — is ever
gathered here; all of that is re-derived from the target machine's
:class:`~repro.mana.binding.LowerHalfBinding` at restore time.

Layering rule 6 (``tools/check_layering.py``) enforces the property
mechanically: this module imports nothing from ``repro.hosts`` or
``repro.simnet``.  Everything it touches is reached duck-typed through
the ``ManaRank`` it is handed, so the portable-state schema cannot
silently grow a machine dependency.

The field order of :func:`gather_portable` is load-bearing: the state
dict is serialized in insertion order and the resulting blob's byte
length drives modeled burst-buffer write times pinned by the golden
harness.  Add new fields at the end, never in the middle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: the portable-state schema, in serialization order (see module note)
PORTABLE_FIELDS = (
    "rank",
    "epoch",
    "app_state",
    "counters",
    "drain_buffer",
    "vcomms",
    "vreqs",
    "icoll_log",
    "blocking_counts",
    "replay_log",
)


@dataclass(frozen=True)
class MachineProvenance:
    """Where an image came from — stamped into the frame header and the
    saved job file so a cross-machine restore is attributable (and a
    restore on an *unknown* machine can be refused outright)."""

    machine: str
    kernel: str
    cfg_name: str = ""
    nranks: int = 0

    @classmethod
    def from_saved(cls, saved: Dict[str, Any]) -> "MachineProvenance":
        """Read provenance from a saved job file, tolerating pre-refactor
        files that carried only the bare ``machine`` key."""
        prov = saved.get("provenance") or {}
        return cls(
            machine=prov.get("machine", saved.get("machine", "")),
            kernel=prov.get("kernel", ""),
            cfg_name=prov.get("cfg_name", saved.get("cfg_name", "")),
            nranks=prov.get("nranks", saved.get("nranks", 0)),
        )


def gather_portable(mrank) -> Dict[str, Any]:
    """One rank's portable upper-half state, ready for serialization.

    Exactly the machine-free fields of :data:`PORTABLE_FIELDS`, in that
    order.  Every value is a snapshot (the caller may keep running), and
    none of them references the lower half or the machine model.
    """
    program = mrank.program
    app_state = program.snapshot_state() if program is not None else None
    replay_log = None
    api = mrank.api
    if api is not None and getattr(api, "replay_log", None) is not None:
        replay_log = api.replay_log.snapshot()
    return {
        "rank": mrank.rank,
        "epoch": mrank.intent_epoch,
        "app_state": app_state,
        "counters": mrank.counters.snapshot(),
        "drain_buffer": mrank.drain_buffer.snapshot(),
        "vcomms": mrank.vcomms.snapshot(),
        "vreqs": mrank.vreqs.snapshot(),
        "icoll_log": mrank.icoll_log.snapshot(),
        "blocking_counts": dict(mrank.blocking_counts),
        "replay_log": replay_log,
    }


def restore_portable(mrank, payload: Dict[str, Any]) -> None:
    """Restore the protocol half of a portable payload into a rank.

    This is the machine-free part of a restart: counters, drain buffer,
    virtual tables, the non-blocking-collective log, and the blocking
    collective counts the two-phase protocol equalized.  The application
    state and replay log are consumed by the caller (REEXEC re-executes
    the program; elastic restart re-decomposes ``app_state``), and the
    lower-half bindings are rebuilt afterwards against the *current*
    session's machine — nothing here touches them.
    """
    mrank.counters.restore(payload["counters"])
    mrank.drain_buffer.restore(payload["drain_buffer"])
    mrank.vcomms.restore(payload["vcomms"])
    mrank.vreqs.restore(payload["vreqs"])
    mrank.icoll_log.restore(payload["icoll_log"])
    mrank.blocking_counts = dict(payload["blocking_counts"])


def validate_portable(payload: Dict[str, Any]) -> Optional[str]:
    """Check a payload against the portable schema.

    Returns a human-readable complaint, or ``None`` when the payload
    carries every portable field (extra trailing fields are allowed —
    the schema is append-only).
    """
    missing = [f for f in PORTABLE_FIELDS if f not in payload]
    if missing:
        return f"portable state is missing fields: {missing}"
    return None
