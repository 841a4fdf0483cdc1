"""Virtualization: the virtual→real ID-translation stage.

Communicator, request, and group handles in application memory are
virtual IDs; this stage owns every translation through the costed
tables (``handles.py``/``vtables.py``) on behalf of the pipeline.  The
costs the tables report are *returned*, not charged — the costing stage
folds them into the wrapper's single ``Advance``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.mana.comms import CreationRecord
from repro.mana.requests import VReqEntry, VReqKind
from repro.mana.runtime import ManaRank


class Virtualization:
    """Per-rank translation stage.

    The stage holds the tables it translates through: a rank's tables
    live as long as the rank (``restore`` refills them in place), so
    their lookups are bound once instead of re-resolved per call."""

    def __init__(self, mrank: ManaRank, world_vid: int):
        self.mrank = mrank
        self.world_vid = world_vid
        self._tracer = mrank.rt.sched.tracer
        self._vcomms = mrank.vcomms
        self._vreqs = mrank.vreqs
        self._lookup_comm = mrank.vcomms.lookup
        #: ``vid -> (entry, modeled lookup cost)``
        self.lookup_request = mrank.vreqs.table.lookup

    # ------------------------------------------------------------------
    # communicators
    # ------------------------------------------------------------------
    def lookup_comm(self, comm: Optional[int]) -> Tuple[int, Any, float]:
        """Translate a virtual communicator (None = COMM_WORLD).

        Returns (vid, real communicator, modeled lookup cost)."""
        if comm is None:
            comm = self.world_vid
        real, cost = self._lookup_comm(comm)
        if self._tracer.enabled:
            self._tracer.emit(
                "virtualization", "comm_lookup", rank=self.mrank.rank,
                vid=comm, cost=cost,
            )
        return comm, real, cost

    def comm_meta(self, vid: int):
        return self._vcomms.meta[vid]

    def register_comm(self, real: Any, name: str, record: CreationRecord):
        """Register a freshly created real communicator; returns
        (new vid, modeled insert cost)."""
        vid, cost = self._vcomms.register(real, name, record)
        if self._tracer.enabled:
            self._tracer.emit(
                "virtualization", "comm_register", rank=self.mrank.rank,
                vid=vid, name=name, op=record.op,
            )
        return vid, cost

    def log_null_creation(self, record: CreationRecord) -> None:
        """A comm-creating call returned COMM_NULL here: log it anyway
        (replay-log reconstruction replays these too)."""
        self._vcomms.creation_log.append(record)

    def free_comm(self, vid: int) -> None:
        self._vcomms.free(vid)
        if self._tracer.enabled:
            self._tracer.emit(
                "virtualization", "comm_free", rank=self.mrank.rank, vid=vid
            )

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def create_request(
        self, kind: VReqKind, comm_vid: int, real: Any, peer: Any = None,
        tag: Any = None, icoll_index: Optional[int] = None,
        created_call: int = -1,
    ) -> Tuple[VReqEntry, float]:
        entry, cost = self._vreqs.create(
            kind, comm_vid, real, peer, tag, icoll_index, created_call)
        if self._tracer.enabled:
            self._tracer.emit(
                "virtualization", "vreq_create", rank=self.mrank.rank,
                vid=entry.vid, req_kind=kind.value, comm_vid=comm_vid,
            )
        return entry, cost

    def retire_request(self, entry: VReqEntry) -> float:
        cost = self._vreqs.retire(entry)
        if self._tracer.enabled:
            self._tracer.emit(
                "virtualization", "vreq_retire", rank=self.mrank.rank,
                vid=entry.vid, req_kind=entry.kind.value,
            )
        return cost
