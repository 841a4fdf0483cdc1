"""Request virtualization and the two-step retirement algorithm
(paper Section III-A).

Virtual requests are minted at a very high rate (every non-blocking call
creates one), so completed entries must be pruned aggressively or the
table's memory footprint and lookup cost grow without bound — the
original MANA did not virtualize requests at all, which is why it could
not support non-blocking collectives.

Retirement is asymmetric, as in the paper:

* **Non-blocking collectives** use log-and-replay; the wrapper for
  Test/Wait knows the application's request slot, so a completed virtual
  request is removed immediately and the slot set to MPI_REQUEST_NULL.
* **Point-to-point** requests may complete *internally* (the drain calls
  MPI_Test on existing Irecv records) when no application slot is at
  hand.  Step one: the table entry is pointed at a NULL marker holding
  the received payload.  Step two: on the application's next Test/Wait
  of that virtual request, the entry is removed and the application's
  slot is set to MPI_REQUEST_NULL.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ManaError
from repro.mana.vtables import VirtualTable
from repro.simmpi.constants import Status
from repro.simmpi.request import RealRequest


class VReqKind(enum.Enum):
    ISEND = "isend"
    IRECV = "irecv"
    ICOLL = "icoll"
    PSEND = "psend"   # persistent send (MPI_Send_init)
    PRECV = "precv"   # persistent receive (MPI_Recv_init)


@dataclass
class NullMark:
    """Step one of two-step retirement: 'this request completed
    internally; its payload awaits the application's next Test/Wait'."""

    payload: Any
    status: Optional[Status]


@dataclass(slots=True)
class VReqEntry:
    """One virtual request's upper-half record.

    Field order is part of the contract: the per-call constructor in
    :meth:`VirtualRequestManager.create` fills it positionally."""

    vid: int
    kind: VReqKind
    comm_vid: int
    #: comm-local peer rank (or ANY_SOURCE) and tag, for re-posting
    #: pending irecvs after restart
    peer: Any = None
    tag: Any = None
    #: the lower-half request, or a NullMark after internal completion
    real: Any = None
    #: index into the icoll replay log (ICOLL only)
    icoll_index: Optional[int] = None
    #: set once the application consumed the completion (no-GC mode keeps
    #: consumed entries forever — the Section III-A growth pathology)
    consumed: bool = False
    #: wrapper-call sequence number that created this entry (REEXEC
    #: orphan detection: entries from an unfinished call have
    #: created_call > the replay log's completed-call count)
    created_call: int = -1
    #: the drain already counted this receive's bytes (the
    #: Request_get_status mode leaves the request live in the lower half
    #: after counting, so the application's later Test must not recount)
    drain_counted: bool = False
    #: persistent requests: one transfer cycle started and not yet
    #: consumed by the application
    p_active: bool = False
    #: persistent receives: a completed cycle's (payload, status) staged
    #: by the drain, awaiting the application's Test/Wait
    p_staged: Any = None
    #: persistent sends: the bound buffer (upper-half memory; used to
    #: recreate the lower-half object at restart)
    p_buf: Any = None

    def recv_request(self):
        """The lower-half RealRequest a receive-ish entry is waiting on,
        if any (the drain tests exactly these)."""
        from repro.simmpi.request import RealPersistentRequest

        if self.kind is VReqKind.IRECV and isinstance(self.real, RealRequest):
            return self.real
        if (
            self.kind is VReqKind.PRECV
            and self.p_active
            and self.p_staged is None
            and isinstance(self.real, RealPersistentRequest)
            and self.real.current is not None
        ):
            return self.real.current
        return None


class VirtualRequestManager:
    """One rank's virtual-request table."""

    def __init__(self, binding):
        self._cfg = binding.cfg
        self.table: VirtualTable[VReqEntry] = VirtualTable("vreq", binding)
        self.retired = 0
        self.internal_completions = 0

    # ------------------------------------------------------------------
    def create(
        self,
        kind: VReqKind,
        comm_vid: int,
        real: Optional[RealRequest],
        peer: Any = None,
        tag: Any = None,
        icoll_index: Optional[int] = None,
        created_call: int = -1,
    ) -> Tuple[VReqEntry, float]:
        entry = VReqEntry(-1, kind, comm_vid, peer, tag, real, icoll_index,
                          False, created_call)
        vid, cost = self.table.create(entry)
        entry.vid = vid
        return entry, cost

    def lookup(self, vid: int) -> Tuple[VReqEntry, float]:
        return self.table.lookup(vid)

    # ------------------------------------------------------------------
    def complete_internally(
        self, entry: VReqEntry, payload: Any, status: Optional[Status]
    ) -> None:
        """Step one: record completion discovered without an app slot."""
        if isinstance(entry.real, NullMark):
            raise ManaError(f"vreq {entry.vid} internally completed twice")
        entry.real = NullMark(payload, status)
        self.internal_completions += 1

    def retire(self, entry: VReqEntry) -> float:
        """Step two / direct retirement: drop the table entry.

        Without request GC (original behaviour) the entry is merely
        marked consumed and stays in the table — reproducing the growing
        footprint the paper describes.
        """
        entry.consumed = True
        if not self._cfg.request_gc:
            return 0.0
        self.retired += 1
        return self.table.delete(entry.vid)

    # ------------------------------------------------------------------
    def pending_irecvs(self) -> List[VReqEntry]:
        """Active (not internally completed, not consumed) receive
        records — plain irecvs plus started persistent receives — what
        the drain tests, and what restart re-posts."""
        return [
            e for _vid, e in self.table.items()
            if not e.consumed and e.recv_request() is not None
        ]

    def persistent_entries(self) -> List[VReqEntry]:
        return [
            e for _vid, e in self.table.items()
            if e.kind in (VReqKind.PSEND, VReqKind.PRECV) and not e.consumed
        ]

    def pending_icolls(self) -> List[VReqEntry]:
        return [
            e for _vid, e in self.table.items()
            if e.kind is VReqKind.ICOLL
            and not e.consumed
            and not isinstance(e.real, NullMark)
        ]

    # ------------------------------------------------------------------
    # checkpoint / restart
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        entries = []
        for vid, e in self.table.items():
            real: Any
            if isinstance(e.real, NullMark):
                real = ("null_mark", e.real.payload, e.real.status)
            elif isinstance(e.real, RealRequest):
                # lower-half requests die with the lower half; pending
                # ones are re-posted/replayed from the record itself
                real = ("pending", None, None)
            else:
                real = ("none", None, None)
            entries.append(
                {
                    "vid": vid,
                    "kind": e.kind.value,
                    "comm_vid": e.comm_vid,
                    "peer": e.peer,
                    "tag": e.tag,
                    "real": real,
                    "icoll_index": e.icoll_index,
                    "consumed": e.consumed,
                    "created_call": e.created_call,
                    "drain_counted": e.drain_counted,
                    "p_active": e.p_active,
                    "p_staged": e.p_staged,
                    "p_buf": e.p_buf,
                }
            )
        return {"entries": entries, "retired": self.retired}

    def restore(self, snap: dict) -> None:
        self.table._table.clear()
        max_vid = 0
        for rec in snap["entries"]:
            tag_, payload, status = rec["real"]
            real: Any
            if tag_ == "null_mark":
                real = NullMark(payload, status)
            elif tag_ == "pending":
                real = None  # re-bound by the restart engine
            else:
                real = None
            entry = VReqEntry(
                vid=rec["vid"],
                kind=VReqKind(rec["kind"]),
                comm_vid=rec["comm_vid"],
                peer=rec["peer"],
                tag=rec["tag"],
                real=real,
                icoll_index=rec["icoll_index"],
                consumed=rec["consumed"],
                created_call=rec.get("created_call", -1),
                drain_counted=rec.get("drain_counted", False),
                p_active=rec.get("p_active", False),
                p_staged=rec.get("p_staged"),
                p_buf=rec.get("p_buf"),
            )
            self.table._table[entry.vid] = entry
            max_vid = max(max_vid, entry.vid)
        self.table._next_id = max(self.table._next_id, max_vid + 1)
        self.retired = snap["retired"]
