"""Real (lower-half) request objects."""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

from repro.simmpi.constants import Status

_req_ids = itertools.count(1)


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"
    COLL = "coll"   # non-blocking collective, completed by a helper proc


class RealRequest:
    """One in-progress lower-half operation.

    MPI semantics: after the operation completes and is consumed via
    Test/Wait, the handle becomes ``MPI_REQUEST_NULL`` in the caller's
    storage; the library-side object is inert afterwards.  The simulated
    library marks completion via :meth:`complete`, which also wakes a
    parked waiter if one is registered (native blocking Wait).
    """

    __slots__ = (
        "req_id",
        "kind",
        "done",
        "consumed",
        "payload",
        "status",
        "waiter",
        "comm_ctx",
        "source",
        "tag",
        "nbytes",
        "_on_complete",
    )

    def __init__(
        self,
        kind: RequestKind,
        comm_ctx: int = -1,
        source: Any = None,
        tag: Any = None,
        req_id: Optional[int] = None,
    ):
        #: ``req_id`` is one the caller already drew from ``_req_ids``
        self.req_id = next(_req_ids) if req_id is None else req_id
        self.kind = kind
        self.done = False
        #: True once Test/Wait has returned this request to the caller
        self.consumed = False
        self.payload: Any = None
        self.status: Optional[Status] = None
        #: parked Proc waiting in a native blocking Wait, if any
        self.waiter = None
        self.comm_ctx = comm_ctx
        self.source = source
        self.tag = tag
        self.nbytes = 0
        self._on_complete = None

    def on_complete(self, fn) -> None:
        """Register a callback run at completion (icoll helpers use this)."""
        self._on_complete = fn
        if self.done and fn is not None:
            fn(self)

    def complete(self, payload: Any = None, status: Optional[Status] = None) -> None:
        if self.done:
            raise RuntimeError(f"request {self.req_id} completed twice")
        self.done = True
        self.payload = payload
        self.status = status
        if status is not None:
            self.nbytes = status.count
        if self._on_complete is not None:
            self._on_complete(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"<RealReq #{self.req_id} {self.kind.value} {state}>"


class RealPersistentRequest:
    """A persistent point-to-point request (MPI_Send_init/MPI_Recv_init).

    Holds the bound operation; each MPI_Start launches one transfer
    cycle (a fresh internal RealRequest).  Between completion and the
    next Start the request is *inactive*: Test/Wait on it succeed
    immediately with an empty status, per the standard.
    """

    __slots__ = ("req_id", "kind", "comm", "peer", "tag", "buf",
                 "current", "active", "freed", "starts")

    def __init__(self, kind: RequestKind, comm, peer, tag, buf=None):
        self.req_id = next(_req_ids)
        self.kind = kind
        self.comm = comm
        self.peer = peer
        self.tag = tag
        self.buf = buf              # bound send buffer (send_init only)
        self.current: Optional[RealRequest] = None
        self.active = False
        self.freed = False
        self.starts = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "freed" if self.freed else ("active" if self.active else "inactive")
        return f"<RealPReq #{self.req_id} {self.kind.value} {state}>"
