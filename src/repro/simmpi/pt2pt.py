"""Point-to-point engine: one endpoint per rank.

Implements MPI's matching semantics: receives match messages on
(context, source, tag) with ``MPI_ANY_SOURCE``/``MPI_ANY_TAG`` wildcards,
posted receives are matched in post order, unexpected messages in arrival
order, and per-(source, destination) order is never overtaken (the
network guarantees ordered delivery; the queues preserve it).

The distinction between a message *in the network* and a message *in the
unexpected queue* is load-bearing for MANA's drain algorithm (paper
Section III-B): ``MPI_Iprobe`` sees only unexpected-queue messages, so a
message that was already matched by a posted ``MPI_Irecv`` is invisible
to probing — that is the case MANA-2.0 handles by calling ``MPI_Test`` on
its existing ``Irecv`` records.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, Status
from repro.simmpi.request import RealRequest, RequestKind
from repro.simnet.message import Message


def _matches(req: RealRequest, msg: Message) -> bool:
    if req.comm_ctx != msg.context_id:
        return False
    if req.source is not ANY_SOURCE and req.source != msg.src:
        return False
    if req.tag is not ANY_TAG and req.tag != msg.tag:
        return False
    return True


class Endpoint:
    """Per-rank receive-side state."""

    __slots__ = ("world_rank", "unexpected", "posted", "_wake")

    def __init__(self, world_rank: int):
        self.world_rank = world_rank
        self.unexpected: List[Message] = []
        self.posted: List[RealRequest] = []
        #: wakes parked native waiters; set by the library
        self._wake = None

    # ------------------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Network delivery callback: match a posted recv or queue.

        The matching predicate is ``_matches`` inlined: one delivery per
        message makes this the hottest receive-side loop."""
        posted = self.posted
        if posted:
            ctx = msg.context_id
            src = msg.src
            tag = msg.tag
            for i, req in enumerate(posted):
                if (req.comm_ctx == ctx
                        and (req.source is ANY_SOURCE or req.source == src)
                        and (req.tag is ANY_TAG or req.tag == tag)):
                    del posted[i]
                    self._complete_recv(req, msg)
                    return
        self.unexpected.append(msg)

    def _complete_recv(self, req: RealRequest, msg: Message) -> None:
        # a collective's own receive (odd context id) has no caller to
        # read a status: nothing but its payload is kept
        req.complete(msg.payload, None if msg.context_id & 1
                     else Status(msg.src, msg.tag, msg.nbytes))
        if req.waiter is not None and self._wake is not None:
            self._wake(req.waiter)

    # ------------------------------------------------------------------
    def post_recv(self, req: RealRequest) -> None:
        """Post an irecv: match the unexpected queue first, else queue it."""
        unexpected = self.unexpected
        if unexpected:
            ctx = req.comm_ctx
            src = req.source
            tag = req.tag
            for i, msg in enumerate(unexpected):
                if (ctx == msg.context_id
                        and (src is ANY_SOURCE or src == msg.src)
                        and (tag is ANY_TAG or tag == msg.tag)):
                    del unexpected[i]
                    self._complete_recv(req, msg)
                    return
        self.posted.append(req)

    def iprobe(
        self, context_id: int, source, tag
    ) -> Tuple[bool, Optional[Status]]:
        """Non-destructively look for a matching unexpected message."""
        probe = RealRequest(RequestKind.RECV, context_id, source, tag)
        for msg in self.unexpected:
            if _matches(probe, msg):
                return True, Status(source=msg.src, tag=msg.tag, count=msg.nbytes)
        return False, None

    # ------------------------------------------------------------------
    def unexpected_in_contexts(self, contexts: set) -> List[Message]:
        """Unexpected messages whose context is in ``contexts`` (tests)."""
        return [m for m in self.unexpected if m.context_id in contexts]
