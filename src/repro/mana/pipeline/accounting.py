"""DrainAccounting: the per-pair byte/message bookkeeping stage.

Every application point-to-point byte the wrappers move is counted per
(self, peer) world-rank pair (``counters.py``, Section III-B); the
checkpoint drain later exchanges exactly these counters in one
``MPI_Alltoall`` to know when the fabric is empty.  Routing the updates
through one stage keeps the accounting auditable: the trace spine sees
every count, and a drain deficit can be replayed against the stream.
"""

from __future__ import annotations

from repro.mana.runtime import ManaRank


class DrainAccounting:
    """Per-rank drain-bookkeeping stage."""

    def __init__(self, mrank: ManaRank):
        self.mrank = mrank
        self._tracer = mrank.rt.sched.tracer
        #: the rank's counters (``restore`` refills them in place)
        self._counters = mrank.counters

    def sent(self, dst_world: int, nbytes: int) -> None:
        """Count an application send toward the drain's expectations."""
        self._counters.on_send(dst_world, nbytes)
        if self._tracer.enabled:
            self._tracer.emit(
                "drain_accounting", "sent", rank=self.mrank.rank,
                peer=dst_world, nbytes=nbytes,
            )

    def received(self, src_world: int, nbytes: int) -> None:
        """Count an application receive against the drain's deficit.

        Callers skip receives whose peer is ``MPI_PROC_NULL``: nobody
        sent them, so no send counter anywhere would balance the entry."""
        self._counters.on_receive(src_world, nbytes)
        if self._tracer.enabled:
            self._tracer.emit(
                "drain_accounting", "received", rank=self.mrank.rank,
                peer=src_world, nbytes=nbytes,
            )
