"""Per-pair send/receive byte counters (paper Section III-B).

The original MANA tracked only one total per process and bounced it off
the coordinator; MANA-2.0 keeps a counter per (self, peer) pair so that a
single ``MPI_Alltoall`` gives every rank its exact expected incoming
byte count — and a missing message can be attributed to a specific
sender, which the paper calls out as a debuggability win.

Counters are indexed by *world* rank (the unambiguous process identity of
Section III, item 5) regardless of which communicator carried the
message.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import DrainError, RestartError


class PairwiseCounters:
    """One rank's view: bytes and messages sent to / received from every
    world rank.

    Only peers this rank has addressed or heard from have an entry —
    ``{peer: [bytes, messages]}``; everyone else is an implied
    ``[0, 0]`` — so an idle rank costs the same in a world of 8 as in
    one of 8192.  Dense per-world-rank rows exist only while something
    needs them: the drain's ``alltoall`` row and the image snapshot.
    """

    def __init__(self, nranks: int, rank: Optional[int] = None):
        self.nranks = nranks
        #: the world rank these counters belong to (error messages only)
        self.rank = rank
        self.sent: Dict[int, List[int]] = {}
        self.received: Dict[int, List[int]] = {}

    def on_send(self, dst_world: int, nbytes: int) -> None:
        try:
            entry = self.sent[dst_world]
        except KeyError:
            self.sent[dst_world] = [nbytes, 1]
            return
        entry[0] += nbytes
        entry[1] += 1

    def on_receive(self, src_world: int, nbytes: int) -> None:
        try:
            entry = self.received[src_world]
        except KeyError:
            self.received[src_world] = [nbytes, 1]
            return
        entry[0] += nbytes
        entry[1] += 1

    def total_sent(self) -> tuple:
        return _totals(self.sent)

    def total_received(self) -> tuple:
        return _totals(self.received)

    def sent_pairs(self) -> np.ndarray:
        """(bytes, messages) sent to each peer, one row per world rank
        — the typed row the drain's alltoall exchanges.  Message counts
        matter independently of bytes: zero-byte messages (barrier
        tokens, empty payloads) are invisible to byte accounting
        alone."""
        return self._dense(self.sent)

    def deficit_from(self, expected_from_each: np.ndarray) -> Dict[int, tuple]:
        """Given each peer's (sent-to-me bytes, messages) from the
        alltoall — row ``i`` is world rank ``i``'s — return
        {peer: (missing bytes, missing messages)} for peers we have not
        fully heard."""
        missing = expected_from_each - self._dense(self.received)
        out: Dict[int, tuple] = {}
        # the usual answer is "nobody": only peers that differ are walked
        for peer in np.flatnonzero(missing.any(axis=1)).tolist():
            miss_bytes, miss_msgs = missing[peer].tolist()
            if miss_bytes < 0 or miss_msgs < 0:
                raise DrainError(
                    f"received more than world rank {peer} reports sending "
                    f"({-miss_bytes} bytes / {-miss_msgs} messages over); "
                    "counter accounting is broken"
                )
            out[peer] = (miss_bytes, miss_msgs)
        return out

    def _dense(self, table: Dict[int, List[int]]) -> np.ndarray:
        """``table`` as a fresh ``(nranks, 2)`` int64 array."""
        rows = np.zeros((self.nranks, 2), dtype=np.int64)
        if table:
            bad = [peer for peer in table if not 0 <= peer < self.nranks]
            if bad:
                # numpy would fold a negative key onto a real rank's row
                raise DrainError(
                    f"rank {self.rank}: counter entry for peer {bad[0]} "
                    f"is outside the world [0, {self.nranks}); counter "
                    "accounting is broken"
                )
            rows[list(table)] = list(table.values())
        return rows

    def snapshot(self) -> dict:
        # the image keeps four dense lists: image bytes feed the
        # checkpoint cost model, so a sparse image is a model decision
        sent = self._dense(self.sent)
        received = self._dense(self.received)
        return {
            "sent": sent[:, 0].tolist(),
            "received": received[:, 0].tolist(),
            "sent_msgs": sent[:, 1].tolist(),
            "received_msgs": received[:, 1].tolist(),
        }

    def restore(self, snap: dict) -> None:
        for key in ("sent", "received", "sent_msgs", "received_msgs"):
            if len(snap[key]) != self.nranks:
                raise RestartError(
                    f"rank {self.rank}: counter snapshot {key!r} covers a "
                    f"world of {len(snap[key])} ranks, this job has "
                    f"{self.nranks}: the image belongs to a different job"
                )
        # a peer has an entry iff a message was ever counted for it;
        # its bytes may still be zero (barrier tokens, empty payloads)
        self.sent = _sparse(snap["sent"], snap["sent_msgs"])
        self.received = _sparse(snap["received"], snap["received_msgs"])


def _totals(table: Dict[int, List[int]]) -> tuple:
    entries = table.values()
    return (sum(e[0] for e in entries), sum(e[1] for e in entries))


def _sparse(nbytes: List[int], msgs: List[int]) -> Dict[int, List[int]]:
    return {peer: [nbytes[peer], n] for peer, n in enumerate(msgs) if n}
