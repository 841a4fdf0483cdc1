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

from typing import Dict, List

from repro.errors import DrainError


class PairwiseCounters:
    """One rank's view: bytes sent to / received from every world rank."""

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.sent: List[int] = [0] * nranks
        self.received: List[int] = [0] * nranks
        #: message counts, kept alongside bytes for diagnostics
        self.sent_msgs: List[int] = [0] * nranks
        self.received_msgs: List[int] = [0] * nranks

    def on_send(self, dst_world: int, nbytes: int) -> None:
        self.sent[dst_world] += nbytes
        self.sent_msgs[dst_world] += 1

    def on_receive(self, src_world: int, nbytes: int) -> None:
        self.received[src_world] += nbytes
        self.received_msgs[src_world] += 1

    def total_sent(self) -> tuple:
        return (sum(self.sent), sum(self.sent_msgs))

    def total_received(self) -> tuple:
        return (sum(self.received), sum(self.received_msgs))

    def sent_pairs(self) -> List[tuple]:
        """(bytes, messages) sent to each peer — what the drain's
        alltoall exchanges.  Message counts matter independently of
        bytes: zero-byte messages (barrier tokens, empty payloads) are
        invisible to byte accounting alone."""
        return list(zip(self.sent, self.sent_msgs))

    def deficit_from(self, expected_from_each: List[tuple]) -> Dict[int, tuple]:
        """Given each peer's (sent-to-me bytes, messages) from the
        alltoall, return {peer: (missing bytes, missing messages)} for
        peers we have not fully heard."""
        heard = list(zip(self.received, self.received_msgs))
        if heard == expected_from_each:
            return {}  # the usual answer, found without a Python-level loop
        out: Dict[int, tuple] = {}
        for peer, (expected, got) in enumerate(zip(expected_from_each, heard)):
            miss_bytes = expected[0] - got[0]
            miss_msgs = expected[1] - got[1]
            if miss_bytes < 0 or miss_msgs < 0:
                raise DrainError(
                    f"received more than world rank {peer} reports sending "
                    f"({-miss_bytes} bytes / {-miss_msgs} messages over); "
                    "counter accounting is broken"
                )
            if miss_bytes > 0 or miss_msgs > 0:
                out[peer] = (miss_bytes, miss_msgs)
        return out

    def snapshot(self) -> dict:
        return {
            "sent": list(self.sent),
            "received": list(self.received),
            "sent_msgs": list(self.sent_msgs),
            "received_msgs": list(self.received_msgs),
        }

    def restore(self, snap: dict) -> None:
        self.sent = list(snap["sent"])
        self.received = list(snap["received"])
        self.sent_msgs = list(snap["sent_msgs"])
        self.received_msgs = list(snap["received_msgs"])
