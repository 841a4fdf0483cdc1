"""Wire message envelope."""

from __future__ import annotations

import itertools
from typing import Any

_msg_ids = itertools.count(1)


class Message:
    """One point-to-point message in the fabric.

    ``src``/``dst`` are world ranks; ``context_id`` identifies the
    communicator (or an internal collective context) so that matching in
    the MPI engine is per-communicator as the standard requires.  ``tag``
    carries the application or algorithm tag.  ``nbytes`` is the payload
    wire size used both by the cost model and by MANA's per-pair byte
    counters; it is computed once at send time so the sender's counter
    and the receiver's counter can never disagree.

    A plain ``__slots__`` class (not a dataclass): one is allocated per
    point-to-point message, so construction is on the simulator's hot
    path.  Identity comparison is intentional — the fabric's FIFO check
    compares heads by ``is``.
    """

    __slots__ = ("src", "dst", "context_id", "tag", "payload", "nbytes",
                 "injected_at", "msg_id")

    def __init__(self, src: int, dst: int, context_id: int, tag: int,
                 payload: Any, nbytes: int, injected_at: float = 0.0,
                 msg_id: int | None = None):
        self.src = src
        self.dst = dst
        self.context_id = context_id
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.injected_at = injected_at
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Msg #{self.msg_id} {self.src}->{self.dst} ctx={self.context_id} "
            f"tag={self.tag} {self.nbytes}B>"
        )
