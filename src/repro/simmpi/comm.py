"""Real communicators (lower-half objects).

A :class:`RealComm` is the library-side object whose identity does *not*
survive a restart: a fresh library instance allocates fresh context IDs,
which is exactly why MANA virtualizes communicators.  Like MPICH, each
communicator carries two context IDs — one for application point-to-point
traffic and one for collective-internal traffic — so a collective's
internal messages can never match an application receive.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import MpiInvalidHandle
from repro.simmpi.group import Group


class RealComm:
    """One intra-communicator, shared by all member ranks in the simulator.

    Per-rank state (the collective sequence number used to tag each
    collective operation's internal messages) is kept in per-rank dicts;
    real MPI keeps it in per-process memory, but the semantics are the
    same: collectives must be issued in the same order by every member,
    so equal sequence numbers identify the same collective instance.
    """

    __slots__ = (
        "pt2pt_ctx",
        "coll_ctx",
        "group",
        "_coll_seq",
        "freed",
        "name",
        "schedules",
    )

    def __init__(self, pt2pt_ctx: int, coll_ctx: int, group: Group, name: str = ""):
        self.pt2pt_ctx = pt2pt_ctx
        self.coll_ctx = coll_ctx
        self.group = group
        self._coll_seq: Dict[int, int] = {wr: 0 for wr in group.world_ranks}
        self.freed = False
        self.name = name or f"comm#{pt2pt_ctx}"
        #: collective round schedules, ``(plan, me, root)`` -> rounds
        #: (see :func:`repro.simmpi.collectives.schedule`)
        self.schedules: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.group.size

    def rank_of(self, world_rank: int) -> int:
        r = self.group.rank_of(world_rank)
        if not isinstance(r, int):
            raise MpiInvalidHandle(
                f"world rank {world_rank} is not a member of {self.name}"
            )
        return r

    def world_rank(self, local_rank: int) -> int:
        return self.group.world_rank(local_rank)

    def check_alive(self) -> None:
        if self.freed:
            raise MpiInvalidHandle(f"{self.name} has been freed")

    # ------------------------------------------------------------------
    def next_coll_seq(self, world_rank: int) -> int:
        """Allocate this rank's next collective sequence number.

        Matching sequence numbers across member ranks identify one
        collective instance; they parameterize the internal message tags
        and are also what the MANA coordinator compares when equalizing
        collective progress before a checkpoint (Section III-K).
        """
        seq = self._coll_seq[world_rank]
        self._coll_seq[world_rank] = seq + 1
        return seq

    def __repr__(self) -> str:
        return (
            f"<RealComm {self.name} ctx={self.pt2pt_ctx}/{self.coll_ctx} "
            f"size={self.size}{' FREED' if self.freed else ''}>"
        )
