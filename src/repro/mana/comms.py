"""Communicator virtualization (paper Sections II-C and III-C).

The application holds *virtual* communicator IDs; MANA maps them to real
lower-half communicators and rebinds the mapping at restart.  Two restart
strategies are implemented:

* ``REPLAY_LOG`` (original MANA): every communicator-creating call is
  recorded and the whole log is replayed at restart — dead communicators
  get recreated, nothing can ever be retired.
* ``ACTIVE_LIST`` (MANA-2.0): only a list of live communicators is kept;
  each is rebuilt directly from its group membership ("a knowledge of
  the underlying MPI group and its members suffices to recreate a
  semantically identical communicator").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ManaError
from repro.mana.config import CommReconstruction
from repro.mana.gid import comm_gid_from_world_ranks
from repro.mana.vtables import VirtualTable
from repro.simmpi.comm import RealComm


@dataclass
class CommMeta:
    """Upper-half knowledge about one virtual communicator.

    Everything needed to recreate the real communicator after restart:
    the member world ranks (hence the group), the Section III-K globally
    unique ID, and lineage for log replay.
    """

    vid: int
    world_ranks: Tuple[int, ...]
    gid: int
    name: str
    #: the owning rank's own index in ``world_ranks`` — its comm-local
    #: rank; derived, so it is not part of the image
    me: int
    freed: bool = False
    #: MANA-level collective sequence counter for the PT2PT_ALWAYS
    #: alternative collective implementation (upper-half state: it must
    #: survive restart, unlike the lower half's counters)
    mana_coll_seq: int = 0


@dataclass
class CreationRecord:
    """One entry of the communicator-creation log (REPLAY_LOG restart)."""

    op: str                      # "dup" | "split" | "create"
    parent_vid: int
    result_vid: int
    args: Dict[str, Any] = field(default_factory=dict)


class VirtualCommManager:
    """One rank's communicator tables, active list, and creation log."""

    def __init__(self, binding, rank: int):
        self._cfg = binding.cfg
        #: the world rank these tables belong to
        self.rank = rank
        self.table: VirtualTable[RealComm] = VirtualTable("vcomm", binding)
        self.meta: Dict[int, CommMeta] = {}
        self.creation_log: List[CreationRecord] = []
        self.world_vid: Optional[int] = None

    # ------------------------------------------------------------------
    def register(
        self,
        real: RealComm,
        name: str,
        record: Optional[CreationRecord] = None,
    ) -> Tuple[int, float]:
        """Virtualize a new real communicator; returns (vid, cost)."""
        vid, cost = self.table.create(real)
        world_ranks = tuple(real.group.world_ranks)
        self.meta[vid] = CommMeta(
            vid=vid,
            world_ranks=world_ranks,
            gid=comm_gid_from_world_ranks(world_ranks),
            name=name,
            me=world_ranks.index(self.rank),
        )
        if record is not None:
            record.result_vid = vid
            self.creation_log.append(record)
        return vid, cost

    def register_world(self, real: RealComm) -> int:
        vid, _ = self.register(real, "MPI_COMM_WORLD")
        self.world_vid = vid
        return vid

    # ------------------------------------------------------------------
    def lookup(self, vid: int) -> Tuple[RealComm, float]:
        real, cost = self.table.lookup(vid)
        if not isinstance(real, RealComm):
            raise ManaError(
                f"vcomm {vid} is not bound to a real communicator "
                "(restart rebind incomplete?)"
            )
        return real, cost

    def free(self, vid: int) -> float:
        """Retire a communicator (MANA-2.0 can; original cannot).

        Under REPLAY_LOG the mapping must be kept alive forever — the
        table keeps growing, which is Section III-C's complaint.
        """
        meta = self.meta[vid]
        if meta.freed:
            raise ManaError(f"vcomm {vid} freed twice")
        meta.freed = True
        if self._cfg.comm_reconstruction is CommReconstruction.ACTIVE_LIST:
            return self.table.delete(vid)
        return 0.0

    # ------------------------------------------------------------------
    def active_metas(self) -> List[CommMeta]:
        """Live communicators, world first then by vid (restart order)."""
        metas = [m for m in self.meta.values() if not m.freed]
        metas.sort(key=lambda m: (m.vid != self.world_vid, m.vid))
        return metas

    def active_count(self) -> int:
        return sum(1 for m in self.meta.values() if not m.freed)

    def gid_members(self) -> Dict[int, Tuple[int, ...]]:
        """gid -> member world ranks, for every live communicator this
        rank belongs to (reported to the coordinator at checkpoint)."""
        return {m.gid: m.world_ranks for m in self.meta.values() if not m.freed}

    # ------------------------------------------------------------------
    # checkpoint / restart support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "meta": {
                vid: {
                    "vid": m.vid,
                    "world_ranks": m.world_ranks,
                    "gid": m.gid,
                    "name": m.name,
                    "freed": m.freed,
                    "mana_coll_seq": m.mana_coll_seq,
                }
                for vid, m in self.meta.items()
            },
            "creation_log": [
                {"op": r.op, "parent_vid": r.parent_vid,
                 "result_vid": r.result_vid, "args": r.args}
                for r in self.creation_log
            ],
            "world_vid": self.world_vid,
        }

    def restore(self, snap: dict) -> None:
        self.meta = {
            int(vid): CommMeta(**m, me=m["world_ranks"].index(self.rank))
            for vid, m in snap["meta"].items()
        }
        self.creation_log = [CreationRecord(**r) for r in snap["creation_log"]]
        self.world_vid = snap["world_vid"]
        if self.meta:  # never hand out a vid that exists in the image
            self.table._next_id = max(
                self.table._next_id, max(self.meta) + 1
            )

    def rebind(self, vid: int, real: RealComm) -> None:
        if vid in self.table:
            self.table.rebind(vid, real)
        else:  # REPLAY_LOG keeps freed vids mapped; ACTIVE_LIST dropped them
            self.table._table[vid] = real  # direct re-insert, same vid
