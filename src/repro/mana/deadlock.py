"""MPI-level deadlock detection — the paper's Section VI future work.

"The tools interface also represents an opportunity to provide a
deadlock detector, as one more component in a general fault-tolerant
ecosphere."  MANA already interposes on every MPI call, so it knows what
each rank is blocked on; this module turns that knowledge into a
waits-for analysis.

The graph has two edge flavours:

* **AND-dependencies** — a receive from a *specific* source needs that
  one rank to act; a rank inside a blocking collective needs *every*
  member that has not yet entered the instance.  Such a rank is
  deadlocked if *any* of its needed peers is deadlocked.
* **OR-dependencies** — a receive from ``MPI_ANY_SOURCE`` (or a waitany
  over several requests) can be satisfied by any of several peers; the
  rank is deadlocked only if *all* of them are.

Definite deadlocks are the greatest fixed point: start by assuming every
blocked rank is deadlocked, then repeatedly acquit ranks whose
dependencies can still be satisfied from outside the set.  What remains
is a knot that provably cannot make progress — reported with each
member's pending operation, which is exactly what the DES kernel's
"everything is parked" report cannot say at the MPI level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.mana.requests import NullMark, VReqKind
from repro.simmpi.constants import ANY_SOURCE
from repro.simmpi.request import RealRequest


@dataclass
class BlockedRank:
    """One rank's blocked state, as the analyzer sees it."""

    rank: int
    description: str
    #: ("and" | "or", set of world ranks whose action is needed)
    dep_kind: str = "and"
    deps: Set[int] = field(default_factory=set)


@dataclass
class DeadlockReport:
    """Result of one analysis pass."""

    deadlocked: List[BlockedRank]
    blocked: List[BlockedRank]
    at_time: float

    @property
    def is_deadlock(self) -> bool:
        return bool(self.deadlocked)

    def render(self) -> str:
        if not self.is_deadlock:
            return "no deadlock detected"
        lines = [f"DEADLOCK among ranks "
                 f"{sorted(b.rank for b in self.deadlocked)} "
                 f"at t={self.at_time:.6f}:"]
        for b in sorted(self.deadlocked, key=lambda x: x.rank):
            needs = ",".join(str(d) for d in sorted(b.deps))
            lines.append(
                f"  rank {b.rank}: {b.description} "
                f"(needs {b.dep_kind.upper()} of ranks [{needs}])"
            )
        return "\n".join(lines)


def _request_deps(mrank, entry) -> Tuple[str, Set[int], str]:
    """Dependencies of a pending request wait."""
    meta = mrank.vcomms.meta[entry.comm_vid]
    if entry.peer is ANY_SOURCE or entry.peer is None:
        others = set(meta.world_ranks) - {mrank.rank}
        return "or", others, (
            f"recv(ANY_SOURCE, tag={entry.tag}) on {meta.name}"
        )
    src_world = meta.world_ranks[entry.peer]
    return "and", {src_world}, (
        f"recv(source={entry.peer}/world {src_world}, tag={entry.tag}) "
        f"on {meta.name}"
    )


def analyze(rt) -> DeadlockReport:
    """One waits-for analysis pass over a ManaRuntime."""
    blocked: Dict[int, BlockedRank] = {}

    for mrank in rt.ranks:
        if mrank.finalized:
            continue
        if mrank.in_lower is not None:
            gid, inst = mrank.in_lower
            members = None
            for meta in mrank.vcomms.meta.values():
                if meta.gid == gid:
                    members = meta.world_ranks
                    name = meta.name
                    break
            if members is None:
                continue
            # needs every member that has not yet entered this instance
            needed = set()
            for peer in members:
                if peer == mrank.rank:
                    continue
                peer_m = rt.ranks[peer]
                if peer_m.in_lower == (gid, inst):
                    continue  # already participating
                if peer_m.blocking_counts.get(gid, 0) <= inst:
                    needed.add(peer)
            if needed:
                blocked[mrank.rank] = BlockedRank(
                    rank=mrank.rank,
                    description=f"inside collective #{inst} on {name}",
                    dep_kind="and",
                    deps=needed,
                )
            continue

        wait = getattr(mrank, "current_wait", None)
        if wait is None:
            continue
        kind, payload = wait
        if kind == "request":
            entry = payload
            if isinstance(entry.real, NullMark):
                continue  # satisfiable
            if isinstance(entry.real, RealRequest) and entry.real.done:
                continue  # satisfiable
            if entry.kind not in (VReqKind.IRECV, VReqKind.PRECV):
                continue  # icolls progress via helpers
            dep_kind, deps, desc = _request_deps(mrank, entry)
            blocked[mrank.rank] = BlockedRank(
                rank=mrank.rank, description=desc,
                dep_kind=dep_kind, deps=deps,
            )
        elif kind == "requests":  # waitany over several
            entries = payload
            deps: Set[int] = set()
            satisfiable = False
            descs = []
            for entry in entries:
                if isinstance(entry.real, NullMark) or (
                    isinstance(entry.real, RealRequest) and entry.real.done
                ):
                    satisfiable = True
                    break
                _k, d, desc = _request_deps(mrank, entry)
                deps |= d
                descs.append(desc)
            if not satisfiable and deps:
                blocked[mrank.rank] = BlockedRank(
                    rank=mrank.rank,
                    description="waitany[" + "; ".join(descs) + "]",
                    dep_kind="or",
                    deps=deps,
                )

    # a dependency on an in-flight or unexpected message is satisfiable:
    # acquit receives whose matching bytes are already on the way.
    # Only *application* point-to-point traffic counts (even context
    # IDs); collective-internal messages — e.g. a barrier round already
    # injected by a peer stuck in a pre-collective barrier — cannot
    # satisfy an application receive.
    def has_incoming(rank: int) -> bool:
        return bool(rt.network.app_in_flight(dst=rank)) or any(
            m.context_id % 2 == 0
            for m in rt.lib.endpoints[rank].unexpected
        )

    # greatest fixed point: acquit ranks whose deps can act
    deadlocked = {
        r: b for r, b in blocked.items() if not has_incoming(r)
    }
    changed = True
    while changed:
        changed = False
        for r, b in list(deadlocked.items()):
            alive_deps = [d for d in b.deps if d not in deadlocked]
            if b.dep_kind == "and":
                acquit = len(alive_deps) == len(b.deps)  # all deps can act
            else:
                acquit = bool(alive_deps)  # any dep can act
            if acquit:
                del deadlocked[r]
                changed = True

    return DeadlockReport(
        deadlocked=list(deadlocked.values()),
        blocked=list(blocked.values()),
        at_time=rt.sched.now,
    )


class DeadlockMonitor:
    """A daemon that samples the waits-for graph periodically.

    A knot must persist across two consecutive samples to be reported
    (one sample could race a message in delivery).  Reports accumulate
    on ``self.reports``; with ``raise_on_deadlock`` the monitor raises
    :class:`repro.errors.DeadlockError` with the MPI-level rendering.
    """

    def __init__(self, rt, interval: float = 1e-3,
                 raise_on_deadlock: bool = True):
        self.rt = rt
        self.interval = interval
        self.raise_on_deadlock = raise_on_deadlock
        self.reports: List[DeadlockReport] = []
        self._last_knot: Optional[frozenset] = None

    def body(self):
        from repro.des.syscalls import Advance
        from repro.errors import DeadlockError

        tracer = self.rt.sched.tracer
        while True:
            yield Advance(self.interval)
            if all(m.finalized for m in self.rt.ranks):
                return  # computation over; stop keeping the clock alive
            report = analyze(self.rt)
            knot = frozenset(b.rank for b in report.deadlocked)
            if tracer.enabled:
                tracer.emit(
                    "deadlock", "sample",
                    blocked=len(report.blocked),
                    deadlocked=sorted(knot),
                )
            if knot and knot == self._last_knot:
                self.reports.append(report)
                if self.raise_on_deadlock:
                    raise DeadlockError(
                        report.render(),
                        [(f"rank{b.rank}", b.description)
                         for b in report.deadlocked],
                    )
            self._last_knot = knot
