"""Declarative call descriptors: what each MPI entry point *is*.

``wrappers.py`` no longer hand-inlines per-call logic; each wrapper is a
row in these tables.  A :class:`CallSpec` names the semantic family the
pipeline lowers the call through and the prologue the gate owes it; the
family-specific descriptors (:class:`CollectiveDesc`,
:class:`IcollDesc`, :class:`CommMgmtDesc`) carry the only things that
differ between calls of a family — which lower-half primitive to issue
and what to log for replay.

``args`` dicts flow through the descriptors untyped on purpose: the
lowering skeletons are generic over the call's payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.mana.comms import CreationRecord
from repro.simmpi import collectives as coll


@dataclass(frozen=True)
class CollectiveDesc:
    """One blocking collective: its lower-half call and its Section
    III-E point-to-point alternative, the same algorithm run by the
    upper half's executor."""

    name: str
    #: (lib, task, real_comm, args) -> generator
    lib: Callable[..., Any]
    #: (run, at, me, nranks, args) -> generator: the algorithm of
    #: repro.simmpi.collectives, handed the executor ``run`` and its state
    alt: Optional[Callable[..., Any]] = None


@dataclass(frozen=True)
class IcollDesc:
    """One non-blocking collective: replay-record fields + issue call."""

    name: str
    #: args -> IcollRecord kwargs (payload snapshot happens downstream)
    record: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: (lib, task, real_comm, args) -> generator returning the request
    issue: Callable[..., Any]


@dataclass(frozen=True)
class CommMgmtDesc:
    """One communicator-creating collective."""

    name: str
    op: str
    #: (lib, task, real_comm, args) -> generator returning the new real
    call: Callable[..., Any]
    #: (parent_vid, args) -> CreationRecord
    record: Callable[[int, Dict[str, Any]], CreationRecord]
    #: pre-prologue hook (may stash derived state in args); sees the
    #: parent's *pre-restart* real communicator
    prepare: Optional[Callable[..., None]] = None
    #: the call may return COMM_NULL for non-members
    nullable: bool = False


@dataclass(frozen=True)
class CallSpec:
    """One wrapper entry point, declaratively."""

    name: str
    #: SemanticLowering method that lowers this call
    handler: str
    #: count the wrapper invocation before anything else runs
    count: bool = True
    #: run the TwoPhaseGate safe point before the handler
    checkin: bool = False
    #: family payload handed to the handler (collective/icoll/comm_mgmt)
    desc: Any = None


# ----------------------------------------------------------------------
# blocking collectives (Sections III-D/III-E/III-J..L)
# ----------------------------------------------------------------------
COLLECTIVE_DESCS: Dict[str, CollectiveDesc] = {
    d.name: d
    for d in (
        CollectiveDesc(
            "barrier",
            lib=lambda lib, task, real, a: lib.barrier(task, real),
            alt=lambda run, at, me, p, a: coll.barrier(run, at, me),
        ),
        CollectiveDesc(
            "bcast",
            lib=lambda lib, task, real, a: lib.bcast(task, real, a["data"], a["root"]),
            alt=lambda run, at, me, p, a: coll.bcast(
                run, at, me, a["data"], a["root"]),
        ),
        CollectiveDesc(
            "reduce",
            lib=lambda lib, task, real, a: lib.reduce(
                task, real, a["data"], a["op"], a["root"]
            ),
            alt=lambda run, at, me, p, a: coll.reduce_(
                run, at, me, a["data"], a["op"], a["root"]),
        ),
        CollectiveDesc(
            "allreduce",
            lib=lambda lib, task, real, a: lib.allreduce(task, real, a["data"], a["op"]),
            alt=lambda run, at, me, p, a: coll.allreduce(
                run, at, me, a["data"], a["op"]),
        ),
        CollectiveDesc(
            "gather",
            lib=lambda lib, task, real, a: lib.gather(task, real, a["data"], a["root"]),
            alt=lambda run, at, me, p, a: coll.gather(
                run, at, me, a["data"], a["root"]),
        ),
        CollectiveDesc(
            "scatter",
            lib=lambda lib, task, real, a: lib.scatter(task, real, a["data"], a["root"]),
            alt=lambda run, at, me, p, a: coll.scatter(
                run, at, me, p, a["data"], a["root"]),
        ),
        CollectiveDesc(
            "allgather",
            lib=lambda lib, task, real, a: lib.allgather(task, real, a["data"]),
            alt=lambda run, at, me, p, a: coll.allgather(run, at, me, a["data"]),
        ),
        CollectiveDesc(
            "alltoall",
            lib=lambda lib, task, real, a: lib.alltoall(task, real, a["data"]),
            alt=lambda run, at, me, p, a: coll.alltoall(run, at, me, p, a["data"]),
        ),
        CollectiveDesc(
            "scan",
            lib=lambda lib, task, real, a: lib.scan(task, real, a["data"], a["op"]),
            alt=lambda run, at, me, p, a: coll.scan(
                run, at, me, a["data"], a["op"]),
        ),
        CollectiveDesc(
            "reduce_scatter_block",
            lib=lambda lib, task, real, a: lib.reduce_scatter_block(
                task, real, a["data"], a["op"]
            ),
            alt=lambda run, at, me, p, a: coll.reduce_scatter_block(
                run, at, me, p, a["data"], a["op"]),
        ),
    )
}

# ----------------------------------------------------------------------
# non-blocking collectives: log-and-replay (Section III-I item 4)
# ----------------------------------------------------------------------
ICOLL_DESCS: Dict[str, IcollDesc] = {
    d.name: d
    for d in (
        IcollDesc(
            "ibarrier",
            record=lambda a: {},
            issue=lambda lib, task, real, a: lib.ibarrier(task, real),
        ),
        IcollDesc(
            "ibcast",
            record=lambda a: {"payload": a["data"], "root": a["root"]},
            issue=lambda lib, task, real, a: lib.ibcast(task, real, a["data"], a["root"]),
        ),
        IcollDesc(
            "ireduce",
            record=lambda a: {
                "payload": a["data"], "root": a["root"], "red_op": a["op"].name,
            },
            issue=lambda lib, task, real, a: lib.ireduce(
                task, real, a["data"], a["op"], a["root"]
            ),
        ),
        IcollDesc(
            "iallreduce",
            record=lambda a: {"payload": a["data"], "red_op": a["op"].name},
            issue=lambda lib, task, real, a: lib.iallreduce(
                task, real, a["data"], a["op"]
            ),
        ),
        IcollDesc(
            "ialltoall",
            record=lambda a: {"payload": a["data"]},
            issue=lambda lib, task, real, a: lib.ialltoall(task, real, a["data"]),
        ),
        IcollDesc(
            "iallgather",
            record=lambda a: {"payload": a["data"]},
            issue=lambda lib, task, real, a: lib.iallgather(task, real, a["data"]),
        ),
    )
}


# ----------------------------------------------------------------------
# communicator management (collective on the parent)
# ----------------------------------------------------------------------
def _prepare_comm_create(api, real, a) -> None:
    # the group is derived from the parent as seen *before* the gate: a
    # restart inside the prologue rebinds the real comm, but membership
    # is identical by construction
    a["group"] = real.group.incl(list(a["ranks"]))


COMM_MGMT_DESCS: Dict[str, CommMgmtDesc] = {
    d.name: d
    for d in (
        CommMgmtDesc(
            "comm_split",
            op="split",
            call=lambda lib, task, real, a: lib.comm_split(
                task, real, a["color"], a["key"]
            ),
            record=lambda vid, a: CreationRecord(
                op="split", parent_vid=vid, result_vid=-1,
                args={"color": a["color"], "key": a["key"]},
            ),
            nullable=True,
        ),
        CommMgmtDesc(
            "comm_dup",
            op="dup",
            call=lambda lib, task, real, a: lib.comm_dup(task, real),
            record=lambda vid, a: CreationRecord(
                op="dup", parent_vid=vid, result_vid=-1
            ),
        ),
        CommMgmtDesc(
            "comm_create",
            op="create",
            call=lambda lib, task, real, a: lib.comm_create(task, real, a["group"]),
            record=lambda vid, a: CreationRecord(
                op="create", parent_vid=vid, result_vid=-1,
                args={"group": tuple(a["group"].world_ranks)},
            ),
            prepare=_prepare_comm_create,
            nullable=True,
        ),
    )
}


# ----------------------------------------------------------------------
# the registry: every MPI entry point the wrapper library exposes
# ----------------------------------------------------------------------
def _specs() -> Dict[str, CallSpec]:
    table: Dict[str, CallSpec] = {}

    def add(spec: CallSpec) -> None:
        table[spec.name] = spec

    # point-to-point
    add(CallSpec("isend", handler="isend", checkin=True))
    add(CallSpec("send", handler="send", checkin=True))
    add(CallSpec("irecv", handler="irecv", checkin=True))
    add(CallSpec("recv", handler="recv", checkin=True))
    add(CallSpec("sendrecv", handler="sendrecv", checkin=True))
    add(CallSpec("iprobe", handler="iprobe", checkin=True))
    add(CallSpec("probe", handler="probe"))
    # completion (Wait-family loops own their blocked check-in policy)
    add(CallSpec("test", handler="test", checkin=True))
    add(CallSpec("wait", handler="wait"))
    add(CallSpec("waitall", handler="waitall"))
    add(CallSpec("waitany", handler="waitany"))
    add(CallSpec("testany", handler="testany", checkin=True))
    add(CallSpec("testall", handler="testall", checkin=True))
    # persistent point-to-point
    add(CallSpec("send_init", handler="send_init", checkin=True))
    add(CallSpec("recv_init", handler="recv_init", checkin=True))
    add(CallSpec("start", handler="start", checkin=True))
    add(CallSpec("request_free", handler="request_free", checkin=True))
    # blocking collectives (the gate's horizon prologue runs inside the
    # skeleton, after communicator translation)
    for name, desc in COLLECTIVE_DESCS.items():
        add(CallSpec(name, handler="blocking_collective", desc=desc))
    # non-blocking collectives (count after the virtualization check,
    # exactly like the paper's unsupported-feature error path)
    for name, desc in ICOLL_DESCS.items():
        add(CallSpec(name, handler="icoll", count=False, desc=desc))
    # communicator management
    for name, desc in COMM_MGMT_DESCS.items():
        add(CallSpec(name, handler="comm_mgmt", desc=desc))
    # comm_free runs the gate's horizon prologue inside the handler
    # (it is collective on the freed communicator)
    add(CallSpec("comm_free", handler="comm_free"))
    # memory (MPI_Alloc_mem -> upper-half malloc)
    add(CallSpec("alloc_mem", handler="alloc_mem"))
    add(CallSpec("free_mem", handler="free_mem"))
    return table


CALL_SPECS: Dict[str, CallSpec] = _specs()
