"""The rewrite-pass framework and the standard passes.

A pass maps an :class:`~repro.ir.ops.IrProgram` to a new program plus a
stats dict (what it did, for trace events and the CLI).  Pipelines run
passes in order and validate the cardinal invariant after each one: the
serving-call count never changes — replay must answer exactly as many
wrapper calls as the source log recorded, or the replay-to-live
transition fires at the wrong call.

Standard pipeline (``default_pipeline``):

1. :class:`FoldCosts` — constant-folded costing: annotate every serving
   op with the live-pipeline cost it skips (from the costing layer's
   memo, supplied by the bridge) and clear the per-op ``yield_after``
   (replay ops are zero-time, so no interpreter yields for them either
   way; the flag matters only to an op that carries a cost).
2. :class:`BatchCollectives` — fuse runs of consecutive identity-
   materialized collectives on the same communicator into one
   :class:`~repro.ir.ops.CollectiveBatchOp`.
3. :class:`DeadOpElim` — replace identity ops whose recorded result is
   ``None`` (never observed by the application) with
   :class:`~repro.ir.ops.DeadOp`, keeping only the opname for
   divergence checking.
4. :class:`DrainCheck` — analysis only: send/recv posting imbalance
   across the checkpoint boundary (a first step toward static drain
   analysis; see ROADMAP).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir.ops import (
    KIND_COLLECTIVE,
    CallOp,
    CollectiveBatchOp,
    ConstOp,
    DeadOp,
    IrOp,
    IrProgram,
)


class PassResult:
    """What one pass produced: the rewritten program + its stats."""

    __slots__ = ("program", "stats")

    def __init__(self, program: IrProgram, stats: Dict[str, Any]):
        self.program = program
        self.stats = stats


class IrPass:
    """Base pass: subclasses override :meth:`run`."""

    name = "pass"

    def run(self, program: IrProgram) -> PassResult:
        raise NotImplementedError


class PassPipeline:
    """Run passes in order, validating the call-count invariant after
    each; ``observe(name, stats)`` is called per pass (the bridge hooks
    trace emission here)."""

    def __init__(self, passes: Sequence[IrPass] = ()):
        self.passes: Tuple[IrPass, ...] = tuple(passes)

    def run(
        self,
        program: IrProgram,
        observe: Optional[Callable[[str, Dict[str, Any]], None]] = None,
    ) -> Tuple[IrProgram, List[Tuple[str, Dict[str, Any]]]]:
        stats_log: List[Tuple[str, Dict[str, Any]]] = []
        for p in self.passes:
            res = p.run(program)
            res.program.validate()
            program = res.program
            stats_log.append((p.name, res.stats))
            if observe is not None:
                observe(p.name, res.stats)
        return program, stats_log


def noop_pipeline() -> PassPipeline:
    """The identity pipeline: lowering + interpretation only (the
    bit-identity reference configuration)."""
    return PassPipeline(())


def default_pipeline(
    live_cost_fn: Optional[Callable[[str], float]] = None,
) -> PassPipeline:
    """The standard optimizing pipeline (see module docstring)."""
    return PassPipeline((
        FoldCosts(live_cost_fn=live_cost_fn),
        BatchCollectives(),
        DeadOpElim(),
        DrainCheck(),
    ))


# ----------------------------------------------------------------------
class FoldCosts(IrPass):
    """Constant-folded costing.

    Replayed calls cost zero virtual time (that is REEXEC's contract —
    pre-checkpoint work already happened), so the *replay* cost stays
    0.0; what this pass folds in is (a) the live-pipeline cost each op
    would have paid, resolved once per opname from the costing layer's
    memo table (the bridge supplies ``live_cost_fn``), and (b) the
    knowledge that a zero-cost op needs no yield (``yield_after`` is
    cleared).  A zero-cost step never reaches the scheduler in any
    interpreter, so virtual times and event counts are unchanged.
    """

    name = "fold_costs"

    def __init__(self, live_cost_fn: Optional[Callable[[str], float]] = None):
        self.live_cost_fn = live_cost_fn
        #: opname -> live cost, shared across runs (a job compiles one
        #: program per rank against the same config and machine)
        self._memo: Dict[str, float] = {}

    def run(self, program: IrProgram) -> PassResult:
        fn = self.live_cost_fn
        memo = self._memo
        seen = set()
        ops: List[IrOp] = []
        skipped = 0.0
        for op in program.ops:
            if op.is_control:
                ops.append(op)
                continue
            live = 0.0
            if fn is not None:
                seen.add(op.opname)
                live = memo.get(op.opname)
                if live is None:
                    live = memo[op.opname] = fn(op.opname)
            skipped += live * op.width
            t = type(op)
            if t is ConstOp or t is CallOp:
                # positional fast path: this pass touches every serving
                # op of every rank, so skip replace()'s kwargs plumbing
                ops.append(t(op.opname, op.seq, op.rank, op.comm_gid,
                             op.result, op.cost, live, False, op.kind))
            else:
                ops.append(op.replace(live_cost=live, yield_after=False))
        return PassResult(
            program.with_ops(ops),
            {"folded": len(ops), "distinct_opnames": len(seen),
             "live_cost_skipped": skipped},
        )


class BatchCollectives(IrPass):
    """Fuse runs of consecutive same-communicator collectives.

    Eligible ops are identity-materialized collectives (:class:`ConstOp`
    with the collective kind): they have no slot side effects, so a
    fused batch can serve their recorded results one wrapper call at a
    time while interacting with the scheduler once.  The batch key is
    the op's ``comm_gid``; collective results do not record membership,
    so the GID is usually unresolved (``None``) and a run of unresolved
    collectives batches together — safe, because replay serves values
    in call order with divergence checking and performs no
    communication, so the fusion never crosses a call boundary the
    application could observe.
    """

    name = "batch_collectives"

    def __init__(self, min_run: int = 2):
        self.min_run = min_run

    @staticmethod
    def _eligible(op: IrOp) -> bool:
        return (type(op) is ConstOp and op.kind == KIND_COLLECTIVE)

    def run(self, program: IrProgram) -> PassResult:
        ops: List[IrOp] = []
        batches = 0
        fused = 0
        run: List[IrOp] = []

        def flush():
            nonlocal batches, fused
            if len(run) >= self.min_run:
                first = run[0]
                ops.append(CollectiveBatchOp(
                    seq=first.seq,
                    rank=first.rank,
                    comm_gid=first.comm_gid,
                    cost=sum(o.cost for o in run),
                    live_cost=sum(o.live_cost for o in run),
                    yield_after=any(o.yield_after for o in run),
                    opnames=tuple(o.opname for o in run),
                    results=tuple(o.result for o in run),
                ))
                batches += 1
                fused += len(run)
            else:
                ops.extend(run)
            run.clear()

        for op in program.ops:
            if self._eligible(op):
                if run and run[-1].comm_gid != op.comm_gid:
                    flush()
                run.append(op)
            else:
                flush()
                ops.append(op)
        flush()
        return PassResult(
            program.with_ops(ops),
            {"batches": batches, "fused_calls": fused},
        )


class DeadOpElim(IrPass):
    """Dead-op elimination (log compaction).

    An identity-materialized op whose recorded result is ``None``
    produces nothing the application observes — ``send``, ``barrier``,
    ``comm_free``, ``free_mem``, ``start`` all record ``None`` — so
    replay need not carry its record: a :class:`DeadOp` keeps only the
    opname (divergence checking still works) and serves ``None``
    without touching the result table.
    """

    name = "dead_op_elim"

    def run(self, program: IrProgram) -> PassResult:
        ops: List[IrOp] = []
        removed = 0
        for op in program.ops:
            if type(op) is ConstOp and op.result is None:
                ops.append(DeadOp(op.opname, op.seq, op.rank, op.comm_gid,
                                  None, op.cost, op.live_cost,
                                  op.yield_after, op.kind))
                removed += 1
            else:
                ops.append(op)
        return PassResult(program.with_ops(ops), {"eliminated": removed})


#: wrapper calls that post a send / a receive toward the network (a
#: ``sendrecv`` posts both); mirrors the mana layer's PT2PT families
SEND_POSTING = frozenset({"send", "isend", "sendrecv", "send_init"})
RECV_POSTING = frozenset({"recv", "irecv", "sendrecv", "recv_init"})


def _recorded_sources(result: Any):
    """Yield the resolved source ranks of any Status-like records inside
    a recorded result.

    Receive-family results materialize as ``(payload, Status)`` tuples
    (``recv``/``wait``) or lists of them (``waitall``); the Status is
    duck-typed (``source``/``tag``/``count`` attributes) because this
    layer must not import the simulator's MPI types (layering rule 5).
    """
    stack = [result]
    while stack:
        item = stack.pop()
        if isinstance(item, (tuple, list)):
            stack.extend(item)
        elif (hasattr(item, "source") and hasattr(item, "tag")
              and hasattr(item, "count")):
            src = item.source
            if isinstance(src, int):
                yield src


class DrainCheck(IrPass):
    """Analysis-only: send/recv posting imbalance at the boundary.

    The program *is* the pre-checkpoint history, so counting posted
    sends vs posted receives per rank approximates what the drain had
    to capture at the checkpoint: a rank whose log posts more sends
    than receives relied on peers (or the drain's buffered messages) to
    absorb the difference.  This pass only reports — it is the first
    step toward the ROADMAP's static drain/deadlock analysis.  Use
    :func:`drain_report` to aggregate across ranks, where a nonzero
    *global* imbalance means messages were in flight (or buffered by
    the drain) at the cut.

    With ``elastic_world`` set (the rank count of a planned elastic
    restart), the pass additionally flags recorded receives whose
    resolved source rank would not exist in the shrunken world:
    ``source >= elastic_world``.  Those records are evidence the log's
    communication pattern depends on ranks the new world lacks — replay
    itself still works (recorded results are served, not re-matched),
    but it tells an operator that a *replay-based* elastic restart could
    never reproduce this traffic, which is why elastic restart goes
    through app-level re-decomposition instead.
    """

    name = "drain_check"

    def __init__(self, elastic_world: Optional[int] = None):
        self.elastic_world = elastic_world

    def run(self, program: IrProgram) -> PassResult:
        sends = 0
        recvs = 0
        per_op: Dict[str, int] = {}
        def count(name: str) -> None:
            nonlocal sends, recvs
            posted = False
            if name in SEND_POSTING:
                sends += 1
                posted = True
            if name in RECV_POSTING:
                recvs += 1
                posted = True
            if posted:
                per_op[name] = per_op.get(name, 0) + 1

        world = self.elastic_world
        unmatchable: List[Dict[str, Any]] = []
        for op in program.ops:
            if op.is_control:
                continue
            if op.is_batch:
                for name in op.opnames:
                    count(name)
                if world is not None:
                    for name, res in zip(op.opnames, op.results):
                        for src in _recorded_sources(res):
                            if src >= world:
                                unmatchable.append({
                                    "opname": name, "seq": op.seq,
                                    "source": src,
                                })
            else:
                count(op.opname)
                if world is not None:
                    for src in _recorded_sources(op.result):
                        if src >= world:
                            unmatchable.append({
                                "opname": op.opname, "seq": op.seq,
                                "source": src,
                            })
        stats: Dict[str, Any] = {
            "sends_posted": sends,
            "recvs_posted": recvs,
            "imbalance": sends - recvs,
            "posting_ops": per_op,
        }
        if world is not None:
            stats["elastic_world"] = world
            stats["unmatchable_recvs"] = len(unmatchable)
            stats["unmatchable"] = unmatchable
        return PassResult(program, stats)


def drain_report(
    programs: Dict[int, IrProgram],
    elastic_world: Optional[int] = None,
) -> Dict[str, Any]:
    """Aggregate :class:`DrainCheck` over a whole job's programs; pass
    ``elastic_world`` to also flag receives no rank of a shrunken world
    could ever have matched."""
    per_rank = {}
    total_sends = 0
    total_recvs = 0
    total_unmatchable = 0
    check = DrainCheck(elastic_world=elastic_world)
    for rank in sorted(programs):
        stats = check.run(programs[rank]).stats
        per_rank[rank] = {
            "sends_posted": stats["sends_posted"],
            "recvs_posted": stats["recvs_posted"],
            "imbalance": stats["imbalance"],
        }
        if elastic_world is not None:
            per_rank[rank]["unmatchable_recvs"] = stats["unmatchable_recvs"]
            total_unmatchable += stats["unmatchable_recvs"]
        total_sends += stats["sends_posted"]
        total_recvs += stats["recvs_posted"]
    out = {
        "per_rank": per_rank,
        "sends_posted": total_sends,
        "recvs_posted": total_recvs,
        #: > 0: sends the logs never matched with a posted receive —
        #: in flight or drain-buffered at the checkpoint cut
        "would_be_undrained": total_sends - total_recvs,
    }
    if elastic_world is not None:
        out["elastic_world"] = elastic_world
        out["unmatchable_recvs"] = total_unmatchable
    return out
