"""Unit tests for the trace-to-IR replay compiler (``repro.ir``).

The IR layer is pure (layering rule 5): these tests drive it with
hand-built logs and classifications, plus the bridge
(``repro.mana.ir_bridge``) where the contract spans layers — RECORDED_OPS
coverage, cost-model float equality.
"""

from __future__ import annotations

import pytest

from repro.errors import ManaError, RestartError
from repro.ir import OpClassification, ReplayCursor, lower_entries
from repro.ir.build import to_entries
from repro.ir.ops import (
    KIND_COLLECTIVE,
    KIND_CONTROL,
    KIND_PT2PT,
    AdvanceOp,
    CallOp,
    CollectiveBatchOp,
    ComputeOp,
    ConstOp,
    DeadOp,
    IrProgram,
)
from repro.ir.passes import (
    BatchCollectives,
    DeadOpElim,
    DrainCheck,
    FoldCosts,
    PassPipeline,
    default_pipeline,
    drain_report,
    noop_pipeline,
)

#: a small synthetic log exercising every lowering family
LOG = [
    ("send", None),
    ("recv", (7, {"source": 1, "tag": 3})),
    ("isend", 41),          # side-effecting materializer (request slot)
    ("wait", (None, None)),
    ("allreduce", 10),
    ("allreduce", 20),
    ("barrier", None),
]

CLASSIFY = OpClassification(
    identity=frozenset({"send", "recv", "allreduce", "barrier"}),
    collectives=frozenset({"allreduce", "barrier"}),
    pt2pt=frozenset({"send", "recv", "isend"}),
)


def lowered():
    return lower_entries(LOG, rank=2, classify=CLASSIFY)


# ----------------------------------------------------------------------
# lowering + round trip
# ----------------------------------------------------------------------

def test_roundtrip_lossless():
    assert to_entries(lowered()) == LOG


def test_roundtrip_without_classification():
    prog = lower_entries(LOG, rank=0)
    assert to_entries(prog) == LOG
    # no identity set: everything keeps its materializer
    assert all(type(op) is CallOp for op in prog)


def test_lowering_classifies():
    prog = lowered()
    by_name = {op.opname: op for op in prog}
    assert type(by_name["send"]) is ConstOp
    assert type(by_name["isend"]) is CallOp
    assert by_name["isend"].needs_materialize
    assert not by_name["send"].needs_materialize
    assert by_name["allreduce"].kind == KIND_COLLECTIVE
    assert by_name["send"].kind == KIND_PT2PT
    assert prog.num_calls == prog.source_calls == len(LOG)
    assert [op.seq for op in prog] == list(range(len(LOG)))
    assert all(op.rank == 2 for op in prog)


def test_comm_gid_resolution():
    classify = OpClassification(
        identity=frozenset(),
        comm_creating=frozenset({"comm_split"}),
        gid_fn=lambda ranks: hash(ranks) & 0xFFFF,
    )
    entries = [("comm_split", ("comm", 3, (0, 1), "half")),
               ("comm_split", ("null",))]
    prog = lower_entries(entries, classify=classify)
    assert prog.ops[0].comm_gid == hash((0, 1)) & 0xFFFF
    assert prog.ops[1].comm_gid is None  # null handle: no membership


# ----------------------------------------------------------------------
# op records
# ----------------------------------------------------------------------

def test_ops_are_immutable():
    op = ConstOp("send", 0, 0)
    with pytest.raises(AttributeError):
        op.result = 5
    with pytest.raises(AttributeError):
        del op.result
    prog = IrProgram(0, (op,))
    with pytest.raises(AttributeError):
        prog.ops = ()


def test_replace_builds_new_op():
    op = CallOp("isend", 4, 1, result=9)
    op2 = op.replace(result=10)
    assert op.result == 9 and op2.result == 10
    assert type(op2) is CallOp
    assert (op2.opname, op2.seq, op2.rank) == ("isend", 4, 1)


def test_batch_width_and_validation():
    batch = CollectiveBatchOp(opnames=("allreduce", "barrier"),
                              results=(5, None))
    assert batch.width == 2
    assert batch.is_batch
    with pytest.raises(ValueError):
        CollectiveBatchOp(opnames=("a",), results=())


def test_control_ops_serve_nothing():
    assert ComputeOp(cost=1.0).width == 0
    assert AdvanceOp(cost=1.0).width == 0
    assert ComputeOp().kind == KIND_CONTROL
    prog = IrProgram(0, (ComputeOp(), ConstOp("send", 0, 0)))
    assert prog.num_calls == 1


def test_validate_rejects_dropped_calls():
    prog = lowered()
    broken = prog.with_ops(prog.ops[:-1])
    with pytest.raises(ValueError):
        broken.validate()


def test_op_histogram_unfuses_batches():
    prog = default_pipeline().run(lowered())[0]
    hist = prog.op_histogram()
    assert hist["allreduce"] == 2
    assert sum(hist.values()) == len(LOG)


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def test_noop_pipeline_is_identity():
    prog = lowered()
    out, stats = noop_pipeline().run(prog)
    assert out is prog
    assert stats == []


def test_fold_costs_drops_yields_and_memoizes():
    calls = []

    def live(opname):
        calls.append(opname)
        return 1.5

    fold = FoldCosts(live_cost_fn=live)
    out, = (fold.run(lowered()).program,)
    assert all(not op.yield_after for op in out)
    assert all(op.live_cost == 1.5 for op in out if not op.is_control)
    # memoized per opname: 6 distinct names in LOG, not 7 calls
    assert len(calls) == len({name for name, _ in LOG})
    # second program shares the instance memo — no new resolutions
    fold.run(lowered())
    assert len(calls) == len({name for name, _ in LOG})


def test_batch_collectives_fuses_runs():
    out = BatchCollectives().run(
        FoldCosts().run(lowered()).program).program
    batches = [op for op in out if op.is_batch]
    assert len(batches) == 1
    assert batches[0].opnames == ("allreduce", "allreduce", "barrier")
    assert batches[0].results == (10, 20, None)
    out.validate()
    assert to_entries(out) == LOG  # serving stream unchanged


def test_batch_respects_comm_boundary():
    classify = OpClassification(
        identity=frozenset({"bcast"}), collectives=frozenset({"bcast"}))
    prog = lower_entries(
        [("bcast", 1), ("bcast", 2), ("bcast", 3)], classify=classify)
    # force distinct gids on the middle op
    ops = list(prog.ops)
    ops[1] = ops[1].replace(comm_gid=99)
    prog = prog.with_ops(ops)
    out = BatchCollectives(min_run=2).run(prog).program
    # the gid change splits the run: 1 + 1 + 1, no batch reaches min_run
    assert not any(op.is_batch for op in out)


def test_dead_op_elim_keeps_divergence_names():
    out = DeadOpElim().run(lowered()).program
    dead = {op.opname for op in out if type(op) is DeadOp}
    assert dead == {"send", "barrier"}
    # non-None results and side-effecting ops survive untouched
    assert type(next(op for op in out if op.opname == "recv")) is ConstOp
    assert type(next(op for op in out if op.opname == "isend")) is CallOp
    out.validate()


def test_drain_check_counts_postings():
    stats = DrainCheck().run(lowered()).stats
    assert stats["sends_posted"] == 2   # send + isend
    assert stats["recvs_posted"] == 1   # recv
    assert stats["imbalance"] == 1
    assert stats["posting_ops"] == {"send": 1, "isend": 1, "recv": 1}


def test_drain_report_aggregates():
    progs = {0: lowered(), 1: lower_entries([("recv", 1)], rank=1,
                                            classify=CLASSIFY)}
    rep = drain_report(progs)
    assert rep["sends_posted"] == 2
    assert rep["recvs_posted"] == 2
    assert rep["would_be_undrained"] == 0
    assert rep["per_rank"][1]["recvs_posted"] == 1


def test_pipeline_validates_each_pass():
    class Broken(DeadOpElim):
        name = "broken"

        def run(self, program):
            res = super().run(program)
            return type(res)(res.program.with_ops(res.program.ops[1:]),
                             res.stats)

    with pytest.raises(ValueError):
        PassPipeline((Broken(),)).run(lowered())


def test_pipeline_observe_hook():
    seen = []
    default_pipeline().run(lowered(),
                           observe=lambda name, stats: seen.append(name))
    assert seen == ["fold_costs", "batch_collectives", "dead_op_elim",
                    "drain_check"]


# ----------------------------------------------------------------------
# the interpreter
# ----------------------------------------------------------------------

def test_cursor_serves_in_order():
    cursor = ReplayCursor(lowered())
    for opname, value in LOG:
        assert not cursor.exhausted()
        got, needs_mat, dt = cursor.step(opname)
        assert got == value
        assert needs_mat == (opname in ("isend", "wait"))
        assert dt == 0.0  # unoptimized: every op still yields
    assert cursor.exhausted()
    with pytest.raises(ManaError):
        cursor.step("send")


def test_cursor_divergence_message_matches_legacy():
    cursor = ReplayCursor(lowered())
    with pytest.raises(RestartError) as err:
        cursor.step("recv")
    assert str(err.value) == (
        "replay divergence at call 0: application called 'recv' but the "
        "log has 'send' — the program is not deterministic"
    )


def test_optimized_cursor_folds_yields():
    prog = default_pipeline().run(lowered())[0]
    cursor = ReplayCursor(prog)
    dts = []
    for opname, value in LOG:
        got, _needs, dt = cursor.step(opname)
        assert got == value
        dts.append(dt)
    # every serving yield was dropped by fold_costs; only the batch
    # head could keep one, and here it had nothing to fold
    assert all(dt is None for dt in dts)
    assert cursor.exhausted()


def test_cursor_folds_control_costs_forward():
    prog = IrProgram(0, (
        ComputeOp(cost=2.0),
        AdvanceOp(seq=1, cost=0.5),
        ConstOp("send", 2, 0, None, None, 0.0, 0.0, True, KIND_PT2PT),
        ConstOp("recv", 3, 0, None, 7, 0.0, 0.0, False, KIND_PT2PT),
    ))
    cursor = ReplayCursor(prog)
    _, _, dt = cursor.step("send")
    assert dt == 2.5   # both control costs folded into the first serving op
    _, _, dt = cursor.step("recv")
    assert dt is None  # no yield, nothing pending


def test_tape_memoized_on_program():
    prog = default_pipeline().run(lowered())[0]
    c1 = ReplayCursor(prog)
    c2 = ReplayCursor(prog)
    assert prog._tape is not None
    assert c1._tape is c2._tape  # restart rounds share the flattening
    # cursor position is per-cursor state
    c1.step("send")
    assert c1.served == 1 and c2.served == 0


def test_tape_length_guard():
    prog = lowered()
    bad = IrProgram(prog.rank, prog.ops, source_calls=len(LOG))
    object.__setattr__(bad, "num_calls", len(LOG) + 1)
    with pytest.raises(ManaError):
        ReplayCursor(bad)


# ----------------------------------------------------------------------
# the bridge: cross-layer contracts
# ----------------------------------------------------------------------

def test_classification_covers_recorded_ops():
    """Every RECORDED_OPS entry lowers: identity ops to ConstOp, the
    rest to CallOp — no opname falls through unclassified."""
    from repro.mana.ir_bridge import classification
    from repro.mana.replay import RECORDED_OPS

    classify = classification()
    entries = [(name, None) for name in sorted(RECORDED_OPS)]
    prog = lower_entries(entries, classify=classify)
    assert to_entries(prog) == entries
    for op in prog:
        assert type(op) in (ConstOp, CallOp)
        assert (type(op) is ConstOp) == (op.opname in classify.identity)


def test_live_cost_matches_charging_path():
    """The folder's cost estimates resolve the exact floats the live
    pipeline charges for the same call shape (same memo-miss code)."""
    from repro.hosts import TESTBOX
    from repro.mana import ManaConfig
    from repro.mana.binding import LowerHalfBinding
    from repro.mana.ir_bridge import _VREQ_OPS_ESTIMATE, live_cost_fn
    from repro.mana.pipeline.costing import LowerHalfCosting

    binding = LowerHalfBinding(ManaConfig.feature_2pc(), TESTBOX)
    fn = live_cost_fn(binding)
    for opname in ("send", "isend", "waitall", "barrier", "allreduce"):
        expected = LowerHalfCosting.pure_cost(
            binding, lower_calls=1,
            vreq_ops=_VREQ_OPS_ESTIMATE.get(opname, 0),
            pt2pt=opname in ("send", "isend"),
        )
        assert fn(opname) == expected  # bit-identical, not approx
