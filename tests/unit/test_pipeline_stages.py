"""The interposition pipeline: per-stage unit tests, bit-identical
behavior checks against the pre-pipeline wrapper monolith, the trace
spine, and the layering lint.

The "golden" virtual-time constants below were captured from the
monolithic ``wrappers.py`` immediately before the pipeline refactor.
The refactor's contract is bit-identical lowering — same operation
order, same costs, same results — so these are exact ``==`` asserts,
not approximate ones.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.apps.base import MpiProgram
from repro.des.scheduler import Scheduler
from repro.hosts import CORI_HASWELL, TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.config import CollectiveMode
from repro.mana.fsreg import lower_half_call_cost
from repro.mana.pipeline import (
    CALL_SPECS,
    COLLECTIVE_DESCS,
    ICOLL_DESCS,
    DrainAccounting,
    LowerHalfCosting,
    TwoPhaseGate,
    Virtualization,
)
from repro.mana.runtime import ManaRank, ManaRuntime, RankPhase, ReleaseMode
from repro.mana.session import CheckpointPlan
from repro.mana.requests import VReqKind
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simnet.network import Network, NetworkStats
from repro.simnet.message import Message
from repro.simnet.oob import OobChannel
from repro.util.trace import JsonlSink, RingBufferSink, Tracer

REPO = Path(__file__).resolve().parent.parent.parent

PIPELINE_STAGES = {
    "semantic_lowering", "two_phase_gate", "virtualization",
    "lower_half_costing", "drain_accounting",
}


def make_rank(cfg=None, machine=TESTBOX, nranks=2) -> ManaRank:
    """A real ManaRank wired into a runtime, but with nothing running —
    the stages only need its tables, counters, and config."""
    cfg = cfg if cfg is not None else ManaConfig.feature_2pc()
    sched = Scheduler()
    network = Network(sched, machine, nranks)
    oob = OobChannel(sched)
    rt = ManaRuntime(sched, network, oob, machine, cfg, nranks)
    return rt.ranks[0]


# ----------------------------------------------------------------------
# TwoPhaseGate
# ----------------------------------------------------------------------
class TestTwoPhaseGate:
    def fake(self, cfg, **kw):
        defaults = dict(intent=False, phase=RankPhase.RUNNING,
                        release_mode=None)
        defaults.update(kw)
        return SimpleNamespace(rt=SimpleNamespace(cfg=cfg), **defaults)

    def test_poll_knobs_come_from_config(self):
        cfg = ManaConfig.feature_2pc().but(blocked_poll_budget=4,
                                           idle_poll_limit=7)
        gate = TwoPhaseGate(self.fake(cfg))
        assert gate.blocked_poll_budget == 4
        assert gate.idle_poll_limit == 7

    def test_intent_pending_truth_table(self):
        cfg = ManaConfig.feature_2pc()
        assert not TwoPhaseGate(self.fake(cfg)).intent_pending
        assert TwoPhaseGate(self.fake(cfg, intent=True)).intent_pending
        inside = self.fake(cfg, intent=True, phase=RankPhase.IN_CKPT)
        assert not TwoPhaseGate(inside).intent_pending

    def test_blocked_checkin_policy(self):
        cfg = ManaConfig.feature_2pc().but(blocked_poll_budget=3)
        gate = TwoPhaseGate(self.fake(cfg))  # release_mode None
        # before any release directive: check in immediately
        assert gate.must_checkin_blocked(polls=1)
        released = TwoPhaseGate(self.fake(cfg, release_mode=ReleaseMode.FREE))
        assert not released.must_checkin_blocked(polls=2)
        assert released.must_checkin_blocked(polls=3)

    def test_entry_is_noop_without_intent(self):
        mrank = make_rank()
        gate = TwoPhaseGate(mrank)
        assert list(gate.entry("isend")) == []  # no parks, no advances


# ----------------------------------------------------------------------
# LowerHalfCosting
# ----------------------------------------------------------------------
class TestLowerHalfCosting:
    def test_matches_figure1_formula(self):
        cfg = ManaConfig.master()  # lambda frames on, multi-call helper
        mrank = make_rank(cfg, machine=CORI_HASWELL)
        cost_stage = LowerHalfCosting(mrank)
        ov = cfg.overheads
        got = cost_stage.wrapper_advance(lower_calls=1, lookup_cost=0.5e-6,
                                         vreq_ops=2, pt2pt=True).dt
        nominal = (ov.ckpt_lock + ov.commit_phase + ov.lambda_frames
                   + ov.vreq_bookkeeping * 2 + ov.counter_update)
        lower = 1 + ov.rank_helper_lh_calls
        want = (CORI_HASWELL.mana_sw_time(nominal)
                + lower_half_call_cost(mrank.rt.binding, lower)
                + 0.5e-6)
        assert got == want

    def test_accumulates_rank_stats(self):
        mrank = make_rank()
        cost_stage = LowerHalfCosting(mrank)
        before = mrank.stats.lower_half_calls
        c = cost_stage.wrapper_advance(lower_calls=3).dt
        assert mrank.stats.lower_half_calls == before + 3
        assert mrank.stats.overhead_time >= c

    def test_emits_charge_events_when_traced(self):
        mrank = make_rank()
        sink = RingBufferSink()
        mrank.rt.sched.tracer.set_sink(sink)
        LowerHalfCosting(mrank).wrapper_advance()
        (ev,) = sink.by_stage("lower_half_costing")
        assert ev.kind == "charge" and ev.rank == 0


# ----------------------------------------------------------------------
# Virtualization
# ----------------------------------------------------------------------
class TestVirtualization:
    def test_none_comm_is_world(self):
        mrank = make_rank()
        virt = Virtualization(mrank, mrank.vcomms.world_vid)
        vid, real, cost = virt.lookup_comm(None)
        assert vid == mrank.vcomms.world_vid
        assert real is mrank.rt.lib.comm_world
        assert cost >= 0.0

    def test_request_roundtrip(self):
        mrank = make_rank()
        virt = Virtualization(mrank, mrank.vcomms.world_vid)
        entry, _c = virt.create_request(
            VReqKind.IRECV, mrank.vcomms.world_vid,
            real=None, peer=1, tag=5, created_call=0,
        )
        found, _c2 = virt.lookup_request(entry.vid)
        assert found is entry
        virt.retire_request(entry)
        with pytest.raises(Exception):
            virt.lookup_request(entry.vid)

    def test_emits_translation_events_when_traced(self):
        mrank = make_rank()
        sink = RingBufferSink()
        mrank.rt.sched.tracer.set_sink(sink)
        virt = Virtualization(mrank, mrank.vcomms.world_vid)
        virt.lookup_comm(None)
        entry, _ = virt.create_request(
            VReqKind.ISEND, mrank.vcomms.world_vid,
            real=None, peer=1, tag=0, created_call=0,
        )
        virt.retire_request(entry)
        kinds = [e.kind for e in sink.by_stage("virtualization")]
        assert kinds == ["comm_lookup", "vreq_create", "vreq_retire"]


# ----------------------------------------------------------------------
# DrainAccounting
# ----------------------------------------------------------------------
class TestDrainAccounting:
    def test_counts_into_pairwise_counters(self):
        mrank = make_rank()
        acct = DrainAccounting(mrank)
        acct.sent(1, 100)
        acct.sent(1, 50)
        acct.received(1, 60)
        assert mrank.counters.sent[1][0] == 150
        assert mrank.counters.received[1][0] == 60

    def test_emits_events_when_traced(self):
        mrank = make_rank()
        sink = RingBufferSink()
        mrank.rt.sched.tracer.set_sink(sink)
        acct = DrainAccounting(mrank)
        acct.sent(1, 10)
        acct.received(1, 10)
        kinds = [e.kind for e in sink.by_stage("drain_accounting")]
        assert kinds == ["sent", "received"]


# ----------------------------------------------------------------------
# the declarative registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_every_entry_point_has_a_spec(self):
        expected = {
            "isend", "send", "irecv", "recv", "sendrecv", "iprobe", "probe",
            "test", "wait", "waitall", "waitany", "testany", "testall",
            "send_init", "recv_init", "start", "request_free",
            "comm_split", "comm_dup", "comm_create", "comm_free",
            "alloc_mem", "free_mem",
        } | set(COLLECTIVE_DESCS) | set(ICOLL_DESCS)
        assert set(CALL_SPECS) == expected

    def test_icolls_defer_counting(self):
        # non-blocking collectives must raise UnsupportedMpiFeature on
        # the original config *before* counting — the registry rows defer
        for name in ICOLL_DESCS:
            assert CALL_SPECS[name].count is False

    def test_wait_family_owns_its_checkin_policy(self):
        for name in ("wait", "waitall", "waitany", "probe"):
            assert CALL_SPECS[name].checkin is False

    def test_collective_descs_cover_both_paths(self):
        for desc in COLLECTIVE_DESCS.values():
            assert callable(desc.lib) and callable(desc.alt)


# ----------------------------------------------------------------------
# network accounting satellites
# ----------------------------------------------------------------------
class TestNetworkAccounting:
    def test_double_record_is_refused(self):
        stats = NetworkStats()
        msg = Message(src=0, dst=1, context_id=2, tag=0, payload=b"x",
                      nbytes=1)
        stats.record(msg, intranode=True)
        with pytest.raises(Exception, match="recorded twice"):
            stats.record(msg, intranode=True)
        assert stats.pair_messages[(0, 1)] == 1
        assert stats.pair_bytes[(0, 1)] == 1


class PingPong(MpiProgram):
    def main(self, api):
        for i in range(5):
            if api.rank == 0:
                yield from api.send(i, 1, tag=0)
                _p, _s = yield from api.recv(1, 0)
            else:
                _p, _s = yield from api.recv(0, 0)
                yield from api.send(i, 0, tag=0)
        return None


class TestInFlightHighWater:
    def test_peak_recorded_and_drained_at_checkpoint(self):
        session = ManaSession(2, lambda r: PingPong(r), TESTBOX,
                              ManaConfig.feature_2pc())
        out = session.run(checkpoints=[CheckpointPlan(at=5e-6)])
        assert len(out.checkpoints) == 1
        net = session.network
        assert net.in_flight_peak >= 1          # traffic flowed
        assert net.in_flight_count() == 0       # and fully drained
        # per-pair fabric ledger agrees with MANA's drain counters
        rt = session.rt
        app_pair_bytes = (rt.ranks[0].counters.total_sent()[0]
                          + rt.ranks[1].counters.total_sent()[0])
        fabric_app_bytes = sum(
            nb for (s, d), nb in net.stats.pair_bytes.items()
        )
        # fabric also carries collective/drain-internal traffic, so the
        # app-counted bytes can never exceed what crossed the fabric
        assert 0 < app_pair_bytes <= fabric_app_bytes


# ----------------------------------------------------------------------
# bit-identical behavior vs the pre-pipeline monolith (golden values)
# ----------------------------------------------------------------------
class CountedApp(MpiProgram):
    def main(self, api):
        for i in range(5):
            yield from api.compute(1e-4)
            if api.rank == 0:
                yield from api.send(i, 1, tag=0)
            elif api.rank == 1:
                yield from api.recv(0, 0)
            yield from api.allreduce(1)
        return None


class WildcardOrdering(MpiProgram):
    def main(self, api):
        if api.rank != 0:
            for i in range(6):
                yield from api.send((api.rank, i), 0, tag=api.rank)
            return None
        seen = {}
        for _ in range(6 * (api.size - 1)):
            (src, i), _st = yield from api.recv(ANY_SOURCE, ANY_TAG)
            seen[src] = i
        return dict(seen)


class AllocMemUser(MpiProgram):
    def main(self, api):
        mem = yield from api.alloc_mem(4096)
        mem.data[0:5] = b"hello"
        yield from api.barrier()
        yield from api.compute(0.02)
        yield from api.barrier()
        value = bytes(mem.data[0:5])
        yield from api.free_mem(mem)
        return value


class TestBitIdenticalWithMonolith:
    """Exact virtual-time equality with the pre-refactor wrappers."""

    def test_counted_master_haswell(self):
        out = ManaSession(2, lambda r: CountedApp(r), CORI_HASWELL,
                          ManaConfig.master()).run()
        assert out.elapsed == 0.0006443533333333336
        assert out.rank_stats[0].overhead_time == 0.00013290200000000004
        assert out.rank_stats[0].lower_half_calls == 31
        assert out.network_messages == 29

    def test_counted_original_and_pt2pt_modes(self):
        out = ManaSession(2, lambda r: CountedApp(r), TESTBOX,
                          ManaConfig.original()).run()
        assert out.elapsed == 0.0005700613333333336
        cfg = ManaConfig.feature_2pc().but(
            collective_mode=CollectiveMode.PT2PT_ALWAYS
        )
        out2 = ManaSession(2, lambda r: CountedApp(r), TESTBOX, cfg).run()
        assert out2.elapsed == 0.0006075400000000002

    def test_wildcard_with_restart(self):
        base = ManaSession(4, lambda r: WildcardOrdering(r), TESTBOX,
                           ManaConfig.feature_2pc()).run()
        assert base.elapsed == 0.00010287000000000005
        out = ManaSession(4, lambda r: WildcardOrdering(r), TESTBOX,
                          ManaConfig.feature_2pc()).run(
            checkpoints=[CheckpointPlan(at=base.elapsed * 0.5,
                                        action="restart")])
        assert out.elapsed == base.elapsed  # restart hides no time here
        assert out.results[0] == {1: 5, 2: 5, 3: 5}
        assert len(out.restarts) == 1

    def test_allocmem_survives_restart(self):
        out = ManaSession(2, lambda r: AllocMemUser(r), TESTBOX,
                          ManaConfig.feature_2pc()).run(
            checkpoints=[CheckpointPlan(at=0.01, action="restart")])
        assert out.elapsed == 0.02343293533571429
        assert out.results == [b"hello", b"hello"]


# ----------------------------------------------------------------------
# rows are compiled on first call, not at wire-up
# ----------------------------------------------------------------------
class TestLazyRowCompile:
    def test_a_rank_compiles_exactly_the_rows_it_called(self):
        from repro.apps.micro import TokenRing

        sess = ManaSession(4, lambda r: TokenRing(r, laps=3), TESTBOX,
                           ManaConfig.feature_2pc())
        out = sess.run()
        assert out.results == [TokenRing.expected(r, 4, 3) for r in range(4)]
        for mrank in sess.rt.ranks:
            compiled = set(mrank.api._pipe.rows)
            # send + recv, and the barrier inside finalize
            assert compiled == {"send", "recv", "barrier"}
            assert compiled == set(mrank.stats.wrapper_calls)
            assert compiled < set(CALL_SPECS)

    def test_a_row_is_compiled_once(self):
        from repro.mana.pipeline.core import _Rows

        compiled = []

        def compile_row(spec):
            compiled.append(spec.name)
            return object()

        rows = _Rows(compile_row)
        first = rows["send"]
        assert rows["send"] is first and rows["recv"] is not first
        assert compiled == ["send", "recv"]

    def test_unknown_row_still_raises_keyerror(self):
        sess = ManaSession(2, lambda r: CountedApp(r), TESTBOX,
                           ManaConfig.feature_2pc())
        sess._wire([])
        pipe = sess.rt.ranks[0].api._pipe
        assert not pipe.rows  # wired, nothing called, nothing compiled
        with pytest.raises(KeyError, match="no_such_call"):
            pipe.rows["no_such_call"]
        assert "no_such_call" not in pipe.rows


# ----------------------------------------------------------------------
# the two shapes of a compiled row: the handler's own generator, or the
# full stage chain when the tracer or the gate has something to do
# ----------------------------------------------------------------------
class Exchange(MpiProgram):
    """One irecv / send / waitall exchange with the other rank."""

    def __init__(self, rank, compute_s=0.0):
        super().__init__(rank)
        self.compute_s = compute_s

    def main(self, api):
        peer = 1 - api.rank
        slot = yield from api.irecv(peer, 3)
        if self.compute_s:
            yield from api.compute(self.compute_s)
        yield from api.send(api.rank + 10, peer, tag=3)
        ((payload, st),) = yield from api.waitall([slot])
        return payload, st.source


#: one rank's pipeline-stage events for one ``Exchange``, captured at
#: the commit before rows handed back the handler's generator
EXCHANGE_STREAM = [
    "0.0 semantic_lowering.enter irecv",
    "0.0 virtualization.comm_lookup cost=6e-08 vid=1",
    "0.0 lower_half_costing.charge cost=3.14e-06 lower_calls=2 vreq_ops=1",
    "3.14e-06 virtualization.vreq_create comm_vid=1 req_kind='irecv' vid=1",
    "3.14e-06 semantic_lowering.exit irecv",
    "3.14e-06 semantic_lowering.enter send",
    "3.14e-06 virtualization.comm_lookup cost=6e-08 vid=1",
    "3.14e-06 lower_half_costing.charge cost=3.14e-06 lower_calls=2 vreq_ops=1",
    "6.53e-06 drain_accounting.sent nbytes=8 peer={peer}",
    "6.53e-06 virtualization.vreq_create comm_vid=1 req_kind='isend' vid=2",
    "6.53e-06 lower_half_costing.charge cost=2.35e-06 lower_calls=1 vreq_ops=0",
    "8.88e-06 virtualization.vreq_retire req_kind='isend' vid=2",
    "8.88e-06 semantic_lowering.exit send",
    "8.88e-06 semantic_lowering.enter waitall",
    "8.88e-06 lower_half_costing.charge cost=2.35e-06 lower_calls=1 vreq_ops=0",
    "1.123e-05 drain_accounting.received nbytes=8 peer={peer}",
    "1.123e-05 virtualization.comm_lookup cost=6e-08 vid=1",
    "1.123e-05 virtualization.vreq_retire req_kind='irecv' vid=1",
    "1.123e-05 semantic_lowering.exit waitall",
]


class TestRowShapes:
    def wired_api(self, **kw):
        sess = ManaSession(2, lambda r: Exchange(r), TESTBOX,
                           ManaConfig.feature_2pc(), **kw)
        sess._wire([])
        return sess.rt.ranks[0]

    def test_quiet_row_is_the_handlers_own_generator(self):
        mrank = self.wired_api()
        gen = mrank.api.send(1, 1)
        assert gen.gi_code.co_name == "send"   # no frame in between
        gen.close()
        gen = mrank.api.waitall([])
        assert gen.gi_code.co_name == "waitall"
        gen.close()
        assert mrank.stats.wrapper_calls == {"send": 1, "waitall": 1}
        assert mrank.stats.pt2pt_calls == 1

    def test_intent_or_tracer_selects_the_full_stage_chain(self):
        mrank = self.wired_api()
        mrank.intent = True                    # safe point is now live
        gen = mrank.api.send(1, 1)
        assert gen.gi_code.co_name == "_staged"
        gen.close()
        gen = mrank.api.waitall([])            # owns its check-in policy
        assert gen.gi_code.co_name == "waitall"
        gen.close()
        mrank.phase = RankPhase.IN_CKPT        # inside the cycle: no-op
        gen = mrank.api.send(1, 1)
        assert gen.gi_code.co_name == "send"
        gen.close()
        traced = self.wired_api(trace_sink=RingBufferSink())
        for gen in (traced.api.send(1, 1), traced.api.waitall([])):
            assert gen.gi_code.co_name == "_staged"
            gen.close()

    def test_traced_exchange_stream_is_event_for_event_the_parents(self):
        sink = RingBufferSink()
        out = ManaSession(2, lambda r: Exchange(r), TESTBOX,
                          ManaConfig.feature_2pc(), trace_sink=sink).run()
        assert out.results == [(11, 1), (10, 0)]

        def line(e):
            detail = " ".join(f"{k}={v!r}" for k, v in sorted(e.detail.items()))
            return f"{e.t!r} {e.stage}.{e.kind} {e.call or detail}"

        for rank in (0, 1):
            got = [line(e) for e in sink.events
                   if e.stage in PIPELINE_STAGES and e.rank == rank]
            want = [w.format(peer=1 - rank) for w in EXCHANGE_STREAM]
            assert got[:len(want)] == want

    def test_intent_between_two_calls_checks_in_at_the_very_next_one(self):
        sink = RingBufferSink()
        runs = []
        for kw in ({}, {"trace_sink": sink}):
            runs.append(ManaSession(
                2, lambda r: Exchange(r, compute_s=1e-3), TESTBOX,
                ManaConfig.feature_2pc(), **kw,
            ).run(checkpoints=[CheckpointPlan(at=5e-4, action="resume")]))
        for out in runs:
            # virtual time and check-in count of the commit before the
            # row's inline guard replaced the generator's
            assert out.elapsed == 0.002935284049999999
            assert [st.checkins for st in out.rank_stats] == [1, 1]
            assert out.results == [(11, 1), (10, 0)]
            assert len(out.checkpoints) == 1
        gate = [(e.rank, e.kind, e.detail) for e in sink.events
                if e.stage == "two_phase_gate"]
        # the intent arrived inside compute(); send is the next wrapper
        assert gate[:2] == [
            (r, "checkin", {"checkin_kind": "safe", "pending": "send"})
            for r in (0, 1)
        ]


# ----------------------------------------------------------------------
# the trace spine, end to end
# ----------------------------------------------------------------------
class TraceApp(MpiProgram):
    def main(self, api):
        for i in range(4):
            yield from api.compute(1e-4)
            if api.rank == 0:
                yield from api.send(i, 1, tag=0)
            elif api.rank == 1:
                _ = yield from api.recv(0, 0)
            yield from api.allreduce(1)
        return api.rank


class TestTraceSpine:
    def test_jsonl_replay_of_checkpointed_run(self):
        buf = io.StringIO()
        out = ManaSession(4, lambda r: TraceApp(r), TESTBOX,
                          ManaConfig.feature_2pc(),
                          trace_sink=JsonlSink(buf)).run(
            checkpoints=[CheckpointPlan(at=2e-4, action="restart")])
        assert len(out.restarts) == 1
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert events, "trace must not be empty"
        stages = {e["stage"] for e in events}
        # every pipeline stage spoke during the checkpointed run
        assert PIPELINE_STAGES <= stages
        # and the layers below did too
        assert {"mpi_library", "network", "scheduler"} <= stages
        ts = [e["t"] for e in events]
        assert all(a <= b for a, b in zip(ts, ts[1:])), \
            "virtual timestamps must be monotone"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # the 2PC gate reported check-ins, and the drain quiesced
        kinds = {(e["stage"], e["kind"]) for e in events}
        assert ("two_phase_gate", "checkin") in kinds
        assert ("drain_accounting", "quiesced") in kinds

    def test_null_sink_is_free_and_ring_buffer_caps(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.emit("network", "inject")  # swallowed
        ring = RingBufferSink(capacity=3)
        tracer.set_sink(ring)
        assert tracer.enabled
        for i in range(5):
            tracer.emit("scheduler", "park", proc=f"p{i}")
        assert ring.emitted == 5
        assert len(ring.events) == 3
        assert ring.events[0].detail["proc"] == "p2"

    def test_tracing_does_not_change_virtual_time(self):
        quiet = ManaSession(2, lambda r: CountedApp(r), TESTBOX,
                            ManaConfig.feature_2pc()).run()
        traced = ManaSession(2, lambda r: CountedApp(r), TESTBOX,
                             ManaConfig.feature_2pc(),
                             trace_sink=RingBufferSink()).run()
        assert traced.elapsed == quiet.elapsed


# ----------------------------------------------------------------------
# tooling
# ----------------------------------------------------------------------
class TestLayeringLint:
    def test_wrapper_facade_is_clean(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_layering.py")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_lint_catches_a_violation(self, tmp_path):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_layering
        finally:
            sys.path.pop(0)
        bad = tmp_path / "wrappers.py"
        bad.write_text(
            "from repro.mana.fsreg import lower_half_call_cost\n"
            "from repro.mana import counters\n"
            "import repro.mana.counters\n"
        )
        found = check_layering.violations(bad)
        assert len(found) == 3

    def test_lint_catches_a_faults_import_in_mechanism_code(self, tmp_path):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_layering
        finally:
            sys.path.pop(0)
        bad = tmp_path / "scheduler.py"
        bad.write_text(
            "from repro.faults import FaultInjector\n"
            "import repro.faults.schedule\n"
            "from repro.faults.schedule import FaultSpec\n"
            "from repro.util.rng import make_rng\n"  # fine: not policy
        )
        found = check_layering.policy_violations(bad)
        assert len(found) == 3

    def test_lint_catches_a_forwarding_generator(self, tmp_path):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_layering
        finally:
            sys.path.pop(0)
        bad = tmp_path / "lowering.py"
        bad.write_text(
            "class SemanticLowering:\n"
            "    def irecv(self, source, tag, comm=None):\n"
            "        slot = yield from self.irecv_impl(source, tag, comm)\n"
            "        return slot\n"
            "    def wait(self, slot):\n"
            "        'MPI_Wait.'\n"
            "        return (yield from self.wait_impl(slot, 'wait'))\n"
        )
        found = check_layering.forwarding_generators(bad)
        assert [name for _lineno, name in found] == ["irecv", "wait"]
        clean = tmp_path / "clean.py"
        clean.write_text(
            "class SemanticLowering:\n"
            "    def isend(self, data, dest, tag=0, comm=None):\n"
            "        return self.isend_impl(data, dest, tag, comm)\n"  # called
            "    def send(self, data, dest, tag=0, comm=None):\n"
            "        slot = yield from self.isend_impl(data, dest, tag, comm)\n"
            "        flag, _p, _s = yield from self.test(slot)\n"
            "        return None\n"
            "class Other:\n"                    # only the lowering stage
            "    def f(self):\n"
            "        return (yield from self.g())\n"
        )
        assert check_layering.forwarding_generators(clean) == []

    def test_lint_catches_a_library_forwarding_to_an_algorithm(self, tmp_path):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_layering
        finally:
            sys.path.pop(0)
        bad = tmp_path / "library.py"
        bad.write_text(
            "class MpiLibrary:\n"
            "    def barrier(self, task, comm):\n"
            "        me, seq = self._coll_prologue(task, comm, 'barrier')\n"
            "        yield from coll.barrier(self, task, comm, me, seq)\n"
            "        return None\n"
            "    def bcast(self, task, comm, data, root):\n"
            "        me, seq = self._coll_prologue(task, comm, 'bcast')\n"
            "        result = yield from coll.bcast(self, task, comm, me, data, root, seq)\n"
            "        return result\n"
            "    def scan(self, task, comm, data, op):\n"
            "        'MPI_Scan.'\n"
            "        return (yield from coll.scan(self, task, comm, 0, data, op, 0))\n"
        )
        found = check_layering.library_forwarders(bad)
        assert [name for _lineno, name in found] == ["barrier", "bcast", "scan"]
        clean = tmp_path / "clean.py"
        clean.write_text(
            "class MpiLibrary:\n"
            "    def barrier(self, task, comm):\n"
            "        me, seq = self._coll_prologue(task, comm, 'barrier')\n"
            "        return coll.barrier(self, task, comm, me, seq)\n"  # returned
            "    def win_fence(self, task, win):\n"
            "        yield from coll.barrier(self, task, win.comm, 0, 0)\n"
            "        yield Advance(0.0)\n"                    # work after it
            "    def send(self, task, comm, dest, tag, payload):\n"
            "        yield from self.isend(task, comm, dest, tag, payload)\n"
            "        return None\n"                           # not an algorithm
            "    def twice(self, task, comm):\n"
            "        yield from coll.barrier(self, task, comm, 0, 0)\n"
            "        return (yield from coll.barrier(self, task, comm, 0, 1))\n"
        )
        assert check_layering.library_forwarders(clean) == []

    def test_lint_catches_an_upper_layer_import_in_des_core(self, tmp_path):
        sys.path.insert(0, str(REPO / "tools"))
        try:
            import check_layering
        finally:
            sys.path.pop(0)
        bad = tmp_path / "scheduler.py"
        bad.write_text(
            "from repro.mana.session import ManaSession\n"
            "import repro.simmpi.library\n"
            "from repro.simnet import Network\n"
            "import heapq\n"  # fine: stdlib
        )
        found = [
            (lineno, desc)
            for lineno, mod, desc in check_layering._imports(bad)
            if any(check_layering._hits(mod, f)
                   for f in check_layering.DES_FORBIDDEN)
        ]
        assert len(found) == 3
