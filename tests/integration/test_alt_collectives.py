"""Integration: the Section III-E alternative (point-to-point)
collective implementations, one by one, against native results —
including checkpoints landing inside them."""

import numpy as np
import pytest

from repro.apps.base import MpiProgram
from repro.hosts import TESTBOX, TESTBOX_MN
from repro.mana import ManaConfig, ManaSession
from repro.mana.config import CollectiveMode
from repro.mana.session import CheckpointPlan, run_app_native
from repro.simmpi.ops import MAX, SUM
from repro.simmpi.ops import ReductionOp

ALT = ManaConfig.feature_2pc().but(collective_mode=CollectiveMode.PT2PT_ALWAYS)


class OneOfEach(MpiProgram):
    """Every collective the alternative implementation provides."""

    def main(self, api):
        me, p = api.rank, api.size
        out = {}
        yield from api.barrier()
        out["bcast"] = yield from api.bcast(
            ("root-data",) if me == 1 % p else None, root=1 % p
        )
        out["reduce"] = yield from api.reduce(me + 1, SUM, root=0)
        out["allreduce"] = yield from api.allreduce(
            np.full(4, float(me)), SUM
        )
        out["gather"] = yield from api.gather(me * 2, root=0)
        out["scatter"] = yield from api.scatter(
            [f"item{j}" for j in range(p)] if me == 0 else None, root=0
        )
        out["allgather"] = yield from api.allgather(me * me)
        out["alltoall"] = yield from api.alltoall(
            [(me, j) for j in range(p)]
        )
        out["scan"] = yield from api.scan(me + 1, SUM)
        out["reduce_scatter"] = yield from api.reduce_scatter_block(
            [np.array([me + j]) for j in range(p)], SUM
        )
        concat = ReductionOp("CONCAT", lambda a, b: a + b, commutative=False)
        out["noncommutative"] = yield from api.allreduce([me], concat)
        # normalize numpy results for comparison
        out["allreduce"] = tuple(out["allreduce"])
        out["reduce_scatter"] = tuple(out["reduce_scatter"])
        return out


def normalize(results):
    return results


@pytest.mark.parametrize("p", [1, 2, 3, 4, 6, 8])
def test_alt_collectives_match_native(p):
    factory = lambda r: OneOfEach(r)
    native = run_app_native(p, factory, TESTBOX)
    alt = ManaSession(p, factory, TESTBOX, ALT).run()
    assert normalize(alt.results) == normalize(native.results)


@pytest.mark.parametrize("frac", [0.1, 0.4, 0.7])
def test_alt_collectives_with_restart_mid_program(frac):
    p = 4
    factory = lambda r: OneOfEach(r)
    base = ManaSession(p, factory, TESTBOX, ALT).run()
    out = ManaSession(p, factory, TESTBOX, ALT).run(
        checkpoints=[CheckpointPlan(at=base.elapsed * frac, action="restart")]
    )
    assert out.results == base.results


def test_alt_collectives_checkpointed_mid_program_are_pinned():
    """Every collective of the alternative layer — scatter, scan,
    reduce_scatter and the non-commutative allreduce included — on two
    nodes with a checkpoint at 0.4 of the run: virtual time and traffic
    are pinned to the values they had while this layer kept its own
    copy of each algorithm."""
    p = 6
    factory = lambda r: OneOfEach(r)
    base = ManaSession(p, factory, TESTBOX_MN, ALT).run()
    session = ManaSession(p, factory, TESTBOX_MN, ALT)
    out = session.run(
        checkpoints=[CheckpointPlan(at=base.elapsed * 0.4, action="resume")]
    )
    assert out.results == base.results
    assert out.results == run_app_native(p, factory, TESTBOX_MN).results
    assert repr(out.elapsed) == "0.0016564338749999988"
    assert session.network.stats.messages == 147
    assert session.network.stats.bytes == 4008


def test_alt_mode_never_enters_lower_half_collectives():
    p = 4
    factory = lambda r: OneOfEach(r)
    session = ManaSession(p, factory, TESTBOX, ALT)
    out = session.run()
    # only the finalize barrier's world traffic plus comm mgmt can touch
    # the lower-half collective machinery; data collectives must not
    lib_calls = out.lib_calls
    for op in ("bcast", "reduce", "allreduce", "gather", "scatter",
               "allgather", "alltoall", "scan"):
        # the only lib-level collective calls allowed are those issued by
        # MANA itself (the drain's alltoall is on the internal comm; no
        # checkpoint here, so none at all)
        assert lib_calls.get(op, 0) <= (1 if op == "barrier" else 0), op


class StaggeredAllgather(MpiProgram):
    """One allgather of unequal blocks, entered late by the high ranks so
    that at any instant the members sit in different Bruck rounds."""

    def main(self, api):
        me, p = api.rank, api.size
        yield from api.compute(3e-5 * ((p - me) % p))
        out = yield from api.allgather((me, "x" * me))
        return out


@pytest.mark.parametrize("p", [3, 6])
def test_alt_allgather_restart_between_bruck_rounds(p, monkeypatch):
    """A ``restart`` checkpoint that catches the above-the-lower-half
    Bruck allgather with a later-round message in flight: the message is
    drained into the upper half, the lower half is replaced, and the
    remaining rounds still assemble the native result."""
    from repro.mana.buffers import DrainBuffer
    from repro.mana.collective_impl import SEQ_STRIDE
    from repro.util.serde import SizedBlocks

    drained_rounds = []
    put = DrainBuffer.put

    def spy(self, msg):
        if type(msg.payload) is SizedBlocks:
            drained_rounds.append(msg.tag % SEQ_STRIDE)
        put(self, msg)

    monkeypatch.setattr(DrainBuffer, "put", spy)
    factory = lambda r: StaggeredAllgather(r)
    native = run_app_native(p, factory, TESTBOX)
    base = ManaSession(p, factory, TESTBOX, ALT).run()
    assert base.results == native.results
    for frac in (0.1, 0.3, 0.5):
        out = ManaSession(p, factory, TESTBOX, ALT).run(
            checkpoints=[CheckpointPlan(at=base.elapsed * frac,
                                        action="restart")]
        )
        assert out.results == native.results, frac
        assert len(out.restarts) == 1
    assert any(k >= 1 for k in drained_rounds), drained_rounds


class StaggeredAlltoall(MpiProgram):
    """One alltoall of short, unequal blocks (so it runs Bruck's rounds),
    entered late by the high ranks so that at any instant the members
    sit in different rounds."""

    def main(self, api):
        me, p = api.rank, api.size
        yield from api.compute(3e-5 * ((p - me) % p))
        out = yield from api.alltoall([(me, j, "x" * j) for j in range(p)])
        return out


@pytest.mark.parametrize("p", [3, 6])
def test_alt_alltoall_restart_between_bruck_rounds(p, monkeypatch):
    """As above for the short-message alltoall, whose round ``k``
    travels on tag offset ``k + 1``: a message of round 1 or later is
    drained, the lower half replaced, and the transpose still comes out."""
    from repro.mana.buffers import DrainBuffer
    from repro.mana.collective_impl import SEQ_STRIDE
    from repro.util.serde import SizedBlocks

    drained_rounds = []
    put = DrainBuffer.put

    def spy(self, msg):
        if type(msg.payload) is SizedBlocks:
            drained_rounds.append(msg.tag % SEQ_STRIDE - 1)
        put(self, msg)

    monkeypatch.setattr(DrainBuffer, "put", spy)
    factory = lambda r: StaggeredAlltoall(r)
    native = run_app_native(p, factory, TESTBOX)
    assert native.results == [
        [(r, me, "x" * me) for r in range(p)] for me in range(p)]
    base = ManaSession(p, factory, TESTBOX, ALT).run()
    assert base.results == native.results
    for frac in (0.1, 0.3, 0.5, 0.7):
        out = ManaSession(p, factory, TESTBOX, ALT).run(
            checkpoints=[CheckpointPlan(at=base.elapsed * frac,
                                        action="restart")]
        )
        assert out.results == native.results, frac
        assert len(out.restarts) == 1
    assert any(k >= 1 for k in drained_rounds), drained_rounds
