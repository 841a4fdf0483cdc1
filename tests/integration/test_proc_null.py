"""Integration: receives from ``MPI_PROC_NULL`` — the edge-rank idiom of
every non-periodic stencil — must not be counted for the drain: nobody
sent them, so no peer's send counter can ever balance them."""

import pytest

from repro.apps.base import MpiProgram
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.session import (
    HALTED,
    CheckpointPlan,
    resume_from_checkpoint,
    run_app_native,
)
from repro.simmpi.constants import PROC_NULL

NRANKS = 4
CFG = ManaConfig.feature_2pc()


class OpenChain(MpiProgram):
    """1-d open chain: the two end ranks exchange with ``PROC_NULL``."""

    def __init__(self, rank, blocking=False, steps=6):
        super().__init__(rank)
        self.blocking = blocking
        self.steps = steps

    def main(self, api):
        left = api.rank - 1 if api.rank > 0 else PROC_NULL
        right = api.rank + 1 if api.rank < api.size - 1 else PROC_NULL
        value = api.rank + 1
        for step in range(self.steps):
            yield from api.compute(1e-4)
            if self.blocking:
                yield from api.send(value, left, tag=step)
                yield from api.send(value, right, tag=step)
                got = []
                for nb in (left, right):
                    payload, _st = yield from api.recv(nb, step)
                    got.append(payload)
            else:
                slots = []
                for nb in (left, right):
                    slot = yield from api.irecv(nb, step)
                    slots.append(slot)
                yield from api.send(value, left, tag=step)
                yield from api.send(value, right, tag=step)
                done = yield from api.waitall(slots)
                got = [payload for payload, _st in done]
            value += sum(g for g in got if g is not None) % 7
        return value


def chain(blocking):
    return lambda r: OpenChain(r, blocking=blocking)


@pytest.fixture(scope="module", params=[False, True],
                ids=["irecv-waitall", "blocking-recv"])
def reference(request):
    factory = chain(request.param)
    native = run_app_native(NRANKS, factory, TESTBOX)
    base = ManaSession(NRANKS, factory, TESTBOX, CFG).run()
    assert base.results == native.results
    assert len(set(native.results)) > 1  # the ranks really do differ
    return factory, native.results, base.elapsed


@pytest.mark.parametrize("frac", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("get_status", [False, True],
                         ids=["two-step", "get-status"])
def test_open_chain_survives_reconnect_restart(reference, frac, get_status):
    factory, want, elapsed = reference
    cfg = CFG.but(request_get_status=get_status)
    session = ManaSession(NRANKS, factory, TESTBOX, cfg)
    out = session.run(checkpoints=[
        CheckpointPlan(at=elapsed * frac, action="restart")])
    assert len(out.restarts) == 1
    assert out.results == want
    for mrank in session.rt.ranks:  # nobody counted a PROC_NULL peer
        assert all(0 <= p < NRANKS for p in mrank.counters.received)


@pytest.mark.parametrize("frac", [0.3, 0.5, 0.7])
def test_open_chain_survives_reexec(tmp_path, reference, frac):
    factory, want, elapsed = reference
    cfg = CFG.but(record_replay=True)
    halted = ManaSession(NRANKS, factory, TESTBOX, cfg)
    out = halted.run(checkpoints=[
        CheckpointPlan(at=elapsed * frac, action="halt")])
    assert out.results == [HALTED] * NRANKS
    path = tmp_path / "chain.img"
    halted.save_checkpoint(path)
    resumed = resume_from_checkpoint(path, factory, TESTBOX, cfg).run()
    assert resumed.results == want


class UnwaitedNullIrecv(MpiProgram):
    """Rank 1 enters the checkpoint with two posted, un-waited irecvs:
    one whose message has arrived (so the drain has a deficit and sweeps
    its irecv records) and one from ``PROC_NULL``."""

    def main(self, api):
        if api.rank == 0:
            yield from api.send("payload", 1, tag=4)
            yield from api.barrier()
            yield from api.compute(0.02)  # the checkpoint window
            yield from api.barrier()
            return None
        real = yield from api.irecv(source=0, tag=4)
        null = yield from api.irecv(source=PROC_NULL, tag=4)
        yield from api.barrier()
        yield from api.compute(0.02)
        yield from api.barrier()
        (payload, st), (nothing, null_st) = yield from api.waitall(
            [real, null])
        return payload, st.count, nothing, null_st.source, null_st.count


@pytest.mark.parametrize("action", ["resume", "restart"])
@pytest.mark.parametrize("get_status", [False, True],
                         ids=["test-arm", "get-status-arm"])
def test_checkpoint_with_unwaited_proc_null_irecv(action, get_status):
    cfg = CFG.but(request_get_status=get_status)
    session = ManaSession(2, lambda r: UnwaitedNullIrecv(r), TESTBOX, cfg)
    out = session.run(checkpoints=[CheckpointPlan(at=0.01, action=action)])
    assert len(out.checkpoints) == 1
    assert out.results[1] == ("payload", len("payload"), None, -1, 0)
    assert session.rt.ranks[1].counters.received == {0: [len("payload"), 1]}
