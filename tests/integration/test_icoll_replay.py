"""Integration: a RECONNECT restart with every kind of non-blocking
collective in flight.  The restart re-issues the icoll log through the
same registry rows the wrappers issue through, so each kind must come
back with the native result."""

import numpy as np
import pytest

from repro.apps.base import MpiProgram
from repro.errors import RestartError
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.icoll_log import IcollRecord
from repro.mana.pipeline.registry import ICOLL_DESCS
from repro.mana.restart import _replay_icolls
from repro.mana.session import CheckpointPlan, run_app_native
from repro.simmpi.ops import MAX, SUM

KINDS = ("ibarrier", "ibcast", "ireduce", "iallreduce", "ialltoall",
         "iallgather")


class SixInFlight(MpiProgram):
    """Issues one of each non-blocking collective, computes long enough
    for a checkpoint to land with all six pending, then waits for them;
    a second wave after it checks that the collective sequence numbers
    realigned."""

    def main(self, api):
        me, p = self.rank, api.size
        out = []
        for wave in range(2):
            slots = [
                (yield from api.ibarrier()),
                (yield from api.ibcast(("b", wave) if me == 1 % p else None,
                                       root=1 % p)),
                (yield from api.ireduce(me * 10 + wave, MAX, root=p - 1)),
                (yield from api.iallreduce(np.full(3, float(me + wave)), SUM)),
                (yield from api.ialltoall([(me, j, wave) for j in range(p)])),
                (yield from api.iallgather(("g", me, wave))),
            ]
            yield from api.compute(2e-3)
            for slot in slots:
                payload, _st = yield from api.wait(slot)
                if isinstance(payload, np.ndarray):
                    payload = tuple(payload)
                out.append(payload)
        return out


def test_the_registry_covers_every_kind():
    assert set(ICOLL_DESCS) == set(KINDS)


@pytest.mark.parametrize("p", [3, 4])
def test_restart_with_all_six_icoll_kinds_in_flight(p):
    factory = lambda r: SixInFlight(r)
    cfg = ManaConfig.feature_2pc()
    native = run_app_native(p, factory, TESTBOX)
    base = ManaSession(p, factory, TESTBOX, cfg).run()
    assert base.results == native.results
    restarted = ManaSession(p, factory, TESTBOX, cfg).run(
        checkpoints=[CheckpointPlan(at=base.elapsed * 0.25, action="restart")]
    )
    assert restarted.results == native.results
    assert len(restarted.restarts) == 1
    per_rank = restarted.restarts[0]["per_rank"]
    assert [v["icolls_replayed"] for v in per_rank.values()] == [6] * p


def test_an_unknown_icoll_op_is_a_restart_error():
    class Log:
        records = [IcollRecord(op="iscan", comm_vid=0)]

    class Rank:
        rt = type("Rt", (), {"lib": None})()
        task = None
        icoll_log = Log()

    with pytest.raises(RestartError, match="unknown icoll op 'iscan'"):
        next(_replay_icolls(Rank()))
