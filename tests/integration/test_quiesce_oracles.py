"""The fabric-side oracles behind a checkpoint round actually fire.

``drain._assert_app_quiesced`` (every rank, every round) and the restart
teardown check read ``Network.app_in_flight``.  A correct drain never
trips them, so these tests plant the fault they exist to catch: one
application-context message the per-pair counters never saw.
"""

import pytest

from repro.apps.micro import TokenRing
from repro.errors import DrainError, RestartError
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession, drain
from repro.mana.config import DrainAlgorithm
from repro.mana.runtime import ManaRuntime
from repro.mana.session import CheckpointPlan
from repro.simnet.message import Message

NRANKS = 4
TARGET = 2


def _restart_session(cfg):
    factory = lambda r: TokenRing(r, laps=8, compute_s=2e-3)
    base = ManaSession(NRANKS, factory, TESTBOX, cfg).run()
    plans = [CheckpointPlan(at=base.elapsed * 0.4, action="restart")]
    return ManaSession(NRANKS, factory, TESTBOX, cfg), plans


def _plant_uncounted(rt, dst):
    """Inject an application-context message behind MANA's back."""
    msg = Message(src=(dst + 1) % NRANKS, dst=dst,
                  context_id=rt.lib.comm_world.pt2pt_ctx, tag=99,
                  payload=b"stray", nbytes=5)
    rt.network.inject(msg)
    return msg


@pytest.mark.parametrize(
    "algorithm", [DrainAlgorithm.ALLTOALL, DrainAlgorithm.COORDINATOR])
def test_drain_quiesce_oracle_names_rank_and_message(algorithm, monkeypatch):
    planted = []
    check = drain._assert_app_quiesced

    def plant_then_check(mrank):
        # called exactly when this rank's deficit has reached zero
        if mrank.rank == TARGET and not planted:
            planted.append(_plant_uncounted(mrank.rt, TARGET))
        check(mrank)

    monkeypatch.setattr(drain, "_assert_app_quiesced", plant_then_check)
    sess, plans = _restart_session(ManaConfig.feature_2pc().but(drain=algorithm))
    with pytest.raises(DrainError) as err:
        sess.run(checkpoints=plans)
    text = str(err.value)
    assert f"rank {TARGET}:" in text
    assert "1 application message(s) still in flight" in text
    assert repr(planted[0]) in text


def test_teardown_oracle_names_the_message(monkeypatch):
    planted = []
    teardown = ManaRuntime._teardown_and_replace_lower_half

    def plant_then_teardown(rt):
        planted.append(_plant_uncounted(rt, TARGET))
        teardown(rt)

    monkeypatch.setattr(
        ManaRuntime, "_teardown_and_replace_lower_half", plant_then_teardown)
    sess, plans = _restart_session(ManaConfig.feature_2pc())
    with pytest.raises(RestartError) as err:
        sess.run(checkpoints=plans)
    text = str(err.value)
    assert "1 application point-to-point messages still in flight" in text
    assert repr(planted[0]) in text
