"""Integration: the paper's algorithmic contrasts, observed as behaviour.

* Section III-E: barrier-before-Bcast deadlocks; MANA-2.0's modes don't.
* The flawed no-barrier revision (Section III-J) checkpoints a
  half-done Bcast and hangs at restart.
* Section III-B: drain with messages genuinely in flight / in
  unexpected queues / matched by untested Irecvs.
* Section III-C: both restart reconstruction modes on a comm-churn
  workload.
* PT2PT_ALWAYS: a checkpoint landing in the *middle* of a collective.
"""

import pytest

from repro.apps.micro import (
    BcastThenSend,
    CommChurn,
    IcollStream,
    RandomPt2Pt,
    StragglerCollective,
    TokenRing,
)
from repro.errors import DeadlockError
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.config import CollectiveMode, CommReconstruction, DrainAlgorithm
from repro.mana.session import CheckpointPlan, run_app_native


def run_mana(nranks, factory, cfg, plans=(), until=None):
    session = ManaSession(nranks, factory, machine=TESTBOX, cfg=cfg)
    return session.run(checkpoints=plans, until=until)


class TestSectionIIIEDeadlock:
    factory = staticmethod(lambda r: BcastThenSend(r))

    def test_native_does_not_deadlock(self):
        out = run_app_native(2, self.factory, TESTBOX)
        assert out.results == ["payload", "payload"]

    def test_original_barrier_always_deadlocks(self):
        with pytest.raises(DeadlockError):
            run_mana(2, self.factory, ManaConfig.original())

    def test_master_barrier_always_deadlocks(self):
        with pytest.raises(DeadlockError):
            run_mana(2, self.factory, ManaConfig.master())

    def test_hybrid_runs_clean(self):
        out = run_mana(2, self.factory, ManaConfig.feature_2pc())
        assert out.results == ["payload", "payload"]

    def test_pt2pt_alternative_runs_clean(self):
        cfg = ManaConfig.feature_2pc().but(
            collective_mode=CollectiveMode.PT2PT_ALWAYS
        )
        out = run_mana(2, self.factory, cfg)
        assert out.results == ["payload", "payload"]


class TestFlawedNoBarrier:
    """A checkpoint cut between a Bcast root's early return and a leaf's
    entry is inconsistent; the flawed algorithm takes it anyway."""

    @staticmethod
    def factory(r):
        # rank 1 computes a long time before its Bcast, so a checkpoint
        # in that window finds root finished and leaf not entered
        from repro.apps.base import MpiProgram

        class SlowLeafBcast(MpiProgram):
            def main(self, api):
                if api.rank == 0:
                    value = yield from api.bcast("v", root=0)
                    yield from api.compute(0.2)  # park safely after
                    yield from api.barrier()
                else:
                    yield from api.compute(0.1)  # the checkpoint window
                    value = yield from api.bcast(None, root=0)
                    yield from api.barrier()
                return value

        return SlowLeafBcast(r)

    def test_flawed_restart_deadlocks(self):
        cfg = ManaConfig.feature_2pc().but(
            collective_mode=CollectiveMode.NO_BARRIER_FLAWED
        )
        with pytest.raises(DeadlockError):
            run_mana(2, self.factory, cfg,
                     plans=[CheckpointPlan(at=0.01, action="restart")])

    def test_hybrid_same_cut_is_safe(self):
        out = run_mana(2, self.factory, ManaConfig.feature_2pc(),
                       plans=[CheckpointPlan(at=0.01, action="restart")])
        assert out.results == ["v", "v"]

    def test_hybrid_resume_same_cut_is_safe(self):
        out = run_mana(2, self.factory, ManaConfig.feature_2pc(),
                       plans=[CheckpointPlan(at=0.01, action="resume")])
        assert out.results == ["v", "v"]


class TestDrain:
    @pytest.mark.parametrize("drain", [DrainAlgorithm.ALLTOALL,
                                       DrainAlgorithm.COORDINATOR])
    def test_random_traffic_restart(self, drain):
        nranks = 6
        factory = lambda r: RandomPt2Pt(r, nranks, rounds=10, seed=42)
        cfg = ManaConfig.feature_2pc().but(drain=drain)
        baseline = run_mana(nranks, factory, cfg)
        for frac in (0.2, 0.5, 0.8):
            plans = [CheckpointPlan(at=baseline.elapsed * frac, action="restart")]
            ck = run_mana(nranks, factory, cfg, plans)
            assert ck.results == baseline.results, f"diverged at frac={frac}"

    def test_coordinator_drain_costs_more_oob_messages(self):
        nranks = 6
        factory = lambda r: RandomPt2Pt(r, nranks, rounds=10, seed=7)
        base = ManaConfig.feature_2pc()
        probe = run_mana(nranks, factory, base)
        plan = [CheckpointPlan(at=probe.elapsed * 0.5, action="resume")]
        new = run_mana(nranks, factory,
                       base.but(drain=DrainAlgorithm.ALLTOALL), plan)
        old = run_mana(nranks, factory,
                       base.but(drain=DrainAlgorithm.COORDINATOR), plan)
        assert old.oob_messages > new.oob_messages

    def test_drained_messages_buffered_and_delivered(self):
        """Messages drained at checkpoint must reach their receives
        after restart, in order."""
        from repro.apps.base import MpiProgram

        class LateReceiver(MpiProgram):
            def main(self, api):
                if api.rank == 0:
                    for i in range(5):
                        yield from api.send((i, f"msg{i}"), 1, tag=2)
                    yield from api.barrier()
                    return None
                yield from api.compute(0.05)  # messages pile up unreceived
                got = []
                for _ in range(5):
                    data, _st = yield from api.recv(0, tag=2)
                    got.append(data)
                yield from api.barrier()
                return got

        out = run_mana(2, lambda r: LateReceiver(r), ManaConfig.feature_2pc(),
                       plans=[CheckpointPlan(at=0.01, action="restart")])
        assert out.results[1] == [(i, f"msg{i}") for i in range(5)]


class TestCommReconstruction:
    @pytest.mark.parametrize("mode", [CommReconstruction.ACTIVE_LIST,
                                      CommReconstruction.REPLAY_LOG])
    def test_comm_churn_restart(self, mode):
        factory = lambda r: CommChurn(r, generations=4, compute_s=1e-3)
        cfg = ManaConfig.feature_2pc().but(comm_reconstruction=mode)
        baseline = run_mana(4, factory, cfg)
        plans = [CheckpointPlan(at=baseline.elapsed * 0.6, action="restart")]
        ck = run_mana(4, factory, cfg, plans)
        assert ck.results == baseline.results

    def test_active_list_rebuilds_fewer_comms(self):
        factory = lambda r: CommChurn(r, generations=5, compute_s=1e-3)
        results = {}
        for mode in (CommReconstruction.ACTIVE_LIST, CommReconstruction.REPLAY_LOG):
            cfg = ManaConfig.feature_2pc().but(comm_reconstruction=mode)
            baseline = run_mana(4, factory, cfg)
            plans = [CheckpointPlan(at=baseline.elapsed * 0.8, action="restart")]
            ck = run_mana(4, factory, cfg, plans)
            results[mode] = ck.restarts[0]["per_rank"][0]["comms_rebuilt"]
        assert (results[CommReconstruction.ACTIVE_LIST]
                < results[CommReconstruction.REPLAY_LOG])


class TestPt2ptCollectiveMode:
    def test_checkpoint_lands_mid_collective(self):
        """With PT2PT_ALWAYS a checkpoint can interrupt a collective in
        progress and the collective completes after restart."""
        from repro.apps.base import MpiProgram
        from repro.simmpi.ops import SUM

        class SlowEntryAllreduce(MpiProgram):
            def main(self, api):
                # staggered entry: rank r enters the allreduce at ~r*20ms,
                # so a checkpoint at 30ms lands mid-collective
                yield from api.compute(0.02 * (api.rank + 1))
                v = yield from api.allreduce(api.rank + 1, SUM)
                return v

        cfg = ManaConfig.feature_2pc().but(
            collective_mode=CollectiveMode.PT2PT_ALWAYS
        )
        factory = lambda r: SlowEntryAllreduce(r)
        for action in ("resume", "restart"):
            out = run_mana(4, factory, cfg,
                           plans=[CheckpointPlan(at=0.03, action=action)])
            assert out.results == [10, 10, 10, 10], action

    def test_icoll_and_alt_collectives_coexist(self):
        cfg = ManaConfig.feature_2pc().but(
            collective_mode=CollectiveMode.PT2PT_ALWAYS
        )
        factory = lambda r: IcollStream(r, waves=3, inflight=2, compute_s=1e-3)
        baseline = run_mana(4, factory, cfg)
        plans = [CheckpointPlan(at=baseline.elapsed * 0.5, action="restart")]
        ck = run_mana(4, factory, cfg, plans)
        assert ck.results == [IcollStream.expected(4, 3, 2)] * 4


class TestStraggler:
    def test_checkpoint_waits_for_straggler(self):
        """With BARRIER_ALWAYS, peers sit inside the pre-collective
        barrier while the straggler computes; the checkpoint must wait
        for it (Section III-J)."""
        factory = lambda r: StragglerCollective(r, iters=2, slow_s=0.3)
        cfg = ManaConfig.master()
        out = run_mana(4, factory, cfg,
                       plans=[CheckpointPlan(at=0.01, action="resume")])
        assert out.results == [8, 8, 8, 8]
        rec = out.checkpoints[0]
        # the quiesce could not finish before the straggler's 0.3 s step
        assert rec["quiesce_time"] > 0.2

    def test_hybrid_also_correct_with_straggler(self):
        factory = lambda r: StragglerCollective(r, iters=2, slow_s=0.2)
        out = run_mana(4, factory, ManaConfig.feature_2pc(),
                       plans=[CheckpointPlan(at=0.01, action="restart")])
        assert out.results == [8, 8, 8, 8]


class TestEqualization:
    def test_release_rounds_recorded_when_collectives_open(self):
        """A checkpoint requested while ranks straddle collective
        instances must trigger release rounds (Section III-K)."""
        from repro.apps.base import MpiProgram
        from repro.simmpi.ops import SUM

        class Staggered(MpiProgram):
            def main(self, api):
                total = 0
                for i in range(6):
                    yield from api.compute(0.01 if api.rank else 0.03)
                    total += yield from api.allreduce(1, SUM)
                return total

        factory = lambda r: Staggered(r)
        out = run_mana(4, factory, ManaConfig.feature_2pc(),
                       plans=[CheckpointPlan(at=0.02, action="restart")])
        assert out.results == [24, 24, 24, 24]

    @pytest.mark.parametrize(
        "nranks,cfg,cut",
        [(64, ManaConfig(), 0.9), (512, ManaConfig.feature_2pc(), 0.67)],
        ids=["64-default", "512-feature_2pc"],
    )
    def test_release_rounds_do_not_grow_with_nranks(self, nranks, cfg, cut):
        """A late cut finds the fast ranks inside the world barrier of
        finalize.  One round releases the laggards into it (a second
        re-releases those that parked on a halo receive on the way);
        the reports that then arrive one per rank leaving the barrier
        are waits, not rounds — counting them made this nranks + 2 and
        turned the 512-rank run into a CheckpointError at the cap."""
        from repro.apps.md_proxy import MdConfig, MdProxy
        from repro.hosts import CORI_HASWELL

        md = MdConfig(nranks=nranks, steps=4, seed=2021)
        factory = lambda r: MdProxy(r, md, CORI_HASWELL)
        base = ManaSession(nranks, factory, CORI_HASWELL, cfg).run()
        out = ManaSession(nranks, factory, CORI_HASWELL, cfg).run(
            checkpoints=[CheckpointPlan(at=cut * base.elapsed,
                                        action="restart")])
        assert [c["release_rounds"] for c in out.checkpoints] == [2]
        assert len(out.restarts) == 1
        assert out.results == base.results
