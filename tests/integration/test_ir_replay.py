"""Integration: the IR replay compiler driving REEXEC restarts.

The contract under test: with the no-op pass pipeline the compiled
replay is indistinguishable from the raw log walk — same virtual times,
same results; with the optimizing pipeline the final virtual times,
results and scheduler events still match.  No interpreter yields to the
scheduler for a replayed call, so a rank replays its whole log inside
the scheduler step that starts it.  Bit-level stream identity is pinned by
``tests/property/test_fastpath_golden.py``; here we cover the runtime
wiring: per-resume compilation, image-level compilation shared across
restart rounds, divergence detection, and recovery interplay.
"""

import pytest

from repro.apps.micro import (
    AllreduceLoop,
    CommChurn,
    IcollStream,
    RandomPt2Pt,
    TokenRing,
)
from repro.errors import RestartError
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.ir_bridge import compile_image
from repro.mana.session import (
    HALTED,
    CheckpointPlan,
    resume_from_checkpoint,
)

CFG = ManaConfig.feature_2pc().but(record_replay=True)

APPS = {
    "ring": (4, lambda r: TokenRing(r, laps=8, compute_s=1e-3), 0.5),
    "allreduce": (4, lambda r: AllreduceLoop(r, iters=8, compute_s=1e-3),
                  0.45),
    "randpt2pt": (5, lambda r: RandomPt2Pt(r, 5, rounds=8, seed=3,
                                           compute_s=1e-4), 0.5),
    "icoll": (4, lambda r: IcollStream(r, waves=5, inflight=3,
                                       compute_s=1e-3), 0.5),
    "churn": (4, lambda r: CommChurn(r, generations=4, compute_s=1e-3),
              0.6),
}


def save_halted(tmp_path, nranks, factory, frac, cfg=CFG,
                name="ckpt.img"):
    baseline = ManaSession(nranks, factory, TESTBOX, cfg).run()
    halted = ManaSession(nranks, factory, TESTBOX, cfg)
    out = halted.run(checkpoints=[
        CheckpointPlan(at=baseline.elapsed * frac, action="halt")
    ])
    assert out.results == [HALTED] * nranks
    path = tmp_path / name
    halted.save_checkpoint(path)
    return baseline, path


class TestCompiledReplay:
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("mode", ["noop", "opt"])
    def test_matches_legacy(self, tmp_path, app, mode):
        nranks, factory, frac = APPS[app]
        baseline, path = save_halted(tmp_path, nranks, factory, frac)
        legacy_sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                             replay_compile="off")
        legacy = legacy_sess.run()
        sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                      replay_compile=mode)
        out = sess.run()
        assert out.results == legacy.results == baseline.results
        assert out.elapsed == legacy.elapsed
        # no interpreter makes a scheduler round trip per replayed call,
        # so the optimizing pipeline has no events left to eliminate
        assert sess.sched.events_run == legacy_sess.sched.events_run

    @pytest.mark.parametrize("mode", ["off", "noop", "opt"])
    def test_replay_makes_no_scheduler_round_trip(self, tmp_path,
                                                  monkeypatch, mode):
        """Each rank reaches its replay-to-live transition inside the
        very scheduler event that first steps it: replayed calls and
        replayed ``compute()`` never yield."""
        import repro.mana.reexec as reexec

        nranks, factory, frac = APPS["ring"]
        _, path = save_halted(tmp_path, nranks, factory, frac)
        sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                      replay_compile=mode)
        sched = sess.sched
        # the scheduler publishes its running event count only to
        # watches: arm one on each event of the replay phase
        current = [0]
        for n in range(1, 64):
            sched.add_event_watch(n, lambda n=n: current.__setitem__(0, n))
        reached = {}
        transition = reexec.reexec_transition

        def hooked(api):
            reached[api.mrank.rank] = current[0]
            return transition(api)

        monkeypatch.setattr(reexec, "reexec_transition", hooked)
        out = sess.run()
        assert out.results == [TokenRing.expected(r, nranks, 8)
                               for r in range(nranks)]
        names = [p.name for p in sched.procs]
        assert reached == {r: names.index(f"rank{r}") + 1
                           for r in range(nranks)}

    def test_restart_records_carry_mode(self, tmp_path):
        nranks, factory, frac = APPS["ring"]
        _, path = save_halted(tmp_path, nranks, factory, frac)
        sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                      replay_compile="opt")
        sess.run()
        recs = sess.rt.reexec_records
        assert len(recs) == nranks
        for rec in recs:
            assert rec["replay_compile"] == "opt"
            assert rec["compiled_ops"] is not None
            assert rec["replayed_calls"] > 0


class TestCompileImage:
    """compile_image: one compilation per saved image, shared across
    restart rounds (the Figure 3 regime)."""

    def test_rounds_share_programs(self, tmp_path):
        nranks, factory, frac = APPS["ring"]
        baseline, path = save_halted(tmp_path, nranks, factory, frac)
        cfg = CFG.but(replay_compile="opt")
        compiled = compile_image(path, cfg, TESTBOX)
        assert set(compiled) == set(range(nranks))
        outs = []
        for _ in range(3):
            sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                          replay_compile="opt",
                                          compiled=compiled)
            outs.append(sess.run())
        assert all(o.results == baseline.results for o in outs)
        assert len({o.elapsed for o in outs}) == 1
        # the cursors memoized their flat tape on the shared programs
        assert all(p._tape is not None for p in compiled.values())

    def test_mismatched_compilation_rejected(self, tmp_path):
        """Programs compiled against a different image must be refused,
        not silently replayed into divergence."""
        nranks, factory, frac = APPS["ring"]
        _, path = save_halted(tmp_path, nranks, factory, frac)
        other_factory = lambda r: TokenRing(r, laps=16, compute_s=1e-3)
        _, other = save_halted(tmp_path, nranks, other_factory, frac,
                               name="other.img")
        compiled = compile_image(other, CFG.but(replay_compile="opt"),
                                 TESTBOX)
        sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                      replay_compile="opt",
                                      compiled=compiled)
        with pytest.raises(RestartError, match="different image"):
            sess.run()

    def test_off_mode_ignores_precompiled(self, tmp_path):
        nranks, factory, frac = APPS["ring"]
        baseline, path = save_halted(tmp_path, nranks, factory, frac)
        compiled = compile_image(path, CFG.but(replay_compile="opt"),
                                 TESTBOX)
        sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                      replay_compile="off",
                                      compiled=compiled)
        out = sess.run()
        assert out.results == baseline.results


class TestDivergenceAndRecovery:
    def test_divergence_detected_under_compilation(self, tmp_path):
        """A nondeterministic program (different factory on resume) must
        still raise the divergence error through the IR interpreter."""
        nranks, factory, frac = APPS["ring"]
        _, path = save_halted(tmp_path, nranks, factory, frac)
        wrong = lambda r: AllreduceLoop(r, iters=8, compute_s=1e-3)
        sess = resume_from_checkpoint(path, wrong, TESTBOX, CFG,
                                      replay_compile="opt")
        with pytest.raises(RestartError, match="replay divergence"):
            sess.run()

    def test_divergence_text_is_the_same_on_every_interpreter(
            self, tmp_path):
        """The trimmed raw walk and both cursors report a wrong opname
        with one and the same message."""
        nranks, factory, frac = APPS["ring"]
        _, path = save_halted(tmp_path, nranks, factory, frac)
        wrong = lambda r: AllreduceLoop(r, iters=8, compute_s=1e-3)
        texts = set()
        for mode in ("off", "noop", "opt"):
            sess = resume_from_checkpoint(path, wrong, TESTBOX, CFG,
                                          replay_compile=mode)
            with pytest.raises(RestartError) as err:
                sess.run()
            texts.add(str(err.value))
        assert texts == {
            "replay divergence at call 0: application called 'allreduce' "
            "but the log has 'send' — the program is not deterministic"
        }

    def test_second_checkpoint_after_compiled_resume(self, tmp_path):
        """The compiled-resumed session keeps recording and survives a
        further in-session restart."""
        factory = lambda r: TokenRing(r, laps=10, compute_s=1e-3)
        baseline = ManaSession(4, factory, TESTBOX, CFG).run()
        halted = ManaSession(4, factory, TESTBOX, CFG)
        halted.run(checkpoints=[
            CheckpointPlan(at=baseline.elapsed * 0.3, action="halt")
        ])
        path = tmp_path / "c1.img"
        halted.save_checkpoint(path)
        sess = resume_from_checkpoint(path, factory, TESTBOX, CFG,
                                      replay_compile="opt")
        out = sess.run(checkpoints=[
            CheckpointPlan(at=baseline.elapsed * 0.4, action="restart")
        ])
        assert out.results == baseline.results
