"""A deterministic host-cost budget for the REEXEC replay path.

Wall-clock on a shared box drifts by tens of per cent; the number of
Python-level calls one resume makes does not drift at all.  This guard
profiles one REEXEC resume of a token ring halted late in its run, on
the default (raw log walk) replay path, and bounds the profiled call
count.  It claims no speed — it keeps per-call replay work, such as a
scheduler round trip per replayed call, from growing back unnoticed.

Measured on CPython 3.11: 49,863 calls per resume while every replayed
call and replayed ``compute()`` still yielded ``Advance(0.0)`` to the
scheduler; 31,815 once they return with no scheduler interaction.  The
count depends on the interpreter version; the bound carries 5 % of
headroom over the second figure.
"""

import cProfile
import gc

from repro.apps.micro import TokenRing
from repro.hosts import CORI_HASWELL
from repro.mana import ManaConfig, ManaSession
from repro.mana.session import CheckpointPlan, resume_from_checkpoint

NRANKS, LAPS, HALT_FRAC = 16, 40, 0.9
#: profiled calls per resume (31,815 when set; 49,863 with a scheduler
#: round trip per replayed call)
MAX_CALLS = 33_400


def profiled_calls(run) -> int:
    # the cyclic collector runs finalizers whenever allocation counts
    # say so, which depends on what ran before: collect what earlier
    # tests left behind, then keep it off while counting
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
        gc.enable()
    # summed per code object: ``pstats`` keys entries by (file, line,
    # name) and keeps one of any that collide (every dataclass's
    # generated ``__init__`` is ``<string>:2``), which one depending on
    # object addresses
    return sum(entry.callcount for entry in profile.getstats())


def test_resume_call_count_is_bounded_and_repeats(tmp_path):
    cfg = ManaConfig.feature_2pc().but(record_replay=True)
    factory = lambda r: TokenRing(r, laps=LAPS)  # noqa: E731
    full = ManaSession(NRANKS, factory, CORI_HASWELL, cfg).run()
    halted = ManaSession(NRANKS, factory, CORI_HASWELL, cfg)
    halted.run(checkpoints=[
        CheckpointPlan(at=full.elapsed * HALT_FRAC, action="halt")])
    path = tmp_path / "ring.ckpt"
    halted.save_checkpoint(path)

    def resume():
        sess = resume_from_checkpoint(path, factory, CORI_HASWELL, cfg)
        assert sess.run().results == full.results
        assert sess.rt.cfg.replay_compile == "off"
        assert sum(r["replayed_calls"] for r in sess.rt.reexec_records)

    # lazy imports and process-wide memos fill on the first resume
    resume()
    calls = profiled_calls(resume)
    assert profiled_calls(resume) == calls
    assert calls <= MAX_CALLS, f"{calls} profiled calls per resume"
