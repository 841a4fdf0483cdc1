"""End-to-end fault injection and automatic recovery.

The acceptance scenarios of the fault subsystem:

* a rank is killed mid-run *after* a committed checkpoint and the job
  completes with correct results via automatic rollback-restart;
* a burst-buffer write fails mid-2PC and the coordinator aborts the
  epoch cleanly — no wedge, no partial image counted as durable;
* a 2PC COMMIT directive is dropped on the coordinator channel and the
  bounded retransmit timer re-sends it.

The named scenarios in :mod:`repro.faults.scenarios` are the single
source of truth for how each is staged (the CLI and the fault benchmark
run the same code); the tests here assert on their verdicts plus the
structural facts each scenario reports.
"""

import pytest

from repro.apps.micro import TokenRing
from repro.errors import DrainError, ManaError
from repro.faults import FaultInjector, FaultSchedule, FaultSpec, token_ring_job
from repro.faults.chaos import chaos_config, chaos_golden
from repro.faults.scenarios import run_scenario, scenario_names
from repro.hosts import TESTBOX, TESTBOX_MN
from repro.mana import ManaConfig, ManaSession
from repro.mana.session import CheckpointPlan

#: the kinds that happen once, at their trigger, with the fields each
#: case gives them besides it
TIMED = {
    "kill_rank": dict(rank=1),
    "tier_lost": dict(tier="local"),
    "node_loss": dict(node=1),
    "blob_corrupt": dict(rank=2),
    "crash_storm": dict(rank=0, count=2, delay=5e-3),
}

#: the detail keys of each kind's ``fault_records`` entry, besides
#: ``spec``, ``kind`` and ``at``
DETAIL_KEYS = {
    "kill_rank": {"rank", "killed"},
    "crash_storm": {"rank", "killed", "storm_index"},
    "crash_during_recovery": {"rank", "killed", "phase", "attempt",
                              "incarnation"},
    "tier_lost": {"tier", "rank", "epoch", "copies_dropped"},
    "node_loss": {"node", "ranks", "copies_dropped"},
    "blob_corrupt": {"rank", "tier", "epoch", "corrupted"},
    "manifest_torn": {"epoch", "armed"},
    "oob_drop": {"msg_kind", "dst"},
    "oob_delay": {"msg_kind", "dst", "delay"},
    "net_drop": {"src", "dst", "nbytes"},
    "net_delay": {"src", "dst", "delay"},
    "bb_write_fail": {"rank", "epoch", "frac"},
}


# ----------------------------------------------------------------------
# spec hygiene
# ----------------------------------------------------------------------

def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="explode")
    with pytest.raises(ValueError):
        FaultSpec(kind="kill_rank", rank=0)        # no 'at'
    with pytest.raises(ValueError):
        FaultSpec(kind="oob_delay", match="intent")  # no positive delay
    with pytest.raises(ValueError):
        FaultSpec(kind="bb_write_fail", rank=0, frac=1.0)  # frac in [0,1)
    with pytest.raises(ValueError):
        FaultSpec(kind="net_drop", count=0)
    with pytest.raises(ValueError):                # one trigger, not two
        FaultSpec(kind="kill_rank", rank=0, at=1.0, at_event=5)
    with pytest.raises(ValueError):                # event indices are 1-based
        FaultSpec(kind="kill_rank", rank=0, at_event=0)
    for kind, fields in TIMED.items():             # a timed kind needs one
        with pytest.raises(ValueError):
            FaultSpec(kind=kind, **fields)


def test_injector_arms_only_once():
    sess = ManaSession(
        2, lambda r: TokenRing(r, laps=2), TESTBOX,
        ManaConfig.fault_tolerant(),
    )
    inj = FaultInjector(sess, FaultSchedule().kill_rank(0, at=1.0))
    inj.arm()
    with pytest.raises(RuntimeError):
        inj.arm()


# ----------------------------------------------------------------------
# the acceptance scenarios (seed-swept)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 5])
def test_kill_after_checkpoint_recovers_automatically(seed):
    s = run_scenario("kill-after-ckpt", seed=seed, nranks=4)
    assert s["ok"], s
    assert s["results_correct"]
    assert s["recovery_count"] == 1
    assert s["killed_at"] > 0
    assert s["detection_latency"] > 0
    assert s["work_lost"] > 0
    # recovery costs time, it never invents speedup
    assert s["elapsed"] > s["ref_elapsed"]


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_bb_write_failure_aborts_cleanly(seed):
    s = run_scenario("bb-write-abort", seed=seed, nranks=4)
    assert s["ok"], s
    assert s["results_correct"]          # the job was never wedged
    assert s["aborted_epochs"] == [2]
    assert s["committed_epochs"] == [1]
    assert s["durable_epochs"] == [1]    # the partial image is not durable


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_dropped_commit_is_retransmitted(seed):
    s = run_scenario("drop-commit", seed=seed, nranks=4)
    assert s["ok"], s
    assert s["dropped"] == 1
    assert s["retry_rounds"] >= 1
    assert s["committed_epochs"] == [1]


@pytest.mark.parametrize("seed", [2, 9])
def test_random_chaos_survives(seed):
    s = run_scenario("random-chaos", seed=seed, nranks=4)
    assert s["ok"], s
    assert s["checkpoints_committed"] >= 1


def test_every_scenario_passes_default_seed():
    for name in scenario_names():
        s = run_scenario(name, seed=0, nranks=4)
        assert s["ok"], (name, s)


# ----------------------------------------------------------------------
# direct structural checks that the scenarios don't cover
# ----------------------------------------------------------------------

def _run(nranks, cfg, schedule=None, **run_kwargs):
    factory = lambda r: TokenRing(r, laps=8, compute_s=2e-3)  # noqa: E731
    expected = [TokenRing.expected(r, nranks, 8) for r in range(nranks)]
    sess = ManaSession(nranks, factory, TESTBOX, cfg)
    if schedule is not None:
        FaultInjector(sess, schedule).arm()
    out = sess.run(**run_kwargs)
    return sess, out, expected


def test_fault_free_fault_tolerant_run_matches_feature_2pc():
    """Heartbeats and retry timers must not perturb virtual time."""
    _, base, expected = _run(4, ManaConfig.feature_2pc())
    _, ft, _ = _run(4, ManaConfig.fault_tolerant())
    assert ft.results == expected
    assert ft.elapsed == base.elapsed


def test_delayed_oob_directive_is_survived():
    """A slow coordinator channel stalls the cycle but corrupts nothing."""
    _, base, expected = _run(4, ManaConfig.fault_tolerant())
    plans = [CheckpointPlan(at=base.elapsed * 0.4, action="resume")]
    sched = FaultSchedule().delay_oob("intent", delay=2e-3, count=2)
    sess, out, _ = _run(
        4, ManaConfig.fault_tolerant(), sched, checkpoints=plans
    )
    assert out.results == expected
    assert len(out.faults) == 2
    committed = [
        r for r in out.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    ]
    assert len(committed) == 1


def test_abort_then_next_epoch_commits():
    """After a bb-write abort the *next* cycle succeeds and supersedes."""
    _, base, expected = _run(4, ManaConfig.fault_tolerant())
    plans = [
        CheckpointPlan(at=base.elapsed * 0.3, action="resume"),
        CheckpointPlan(at=base.elapsed * 0.6, action="resume"),
    ]
    sched = FaultSchedule().fail_bb_write(rank=1, epoch=1, frac=0.4)
    sess, out, _ = _run(
        4, ManaConfig.fault_tolerant(), sched, checkpoints=plans
    )
    assert out.results == expected
    aborted = [r for r in out.checkpoints if r.get("aborted")]
    committed = [
        r for r in out.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    ]
    assert [r["epoch"] for r in aborted] == [1]
    assert [r["epoch"] for r in committed] == [2]
    assert all(m.durable_image.epoch == 2 for m in sess.rt.ranks)


def test_recovery_accounting_is_coherent():
    """work_lost = detection time - durable epoch's taken_at, in order."""
    _, base, expected = _run(4, ManaConfig.fault_tolerant())
    plans = [CheckpointPlan(at=base.elapsed * 0.3, action="resume")]
    calib, with_ckpt, _ = _run(
        4, ManaConfig.fault_tolerant(), checkpoints=list(plans)
    )
    committed_at = with_ckpt.checkpoints[0]["completed_at"]
    kill_at = committed_at + (with_ckpt.elapsed - committed_at) * 0.4
    sess, out, _ = _run(
        4, ManaConfig.fault_tolerant(),
        FaultSchedule().kill_rank(2, at=kill_at),
        checkpoints=list(plans),
    )
    assert out.results == expected
    (fault,) = [f for f in out.faults if f["kind"] == "kill_rank"]
    (detection,) = out.detections
    (recovery,) = out.recoveries
    assert fault["rank"] == 2 and "main" in fault["killed"]
    assert detection["detected_at"] > fault["at"]
    assert recovery["dead_ranks"] == [2]
    assert recovery["work_lost"] > 0
    assert recovery["recovered_at"] >= detection["detected_at"]
    assert recovery["incarnation"] == 1


# ----------------------------------------------------------------------
# every kind through the one firing path: the chaos sweep's job and
# configuration, its fault-free golden run as the clock
# ----------------------------------------------------------------------

def _strike(schedule, watch_event=None):
    """Run the chaos job under ``schedule``.  Returns the session, how
    the run ended (its outcome, or the typed error it raised) and, when
    ``watch_event`` is given, the virtual time that event dispatched."""
    golden = chaos_golden(4, 6)
    factory, expected = token_ring_job(4, 6)
    sess = ManaSession(4, factory, TESTBOX_MN, chaos_config())
    FaultInjector(sess, schedule).arm()
    seen = []
    if watch_event is not None:
        sess.sched.add_event_watch(watch_event,
                                   lambda: seen.append(sess.sched.now))
    try:
        end = sess.run(until=golden["elapsed"] * 10 + 5,
                       checkpoint_interval=golden["interval"])
    except ManaError as exc:
        end = exc
    else:
        assert end.results == expected
    return sess, end, (seen[0] if seen else None)


def _assert_records(sess, kinds):
    recs = sess.rt.fault_records
    assert [r["kind"] for r in recs] == kinds
    for rec in recs:
        assert set(rec) == {"spec", "kind", "at"} | DETAIL_KEYS[rec["kind"]]
    return recs


def _trigger(trigger):
    golden = chaos_golden(4, 6)
    if trigger == "at":
        return {"at": golden["elapsed"] * 0.5}
    return {"at_event": golden["events"] // 2}


@pytest.mark.parametrize("trigger", ["at", "at_event"])
@pytest.mark.parametrize("kind", sorted(TIMED))
def test_timed_kind_fires_once_at_its_trigger(kind, trigger):
    when = _trigger(trigger)
    spec = FaultSpec(kind=kind, **when, **TIMED[kind])
    sess, end, event_t = _strike(FaultSchedule([spec]),
                                 watch_event=when.get("at_event"))
    assert not isinstance(end, ManaError), end
    # once; a storm once per victim, ``delay`` apart, from the trigger
    recs = _assert_records(sess, [kind] * (spec.count
                                           if kind == "crash_storm" else 1))
    fired_at = when.get("at", event_t)
    assert [r["at"] for r in recs] == [
        fired_at + j * spec.delay for j in range(len(recs))]


BUILT = {
    "kill_rank": lambda at: FaultSchedule().kill_rank(3, at=at),
    "crash_storm": lambda at: FaultSchedule().crash_storm(
        at, count=2, delay=5e-3, rank=3),
    "tier_lost": lambda at: FaultSchedule().lose_tier("partner", at=at),
    "node_loss": lambda at: FaultSchedule().lose_node(0, at=at),
    "blob_corrupt": lambda at: FaultSchedule().corrupt_blob(0, at=at),
    "manifest_torn": lambda at: FaultSchedule().tear_manifest(epoch=1),
    "crash_during_recovery": lambda at: FaultSchedule().kill_rank(
        1, at=at).kill_during_recovery(rank=2),
    "oob_drop": lambda at: FaultSchedule().drop_oob("checkpoint"),
    "oob_delay": lambda at: FaultSchedule().delay_oob("intent", 2e-3),
    # a dropped application message is a DrainError by design
    "net_drop": lambda at: FaultSchedule().drop_net(src=0, dst=1),
    "net_delay": lambda at: FaultSchedule().delay_net(
        1e-3, src=0, dst=1, count=3),
    "bb_write_fail": lambda at: FaultSchedule().fail_bb_write(rank=1),
}


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_every_builder_fires_through_the_injector(kind):
    schedule = BUILT[kind](_trigger("at")["at"])
    sess, end, _ = _strike(schedule)
    if kind == "net_drop":
        assert isinstance(end, DrainError), end
    else:
        assert not isinstance(end, ManaError), end
    # each spec fires its ``count`` times, in order
    _assert_records(sess, [s.kind for s in schedule.specs
                           for _ in range(s.count)])


@pytest.mark.parametrize("trigger", ["at", "at_event"])
@pytest.mark.parametrize("kind", ["oob_delay", "net_delay"])
def test_a_filter_matches_only_once_fired(kind, trigger):
    when = _trigger(trigger)
    spec = FaultSpec(kind=kind, delay=1e-3, count=3, **when)
    sess, end, event_t = _strike(FaultSchedule([spec]),
                                 watch_event=when.get("at_event"))
    assert not isinstance(end, ManaError), end
    recs = _assert_records(sess, [kind] * 3)
    assert min(r["at"] for r in recs) >= when.get("at", event_t)
    # with no trigger the same filter is live from arm() on
    live, _, _ = _strike(FaultSchedule([FaultSpec(kind=kind, delay=1e-3,
                                                  count=3)]))
    assert live.rt.fault_records[0]["at"] < min(r["at"] for r in recs)
