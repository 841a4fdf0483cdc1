"""Crash-anywhere chaos harness: prove recovery under arbitrary fault
timing.

The sweep re-runs one deterministic workload many times, injecting a
fault at the k-th scheduler event — *any* event, including inside the
checkpoint commit, inside the recovery window, and during REEXEC
replay — and then checks invariants with :func:`verify_run`.  The
harness only draws the fault: each point is one seeded
``FaultSpec(kind, at_event=k, ...)``, fired by the same
:class:`~repro.faults.injector.FaultInjector` as every other fault, so
chaos kills, storms and store damage are the scenarios' own.  Every
injection point must end in exactly one of three accounted outcomes:

* ``completed`` — the fault was absorbed (or landed after the work was
  done) and the results are bit-identical to the fault-free golden;
* ``recovered`` — automatic rollback-restart brought the job back and
  the results are bit-identical to the golden;
* ``lost`` — the job ended in the typed graceful-degradation path
  (:class:`~repro.errors.JobLostError`) with a fully-accounted terminal
  record.

Anything else — a hang, an unhandled exception through the DES loop, a
silently-wrong result, an undrained event queue — is a *violation* and
fails the sweep.  Everything is deterministic in ``(seed, kind,
event)``: the same sweep produces bit-identical classifications and
virtual times.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.des.process import ProcState
from repro.errors import JobLostError
from repro.faults import token_ring_job
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.hosts import TESTBOX_MN
from repro.mana.config import ManaConfig
from repro.mana.session import ManaSession
from repro.storage import StoragePolicy
from repro.util.reference import reference_run
from repro.util.rng import make_rng

#: fault kinds the chaos sweep knows how to throw at an event index
CHAOS_KINDS = ("kill_rank", "node_loss", "tier_lost", "oob_delay",
               "blob_corrupt", "crash_storm")

#: default sweep kinds (the acceptance mix: a crash, a lossy channel,
#: and silent storage damage)
DEFAULT_KINDS = ("kill_rank", "oob_delay", "blob_corrupt")

#: event-count ceiling per chaos session: a zero-dt livelock must fail
#: fast as a SimulationError (a violation), not spin to the 500M backstop
_MAX_EVENTS = 2_000_000


def chaos_config() -> ManaConfig:
    """The hardened configuration every chaos session runs under:
    fault-tolerant base, full storage ladder (so tier damage degrades
    instead of killing the job instantly), the heartbeat suspicion
    window, and the recovery-under-fire knobs armed."""
    return ManaConfig.fault_tolerant().but(
        name="chaos",
        storage=StoragePolicy.ladder(),
        heartbeat_probes=1,
        recovery_deadline=0.5,
        recovery_backoff=1e-3,
        max_incarnations=6,
    )


def _session(nranks: int, laps: int) -> ManaSession:
    factory, _ = token_ring_job(nranks, laps)
    sess = ManaSession(nranks, factory, TESTBOX_MN, chaos_config())
    sess.sched._max_events = _MAX_EVENTS
    return sess


@reference_run
def chaos_golden(nranks: int = 4, laps: int = 6) -> dict:
    """The fault-free reference: same config, same periodic checkpoints,
    zero injections.  Defines the event range to sweep, the result every
    surviving run must reproduce bit-for-bit, and the horizon.

    A reference run (:mod:`repro.util.reference`): two full sessions,
    computed once per process for each ``(nranks, laps)`` and shared by
    every point that strikes it — read-only."""
    _factory, expected = token_ring_job(nranks, laps)
    probe = _session(nranks, laps).run()
    assert probe.results == expected, "chaos workload reference is wrong"
    interval = probe.elapsed / 3.0
    sess = _session(nranks, laps)
    out = sess.run(checkpoint_interval=interval)
    assert out.results == expected, "chaos golden run is wrong"
    return {
        "nranks": nranks,
        "laps": laps,
        "interval": interval,
        "events": sess.sched.events_run,
        "elapsed": out.elapsed,
        "expected": expected,
        "epochs_committed": len([r for r in out.checkpoints
                                 if not r.get("skipped")
                                 and not r.get("aborted")]),
    }


# ----------------------------------------------------------------------
# fault arming: one seeded fault, fired immediately before the k-th event
# ----------------------------------------------------------------------
def _arm_chaos_fault(sess: ManaSession, kind: str, event: int, seed: int,
                     depth: int) -> dict:
    """Arm fault ``kind`` to fire right before the ``event``-th scheduler
    event dispatches: one ``FaultSpec(kind, at_event=event, ...)``
    through the :class:`FaultInjector`.  All randomness is drawn from
    ``make_rng(seed, "chaos", kind, event)`` at arm time, so the same
    (seed, kind, event) always injects the same fault."""
    nranks = sess.rt.nranks
    rng = make_rng(seed, "chaos", kind, event)
    detail: dict = {"kind": kind, "event": event}
    if kind in ("kill_rank", "blob_corrupt"):
        victim = int(rng.integers(nranks))
        detail["rank"] = victim
        spec = FaultSpec(kind, at_event=event, rank=victim)
    elif kind == "crash_storm":
        start = int(rng.integers(nranks))
        # gaps straddle the detection latency (~heartbeat_timeout): short
        # gaps merge victims into one detection, long ones land follow-up
        # kills inside the recovery window itself — the cascade path
        gap = float(rng.uniform(2e-3, 1.5e-2))
        detail.update(rank=start, depth=depth, gap=gap)
        spec = FaultSpec(kind, at_event=event, rank=start, count=depth,
                         delay=gap)
    elif kind == "node_loss":
        node = sess.machine.node_of(int(rng.integers(nranks)))
        detail["node"] = node
        spec = FaultSpec(kind, at_event=event, node=node)
    elif kind == "tier_lost":
        tier = ("local", "partner", "bb")[int(rng.integers(3))]
        detail["tier"] = tier
        spec = FaultSpec(kind, at_event=event, tier=tier)
    elif kind == "oob_delay":
        delay = float(rng.uniform(2e-3, 8e-3))
        detail.update(delay=delay, msgs=6)
        spec = FaultSpec(kind, at_event=event, count=6, delay=delay)
    else:
        raise ValueError(f"unknown chaos kind {kind!r}; one of {CHAOS_KINDS}")
    FaultInjector(sess, FaultSchedule([spec])).arm()
    return detail


# ----------------------------------------------------------------------
# post-run invariants
# ----------------------------------------------------------------------
def verify_run(sess: ManaSession, outcome, expected,
               lost: bool) -> List[str]:
    """Check the terminal-state invariants every chaos run must satisfy.
    Returns a list of violation strings (empty = clean).

    * drain-to-zero: the event queue is empty (no self-rescheduling
      timer chain survived the end of the job);
    * no orphan processes: every non-daemon process is DONE (or KILLED
      by an injected fault / teardown), and *no* process ended FAILED —
      an exception through the DES loop is never acceptable;
    * protocol counters consistent: the coordinator is idle (or halted
      on the job-lost path), and every recovery record is coherent
      (recovered after detected, non-negative work lost);
    * the result is bit-identical to the fault-free golden unless the
      run ended in the typed job-lost outcome.
    """
    v: List[str] = []
    sched = sess.sched
    if sched._queue or sched._fifo:
        v.append(f"event queue not drained: {len(sched._queue)} heap + "
                 f"{len(sched._fifo)} fifo entries pending")
    failed = [p.name for p in sched.procs if p.state is ProcState.FAILED]
    if failed:
        v.append(f"processes died on an exception: {failed[:8]}")
    orphans = [p.name for p in sched.unfinished()]
    if orphans and not lost:
        v.append(f"orphan processes: {orphans[:8]}")
    coord = sess.coordinator
    if coord.phase != "idle" and not coord.halted:
        v.append(f"coordinator wedged in phase {coord.phase!r}")
    records = list(sess.rt.recovery_records)
    for rec in records:
        if rec.get("job_lost"):
            continue
        if rec["recovered_at"] < rec["detected_at"]:
            v.append(f"recovery record incoherent: recovered_at "
                     f"{rec['recovered_at']} < detected_at "
                     f"{rec['detected_at']}")
        if rec["work_lost"] < 0:
            v.append(f"negative work_lost {rec['work_lost']}")
    if lost:
        if not records or not records[-1].get("job_lost"):
            v.append("JobLostError raised without a terminal record")
    else:
        if outcome is None:
            v.append("run returned no outcome and raised nothing typed")
        elif outcome.results != expected:
            v.append(f"silently wrong result: {outcome.results!r}")
    return v


# ----------------------------------------------------------------------
def run_chaos_point(kind: str, event: int, seed: int = 0,
                    golden: Optional[dict] = None, nranks: int = 4,
                    laps: int = 6, depth: int = 2) -> dict:
    """Run the workload once with fault ``kind`` injected right before
    scheduler event ``event``; classify and verify the terminal state.

    Returns a JSON-friendly dict with ``classification`` in
    ``completed`` / ``recovered`` / ``lost`` / ``violation`` plus the
    fault detail, recovery accounting, and any violation strings.
    """
    if golden is None:
        golden = chaos_golden(nranks, laps)
    expected = golden["expected"]
    horizon = golden["elapsed"] * 10.0 + 5.0
    sess = _session(golden["nranks"], golden["laps"])
    detail = _arm_chaos_fault(sess, kind, event, seed, depth)
    outcome = None
    lost = False
    error: Optional[str] = None
    lost_record: Optional[dict] = None
    try:
        outcome = sess.run(until=horizon,
                           checkpoint_interval=golden["interval"])
    except JobLostError as exc:
        lost = True
        error = str(exc)
        lost_record = dict(exc.record)
    except Exception as exc:  # noqa: BLE001 - a violation, reported below
        error = f"{type(exc).__name__}: {exc}"
    violations = verify_run(sess, outcome, expected, lost)
    if error is not None and not lost:
        violations.insert(0, f"unhandled exception: {error}")
    if outcome is not None and sess.sched.now >= horizon:
        violations.append(f"hang: virtual horizon {horizon} reached")

    recoveries = [r for r in sess.rt.recovery_records
                  if not r.get("job_lost")]
    if violations:
        classification = "violation"
    elif lost:
        classification = "lost"
    elif recoveries:
        classification = "recovered"
    else:
        classification = "completed"
    mttr = (sum(r["recovered_at"] - r["detected_at"] for r in recoveries)
            / len(recoveries)) if recoveries else None
    return {
        "fault": detail,
        "kind": kind,
        "event": event,
        "seed": seed,
        "classification": classification,
        "elapsed": sess.sched.now,
        "recoveries": len(recoveries),
        "attempts": sum(r.get("attempts", 1) for r in recoveries),
        "mttr": mttr,
        "work_lost": (lost_record["work_lost"] if lost_record is not None
                      else sum(r["work_lost"] for r in recoveries)),
        "error": error,
        "violations": violations,
    }


def run_chaos_sweep(nranks: int = 4, laps: int = 6,
                    kinds: Sequence[str] = DEFAULT_KINDS,
                    points: int = 25, seed: int = 0,
                    depth: int = 2) -> dict:
    """The crash-anywhere sweep: ``points`` evenly spaced injection
    events x ``kinds`` faults, every run classified and verified.

    Returns ``{"golden", "points": [...], "summary"}`` where summary
    carries the survival rate (completed+recovered over total), the
    mean time to recover, and the per-kind classification counts.
    """
    golden = chaos_golden(nranks, laps)
    stride = max(1, golden["events"] // (points + 1))
    targets = [stride * (i + 1) for i in range(points)
               if stride * (i + 1) <= golden["events"]]
    results = []
    for kind in kinds:
        for event in targets:
            results.append(run_chaos_point(
                kind, event, seed=seed, golden=golden, depth=depth,
            ))
    return {"golden": golden, "points": results,
            "summary": summarize_sweep(results)}


def summarize_sweep(results: Sequence[dict]) -> dict:
    """Aggregate a list of chaos-point results."""
    by_class: Dict[str, int] = {}
    by_kind: Dict[str, Dict[str, int]] = {}
    for r in results:
        by_class[r["classification"]] = by_class.get(
            r["classification"], 0) + 1
        per = by_kind.setdefault(r["kind"], {})
        per[r["classification"]] = per.get(r["classification"], 0) + 1
    total = len(results)
    survived = by_class.get("completed", 0) + by_class.get("recovered", 0)
    mttrs = [r["mttr"] for r in results if r["mttr"] is not None]
    return {
        "total": total,
        "by_classification": by_class,
        "by_kind": by_kind,
        "survival_rate": survived / total if total else None,
        "lost": by_class.get("lost", 0),
        "violations": sum(len(r["violations"]) for r in results),
        "mttr_mean": sum(mttrs) / len(mttrs) if mttrs else None,
    }


def chaos_cell_references(params: dict) -> tuple:
    """The reference runs a chaos cell is handed, as keys: its golden."""
    return (chaos_golden.key(int(params.get("nranks", 4)),
                             int(params.get("laps", 6))),)


def run_chaos_cell(params: dict, golden: dict) -> dict:
    """One chaos point as a campaign cell body.

    ``params`` names the fault kind and a *point index* (1-based, out of
    ``points``) rather than a raw event number, so the campaign grid is
    static JSON; the cell derives its injection event from ``golden``,
    the reference run :func:`chaos_cell_references` names for it — one
    golden per ``(nranks, laps)``, shared by every cell of the grid.
    Violations raise (the runner records a failed cell — correctly, a
    chaos violation IS a failure of the system under test); a job-lost
    point re-raises the typed :class:`JobLostError` so the runner's
    ``"lost"`` outcome path aggregates it with its work-lost accounting.
    """
    kind = params["fault"]
    idx = int(params["point"])
    points = int(params["points"])
    seed = int(params.get("seed", 0))
    depth = int(params.get("depth", 2))
    stride = max(1, golden["events"] // (points + 1))
    event = min(stride * idx, golden["events"])
    point = run_chaos_point(kind, event, seed=seed, golden=golden,
                            depth=depth)
    if point["violations"]:
        raise AssertionError(
            f"chaos invariant violated at {kind}@{event}: "
            + "; ".join(point["violations"])
        )
    if point["classification"] == "lost":
        raise JobLostError(
            f"chaos point {kind}@{event}: {point['error']}",
            record={
                "kind": kind,
                "event": event,
                "work_lost": point["work_lost"],
                "elapsed": point["elapsed"],
                "classification": "lost",
            },
        )
    return {
        "classification": point["classification"],
        "event": event,
        "elapsed": point["elapsed"],
        "mttr": point["mttr"],
        "work_lost": point["work_lost"],
        "recoveries": point["recoveries"],
        "attempts": point["attempts"],
        "fault": point["fault"],
    }
