"""Named end-to-end survivability scenarios.

Each scenario builds a workload, calibrates timing against a fault-free
reference run, injects its faults, and returns a JSON-friendly summary
with an ``ok`` verdict.  They are exercised three ways: the integration
tests, the ``repro-mana faults`` CLI subcommand, and
``benchmarks/bench_fault_recovery.py``.

Everything is deterministic in ``(seed, nranks)``: the same invocation
produces bit-identical summaries, virtual times included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.faults import token_ring_job
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.hosts import TESTBOX, TESTBOX_MN
from repro.mana.config import ManaConfig
from repro.mana.session import CheckpointPlan, ManaSession
from repro.storage import StoragePolicy


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    fn: Callable[[int, int], dict]


SCENARIOS: Dict[str, Scenario] = {}


def scenario(name: str, description: str):
    def register(fn):
        SCENARIOS[name] = Scenario(name=name, description=description, fn=fn)
        return fn

    return register


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def run_scenario(name: str, seed: int = 0, nranks: int = 4) -> dict:
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        )
    summary = SCENARIOS[name].fn(seed, nranks)
    summary.update({"scenario": name, "seed": seed, "nranks": nranks})
    return summary


# ----------------------------------------------------------------------
def _reference(nranks: int):
    factory, expected = token_ring_job(nranks)
    ref = ManaSession(
        nranks, factory, TESTBOX, ManaConfig.feature_2pc()
    ).run()
    assert ref.results == expected, "reference run is wrong; workload bug"
    return factory, expected, ref


# ----------------------------------------------------------------------
@scenario(
    "kill-after-ckpt",
    "kill a seeded-random rank after a committed checkpoint; the job "
    "must finish correctly via automatic rollback-restart",
)
def kill_after_ckpt(seed: int, nranks: int) -> dict:
    factory, expected, ref = _reference(nranks)
    plans = [CheckpointPlan(at=ref.elapsed * 0.3, action="resume")]
    # calibrate against a fault-free fault-tolerant run: the faulted run
    # is event-identical until the kill fires, so the calibrated commit
    # time is exact — the kill window provably lands after the epoch
    # became durable and before the job ends
    base = ManaSession(
        nranks, factory, TESTBOX, ManaConfig.fault_tolerant()
    ).run(checkpoints=list(plans))
    committed_at = base.checkpoints[0]["completed_at"]
    tail = base.elapsed - committed_at
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    plan = FaultSchedule(seed=seed).random_kill(
        nranks, committed_at + 0.15 * tail, committed_at + 0.6 * tail
    )
    FaultInjector(sess, plan).arm()
    out = sess.run(checkpoints=list(plans))
    recovery = out.recoveries[0] if out.recoveries else {}
    detection = out.detections[0] if out.detections else {}
    kill = next((f for f in out.faults if f["kind"] == "kill_rank"), {})
    return {
        "ok": out.results == expected and len(out.recoveries) == 1,
        "results_correct": out.results == expected,
        "killed_rank": kill.get("rank"),
        "killed_at": kill.get("at"),
        "detection_latency": (
            detection.get("detected_at", 0.0) - kill.get("at", 0.0)
            if kill and detection else None
        ),
        "work_lost": recovery.get("work_lost"),
        "recovery_count": len(out.recoveries),
        "elapsed": out.elapsed,
        "ref_elapsed": ref.elapsed,
    }


@scenario(
    "bb-write-abort",
    "a burst-buffer write fails mid-2PC; the coordinator must abort the "
    "epoch cleanly — no wedge, no partial image counted as durable",
)
def bb_write_abort(seed: int, nranks: int) -> dict:
    factory, expected, ref = _reference(nranks)
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    victim = seed % nranks
    plan = FaultSchedule(seed=seed).fail_bb_write(
        rank=victim, epoch=2, frac=0.6
    )
    FaultInjector(sess, plan).arm()
    out = sess.run(
        checkpoints=[
            CheckpointPlan(at=ref.elapsed * 0.3, action="resume"),
            CheckpointPlan(at=ref.elapsed * 0.6, action="resume"),
        ]
    )
    aborted = [r for r in out.checkpoints if r.get("aborted")]
    committed = [
        r for r in out.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    ]
    durable_epochs = sorted(
        {
            m.durable_image.epoch
            for m in sess.rt.ranks
            if m.durable_image is not None
        }
    )
    return {
        "ok": (
            out.results == expected
            and len(aborted) == 1
            and aborted[0]["epoch"] == 2
            and durable_epochs == [1]
        ),
        "results_correct": out.results == expected,
        "aborted_epochs": [r["epoch"] for r in aborted],
        "committed_epochs": [r["epoch"] for r in committed],
        "durable_epochs": durable_epochs,
        "failed_rank": victim,
        "elapsed": out.elapsed,
        "ref_elapsed": ref.elapsed,
    }


@scenario(
    "drop-commit",
    "the 2PC COMMIT to one rank is eaten by the coordinator channel; "
    "the bounded retransmit timer must re-send it and the cycle commit",
)
def drop_commit(seed: int, nranks: int) -> dict:
    factory, expected, ref = _reference(nranks)
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    victim = seed % nranks
    plan = FaultSchedule(seed=seed).drop_oob("checkpoint", dst=victim, count=1)
    FaultInjector(sess, plan).arm()
    out = sess.run(
        checkpoints=[CheckpointPlan(at=ref.elapsed * 0.4, action="resume")]
    )
    committed = [
        r for r in out.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    ]
    retries = list(sess.coordinator.retry_events)
    return {
        "ok": (
            out.results == expected
            and len(committed) == 1
            and len(retries) >= 1
            and len(out.faults) == 1
        ),
        "results_correct": out.results == expected,
        "committed_epochs": [r["epoch"] for r in committed],
        "retry_rounds": len(retries),
        "dropped": len(out.faults),
        "elapsed": out.elapsed,
        "ref_elapsed": ref.elapsed,
    }


# ----------------------------------------------------------------------
# storage scenarios: run on the one-rank-per-node testbox so partner
# replicas and node losses involve genuinely distinct nodes
# ----------------------------------------------------------------------
def _storage_session(nranks: int, factory, policy: StoragePolicy):
    cfg = ManaConfig.fault_tolerant().but(storage=policy)
    return ManaSession(nranks, factory, TESTBOX_MN, cfg)


def _two_ckpt_run(nranks: int, factory, policy, plans, schedule=None):
    """One calibrated run: two committed checkpoints, optional faults."""
    sess = _storage_session(nranks, factory, policy)
    if schedule is not None:
        FaultInjector(sess, schedule).arm()
    out = sess.run(checkpoints=list(plans))
    return sess, out


@scenario(
    "node-loss-degraded",
    "a node loss destroys one rank's primary checkpoint copies; with a "
    "partner replica the job recovers at the same epoch with zero extra "
    "work lost, while the same primary-copy damage with redundancy "
    "disabled falls back to the previous durable epoch",
)
def node_loss_degraded(seed: int, nranks: int) -> dict:
    factory, expected = token_ring_job(nranks)
    ref = ManaSession(
        nranks, factory, TESTBOX_MN, ManaConfig.feature_2pc()
    ).run()
    assert ref.results == expected, "reference run is wrong; workload bug"
    plans = [
        CheckpointPlan(at=ref.elapsed * 0.3, action="resume"),
        CheckpointPlan(at=ref.elapsed * 0.6, action="resume"),
    ]
    victim = seed % nranks
    partner = StoragePolicy.partner()
    local = StoragePolicy.local_only()

    # calibrate the fault time after the second commit (fault-free run
    # with the partner policy; the faulted runs are event-identical up
    # to the fault, so the commit landmark is exact)
    base = _two_ckpt_run(nranks, factory, partner, plans)[1]
    second_commit = base.checkpoints[1]["completed_at"]
    fault_at = second_commit + 0.3 * (base.elapsed - second_commit)

    # 1. crash with intact storage: the work-lost yardstick
    _, intact = _two_ckpt_run(
        nranks, factory, partner, plans,
        FaultSchedule(seed=seed).kill_rank(victim, fault_at),
    )
    # 2. node loss with a partner replica: primary copies die with the
    #    node, the replica restores the *same* epoch
    node = TESTBOX_MN.node_of(victim)
    _, degraded = _two_ckpt_run(
        nranks, factory, partner, plans,
        FaultSchedule(seed=seed).lose_node(node, fault_at),
    )
    # 3. the same primary-copy damage with redundancy disabled: the
    #    newest epoch is unrecoverable, so recovery degrades to the
    #    previous durable epoch
    _, fallback = _two_ckpt_run(
        nranks, factory, local, plans,
        FaultSchedule(seed=seed)
        .kill_rank(victim, fault_at)
        .lose_tier("local", at=fault_at, rank=victim, epoch=2),
    )

    rec_intact = intact.recoveries[0] if intact.recoveries else {}
    rec_degraded = degraded.recoveries[0] if degraded.recoveries else {}
    rec_fallback = fallback.recoveries[0] if fallback.recoveries else {}
    same_epoch = (
        rec_intact.get("epoch") == 2 and rec_degraded.get("epoch") == 2
    )
    zero_extra = rec_degraded.get("work_lost") == rec_intact.get("work_lost")
    fell_back = (
        rec_fallback.get("epoch") == 1
        and rec_fallback.get("epoch_fallbacks", 0) == 1
    )
    return {
        "ok": (
            intact.results == expected
            and degraded.results == expected
            and fallback.results == expected
            and same_epoch and zero_extra and fell_back
        ),
        "results_correct": (
            intact.results == expected
            and degraded.results == expected
            and fallback.results == expected
        ),
        "victim": victim,
        "node": node,
        "fault_at": fault_at,
        "intact_epoch": rec_intact.get("epoch"),
        "degraded_epoch": rec_degraded.get("epoch"),
        "fallback_epoch": rec_fallback.get("epoch"),
        "intact_work_lost": rec_intact.get("work_lost"),
        "degraded_work_lost": rec_degraded.get("work_lost"),
        "fallback_work_lost": rec_fallback.get("work_lost"),
        "zero_extra_work_lost": zero_extra,
        "degraded_sources": rec_degraded.get("storage_sources"),
        "elapsed": degraded.elapsed,
        "ref_elapsed": ref.elapsed,
    }


@scenario(
    "corrupt-blob",
    "one rank's primary image copy is silently corrupted; restart-path "
    "verification must catch it (traced verify_failed) and recover from "
    "the partner replica — never restart from bad bytes",
)
def corrupt_blob(seed: int, nranks: int) -> dict:
    from repro.util.trace import RingBufferSink

    factory, expected = token_ring_job(nranks)
    ref = ManaSession(
        nranks, factory, TESTBOX_MN, ManaConfig.feature_2pc()
    ).run()
    assert ref.results == expected, "reference run is wrong; workload bug"
    plans = [CheckpointPlan(at=ref.elapsed * 0.4, action="resume")]
    victim = seed % nranks
    policy = StoragePolicy.ladder()

    base = _two_ckpt_run(nranks, factory, policy, plans)[1]
    commit = base.checkpoints[0]["completed_at"]
    fault_at = commit + 0.3 * (base.elapsed - commit)

    cfg = ManaConfig.fault_tolerant().but(storage=policy)
    sink = RingBufferSink(capacity=65536)
    sess = ManaSession(nranks, factory, TESTBOX_MN, cfg, trace_sink=sink)
    plan = (
        FaultSchedule(seed=seed)
        .corrupt_blob(victim, at=fault_at, tier="local", epoch=1)
        .kill_rank(victim, fault_at)
    )
    FaultInjector(sess, plan).arm()
    out = sess.run(checkpoints=list(plans))

    rec = out.recoveries[0] if out.recoveries else {}
    verify_events = [
        e for e in sink.by_stage("storage") if e.kind == "verify_failed"
    ]
    recovered_events = [
        e for e in sink.events
        if e.stage == "recovery" and e.kind == "recovery_done"
    ]
    caught_before_recovery = bool(
        verify_events and recovered_events
        and verify_events[0].seq < recovered_events[0].seq
    )
    victim_source = (rec.get("storage_sources") or {}).get(victim)
    return {
        "ok": (
            out.results == expected
            and len(out.recoveries) == 1
            and rec.get("epoch") == 1
            and victim_source in ("partner", "bb")
            and caught_before_recovery
            and out.storage.get("verify_failed", 0) >= 1
        ),
        "results_correct": out.results == expected,
        "victim": victim,
        "victim_recovered_from": victim_source,
        "verify_failed_events": len(verify_events),
        "caught_before_recovery": caught_before_recovery,
        "epoch": rec.get("epoch"),
        "work_lost": rec.get("work_lost"),
        "elapsed": out.elapsed,
        "ref_elapsed": ref.elapsed,
    }


@scenario(
    "random-chaos",
    "periodic checkpointing with a seeded-random mid-run crash; the job "
    "must finish correctly whatever phase the crash lands in",
)
def random_chaos(seed: int, nranks: int) -> dict:
    factory, expected, ref = _reference(nranks)
    interval = ref.elapsed * 0.25
    # calibrate (see kill-after-ckpt): the kill may land in any 2PC
    # phase — including mid-cycle, exercising the crash-abort path — but
    # must fall after the first commit and before the job ends
    base = ManaSession(
        nranks, factory, TESTBOX, ManaConfig.fault_tolerant()
    ).run(checkpoint_interval=interval)
    first_commit = next(
        r["completed_at"] for r in base.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    )
    tail = base.elapsed - first_commit
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    plan = FaultSchedule(seed=seed).random_kill(
        nranks, first_commit + 0.05 * tail, first_commit + 0.8 * tail
    )
    FaultInjector(sess, plan).arm()
    out = sess.run(checkpoint_interval=interval)
    kill = next((f for f in out.faults if f["kind"] == "kill_rank"), {})
    return {
        "ok": out.results == expected and len(out.recoveries) == 1,
        "results_correct": out.results == expected,
        "killed_rank": kill.get("rank"),
        "killed_at": kill.get("at"),
        "checkpoints_committed": len(
            [
                r for r in out.checkpoints
                if not r.get("aborted") and not r.get("skipped")
            ]
        ),
        "checkpoints_aborted": len(
            [r for r in out.checkpoints if r.get("aborted")]
        ),
        "work_lost": (
            out.recoveries[0].get("work_lost") if out.recoveries else None
        ),
        "elapsed": out.elapsed,
        "ref_elapsed": ref.elapsed,
    }
