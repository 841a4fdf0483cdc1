"""Cell kinds: the registered runners a campaign can fan out.

A *cell* is one self-contained, seeded simulation (or a synthetic test
payload) identified entirely by its ``(kind, params)`` pair.  Runners
take the parameter dict plus the attempt index and return a
JSON-serializable result dict; they run inside crash-isolated worker
processes, so a runner that raises, hangs, or dies with SIGKILL costs
the campaign exactly one failed cell, never the campaign.

Determinism contract: a runner's result must be a pure function of
``(params, attempt)`` — no wall-clock values, no process-dependent
state, nothing left behind by a cell the process ran earlier — so that
the same campaign run with 1 worker or 8, interrupted or not,
aggregates bit-identically.  It is also what lets a worker run many
cells: the runner relies on it, ``test_campaign_workers.py`` holds it.

Reference runs: a kind may name, as a function of its params, the
fault-free runs it measures against (:mod:`repro.util.reference`).
:func:`run_cell` looks each one up — held already when a campaign
computed it once for the whole grid, computed on the spot otherwise —
and hands the values to the runner after ``attempt``.  There is one
body per kind either way, and a value is a pure function of its key, so
the contract above does not notice where it came from.

Every import a cell needs is made when this module is: a campaign's
workers are forked from its parent, and what the parent has not
imported each of them imports again.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import RecoveryError
from repro.faults import token_ring_job
from repro.faults.chaos import chaos_cell_references, run_chaos_cell
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import run_scenario
from repro.faults.schedule import FaultSchedule
from repro.hosts import TESTBOX, TESTBOX_MN, machine_by_name
from repro.mana.config import ManaConfig
from repro.mana.session import ManaSession
from repro.storage.policy import policy_by_name
from repro.util import reference
from repro.util.hashing import stable_hash
from repro.util.rng import make_rng

CELL_KINDS: Dict[str, Callable[..., dict]] = {}
#: kind → params → the keys of the reference runs its runner is handed
CELL_REFERENCES: Dict[str, Callable[[dict], Tuple[reference.Key, ...]]] = {}


def cell_kind(name: str,
              references: Optional[Callable[[dict], tuple]] = None):
    def register(fn):
        CELL_KINDS[name] = fn
        if references is not None:
            CELL_REFERENCES[name] = references
        return fn

    return register


def reference_keys(kind: str, params: dict) -> Tuple[reference.Key, ...]:
    """The reference runs one cell needs, dependencies first."""
    keys = CELL_REFERENCES.get(kind)
    return keys(params) if keys is not None else ()


def run_cell(kind: str, params: dict, attempt: int = 0) -> dict:
    """Execute one cell in the current process (the worker entry point)."""
    if kind not in CELL_KINDS:
        raise KeyError(
            f"unknown cell kind {kind!r}; known: {', '.join(CELL_KINDS)}"
        )
    refs = [reference.lookup(key) for key in reference_keys(kind, params)]
    return CELL_KINDS[kind](params, attempt, *refs)


# ----------------------------------------------------------------------
# the two reference runs of the token-ring job the fault, storage and
# availability sweeps strike (repro.faults.token_ring_job)
# ----------------------------------------------------------------------

@reference.reference_run
def ring_ref(nranks: int, machine: str) -> float:
    """T: the runtime of the job under the paper's 2PC configuration, no
    checkpoints, no faults."""
    factory, expected = token_ring_job(nranks)
    ref = ManaSession(nranks, factory, machine_by_name(machine),
                      ManaConfig.feature_2pc()).run()
    assert ref.results == expected
    return ref.elapsed


@reference.reference_run
def ring_base(nranks: int, machine: str, policy: Optional[str],
              interval_frac: float) -> dict:
    """The job checkpointing every ``interval_frac × T`` under the
    fault-tolerant configuration (storage ``policy``, or its default),
    no faults: what a failure's cost is measured against."""
    factory, expected = token_ring_job(nranks)
    cfg = ManaConfig.fault_tolerant()
    if policy is not None:
        cfg = cfg.but(storage=policy_by_name(policy))
    interval = ring_ref(nranks, machine) * interval_frac
    base = ManaSession(nranks, factory, machine_by_name(machine), cfg).run(
        checkpoint_interval=interval
    )
    assert base.results == expected
    committed = [
        r for r in base.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    ]
    return {
        "interval": interval,
        "elapsed": base.elapsed,
        "first_commit": committed[0]["completed_at"],
        "ckpts_committed": len(committed),
        "copies_per_epoch": base.storage.get("copies_written", 0)
        // max(1, base.storage.get("epochs_committed", 1)),
    }


def _ring_references(machine, policy_param: Optional[str] = None):
    """Key function of a token-ring kind: ``ring_ref`` then ``ring_base``
    on ``machine``, the storage policy read from ``policy_param``."""
    def keys(params: dict) -> tuple:
        nranks = int(params["nranks"])
        policy = params[policy_param] if policy_param else None
        return (ring_ref.key(nranks, machine.name),
                ring_base.key(nranks, machine.name, policy,
                              float(params["interval_frac"])))

    return keys


# ----------------------------------------------------------------------
@cell_kind("synthetic")
def synthetic(params: dict, attempt: int) -> dict:
    """A cheap deterministic payload for tests and CI smokes.

    ``fail_mode`` turns the cell into a controlled failure: ``raise``
    throws, ``sigkill`` kills its own worker process (the crash the
    runner must isolate), ``hang`` sleeps past any timeout, ``flaky``
    SIGKILLs on the first attempt and succeeds on retry — exercising the
    bounded-retry path end to end; ``linger`` returns its result but
    leaves a non-daemon thread behind, so its worker cannot exit on its
    own.
    """
    seed = int(params.get("seed", 0))
    mode = params.get("fail_mode", "none")
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s:
        time.sleep(sleep_s)
    if mode == "raise":
        raise ValueError(f"synthetic cell failure (seed {seed})")
    if mode == "sigkill" or (mode == "flaky" and attempt == 0):
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        time.sleep(3600.0)
    if mode == "linger":
        threading.Thread(target=time.sleep, args=(3600.0,)).start()
    h = stable_hash(f"synthetic:{seed}".encode())
    acc = 0.0
    for i in range(int(params.get("work", 100))):
        acc += ((h >> (i % 56)) & 0xFF) / 255.0
    return {"value": (h % 10**9) / 10**9, "acc": acc, "seed": seed}


# ----------------------------------------------------------------------
@cell_kind("scenario")
def scenario(params: dict, attempt: int) -> dict:
    """One named survivability scenario (repro.faults.scenarios)."""
    summary = run_scenario(params["scenario"], seed=int(params["seed"]),
                           nranks=int(params["nranks"]))
    summary["verdict"] = "ok" if summary["ok"] else "failed"
    return summary


# ----------------------------------------------------------------------
@cell_kind("fault_recovery", references=_ring_references(TESTBOX))
def fault_recovery(params: dict, attempt: int, ref_elapsed: float,
                   base: dict) -> dict:
    """One point of the fault-recovery sweep: periodic checkpoints, one
    seeded-random kill after the first committed epoch (mirrors
    ``benchmarks/bench_fault_recovery.py``)."""
    nranks = int(params["nranks"])
    seed = int(params["seed"])
    factory, expected = token_ring_job(nranks)
    interval = base["interval"]
    first_commit = base["first_commit"]
    tail = base["elapsed"] - first_commit
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    plan = FaultSchedule(seed=seed).random_kill(
        nranks, first_commit + 0.05 * tail, first_commit + 0.8 * tail
    )
    FaultInjector(sess, plan).arm()
    out = sess.run(checkpoint_interval=interval)
    assert out.results == expected, "recovery changed the application output"
    kill = next(f for f in out.faults if f["kind"] == "kill_rank")
    return {
        "interval": interval,
        "killed_rank": kill["rank"],
        "killed_at": kill["at"],
        "detection_latency": out.detections[0]["detected_at"] - kill["at"],
        "work_lost": out.recoveries[0]["work_lost"],
        "recovery_overhead": out.elapsed - base["elapsed"],
        "elapsed": out.elapsed,
        "ref_elapsed": ref_elapsed,
    }


# ----------------------------------------------------------------------
@cell_kind("storage_redundancy",
           references=_ring_references(TESTBOX_MN, "policy"))
def storage_redundancy(params: dict, attempt: int, ref_elapsed: float,
                       base: dict) -> dict:
    """One point of the storage-redundancy sweep: periodic checkpoints
    under one redundancy policy, then a node loss after the first
    committed epoch (mirrors ``benchmarks/bench_storage_redundancy.py``).
    An unrecoverable job is an expected negative result, not a cell
    failure: it reports ``outcome == "unrecoverable"`` (``local_only``
    always; ``xor4`` when the victim shares a node with the group's
    parity block — see the campaign notes in EXPERIMENTS.md)."""
    nranks = int(params["nranks"])
    policy_name = params["policy"]
    seed = int(params["seed"])
    factory, expected = token_ring_job(nranks)
    cfg = ManaConfig.fault_tolerant().but(storage=policy_by_name(policy_name))
    interval = base["interval"]
    first_commit = base["first_commit"]
    fault_at = first_commit + 0.4 * (base["elapsed"] - first_commit)
    victim = seed % nranks
    node = TESTBOX_MN.node_of(victim)
    sess = ManaSession(nranks, factory, TESTBOX_MN, cfg)
    FaultInjector(sess, FaultSchedule(seed=seed).lose_node(node, fault_at)).arm()
    point = {
        "policy": policy_name,
        "interval": interval,
        "victim": victim,
        "node": node,
        "fault_at": fault_at,
        "ckpt_overhead": base["elapsed"] - ref_elapsed,
        "ckpts_committed": base["ckpts_committed"],
        "copies_per_epoch": base["copies_per_epoch"],
    }
    try:
        out = sess.run(checkpoint_interval=interval)
    except RecoveryError as exc:
        point.update(outcome="unrecoverable", work_lost=None,
                     recovery_overhead=None, error=type(exc).__name__)
        return point
    assert out.results == expected, "recovery changed the application output"
    recovery = out.recoveries[0]
    point.update(
        outcome="survived",
        recovered_epoch=recovery["epoch"],
        epoch_fallbacks=recovery.get("epoch_fallbacks", 0),
        work_lost=recovery["work_lost"],
        recovery_overhead=out.elapsed - base["elapsed"],
        error=None,
    )
    return point


# ----------------------------------------------------------------------
@cell_kind("chaos", references=chaos_cell_references)
def chaos(params: dict, attempt: int, golden: dict) -> dict:
    """One crash-anywhere chaos point (repro.faults.chaos): inject one
    seeded fault right before the cell's injection event, then verify
    the terminal-state invariants.  A violated invariant raises (a
    failed cell); a typed job-lost outcome propagates as JobLostError,
    which the runner classifies as the reportable ``"lost"`` status with
    its work-lost accounting — degradation is a result, not a bug."""
    return run_chaos_cell(params, golden)


# ----------------------------------------------------------------------
@cell_kind("availability", references=_ring_references(TESTBOX))
def availability(params: dict, attempt: int, ref_elapsed: float,
                 base: dict) -> dict:
    """One Monte-Carlo availability trial.

    A token-ring job checkpoints every ``interval_frac × T`` virtual
    seconds (T = fault-free runtime).  A failure time is drawn from an
    exponential distribution with mean ``mtbf_frac × T`` and a victim
    rank uniformly; the trial reports how much work the failure cost:

    * ``censored`` — the drawn failure lands after the job finished;
      nothing lost (the MTBF was survived outright).
    * ``recovered`` — automatic rollback-restart from the last durable
      epoch; ``work_lost`` is the rolled-back progress.
    * ``lost`` — the failure precedes the first durable checkpoint, so
      there is nothing to roll back to; the whole run to that point is
      forfeit (``work_lost = kill_at``).
    """
    nranks = int(params["nranks"])
    interval_frac = float(params["interval_frac"])
    mtbf_frac = float(params["mtbf_frac"])
    seed = int(params["seed"])
    factory, expected = token_ring_job(nranks)
    interval = base["interval"]
    mtbf = ref_elapsed * mtbf_frac

    rng = make_rng(seed, "campaign", "availability", mtbf_frac, interval_frac)
    kill_at = float(rng.exponential(mtbf))
    victim = int(rng.integers(nranks))
    point = {
        "interval": interval,
        "mtbf": mtbf,
        "kill_at": kill_at,
        "victim": victim,
        "base_elapsed": base["elapsed"],
        "ref_elapsed": ref_elapsed,
    }
    if kill_at >= base["elapsed"]:
        point.update(outcome="censored", work_lost=0.0,
                     recovery_overhead=0.0, elapsed=base["elapsed"])
        return point
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    FaultInjector(sess, FaultSchedule(seed=seed).kill_rank(victim, kill_at)).arm()
    try:
        out = sess.run(checkpoint_interval=interval)
    except RecoveryError:
        # nothing durable yet: every virtual second up to the crash is gone
        point.update(outcome="lost", work_lost=kill_at,
                     recovery_overhead=None, elapsed=None)
        return point
    assert out.results == expected, "recovery changed the application output"
    recovery = out.recoveries[0]
    point.update(
        outcome="recovered",
        work_lost=recovery["work_lost"],
        recovery_overhead=out.elapsed - base["elapsed"],
        elapsed=out.elapsed,
    )
    return point
