"""Deterministic fault injection and automatic recovery scenarios.

This package is the *policy* layer for failures: the mechanism hooks
live below it (``Scheduler.kill``, the network and OOB fault filters,
``ManaRuntime.bb_fault_hook``, the coordinator's heartbeat monitor and
the session's :class:`~repro.mana.session.RecoveryOrchestrator`).
Nothing in ``repro.des`` / ``repro.simnet`` / ``repro.mana`` imports
this package — it only installs callbacks downward, which is what keeps
fault-free runs completely unaffected.

* :class:`FaultSpec` / :class:`FaultSchedule` — declarative one-shot
  faults ("kill rank 3 at t=2.5s", "drop the next COMMIT"), plus seeded
  random generation via :mod:`repro.util.rng` so chaos runs are
  bit-reproducible.
* :class:`FaultInjector` — arms a schedule on a wired
  :class:`~repro.mana.session.ManaSession`.
* :mod:`repro.faults.scenarios` — the named end-to-end survivability
  scenarios the CLI (``repro-mana faults``) and the fault benchmark run.
* :mod:`repro.faults.chaos` — the crash-anywhere sweep: a seeded fault
  at an event index, fired through the same injector.
* :func:`token_ring_job` — the token-ring job those sweeps, the
  campaign cells and the fault benches strike.
"""

from repro.apps.micro import TokenRing
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule, FaultSpec

__all__ = ["FaultInjector", "FaultSchedule", "FaultSpec", "token_ring_job"]


def token_ring_job(nranks: int, laps: int = 10):
    """The job every fault sweep strikes: a :class:`TokenRing` of
    ``laps`` laps with 2 ms of compute per hop.  Returns the per-rank
    app factory and the results a correct run ends with."""
    factory = lambda r: TokenRing(r, laps=laps, compute_s=2e-3)  # noqa: E731
    expected = [TokenRing.expected(r, nranks, laps) for r in range(nranks)]
    return factory, expected
