"""The campaign executor: fan cells across cores, survive anything.

One worker process per slot, ``workers`` of them, each running cell
after cell.  The parent never runs simulation code; it owns the queue,
hands an idle worker its next cell over that worker's own pipe, reads
one outcome back, arms a deadline per cell at hand-off, retries
transient failures (a crashed or timed-out worker) a bounded number of
times, and journals every finished cell through :class:`CampaignStore`
the moment it lands.  A cell that raises is a *failed cell*; a worker
that dies — SIGKILL, OOM, segfault — is a *crashed cell* and a worker to
replace; neither is ever a campaign failure.  Kill the parent itself and
the journal still holds every finished cell: resuming skips them and
continues.

This is not a pool.  A pool's workers pull from a shared queue, and one
that dies holding the queue's lock, or half way through a message,
poisons it for the rest.  Here nothing is shared between workers: a pipe
carries one task at a time to one worker, so a death costs exactly the
cell in flight on that pipe — the same price as when every cell had a
process of its own, without the fork, the copy-on-write faults and the
exit per cell (a quarter to a half of a chaos cell's slot).  What
licenses running many cells in one process is the Determinism contract
of :mod:`repro.campaign.cells`: a cell's result is a pure function of
``(params, attempt)``, whatever ran in the process before it.

A worker starts warm.  Before the first one the parent imports every
module a cell would otherwise import for itself, and has each *reference
run* its pending cells name — the fault-free golden of a chaos grid, the
uncheckpointed and checkpointed runtimes of an availability study; the
same for every cell that shares the key — computed once, in a worker
like any other, whose answer it installs in :mod:`repro.util.reference`.
The cell workers are forked after that and inherit both.  A reference
run that raises, hangs or dies is a failed *preparation*: nothing is
installed, and each worker computes its own, once, as a cell run alone
would.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.bench.attribution import git_sha, seed_git_sha
from repro.campaign.cells import reference_keys, run_cell
from repro.campaign.spec import CampaignSpec, Cell
from repro.campaign.store import CampaignStore
from repro.errors import CampaignError, JobLostError
from repro.mana.session import import_deferred_modules
from repro.util import reference

#: statuses the runner will re-attempt (transient by construction:
#: the process died or overran its deadline — a deterministic Python
#: exception would just fail again)
RETRYABLE = ("crashed", "timeout")


def _worker_main(conn, sha: Optional[str], inherited) -> None:
    """Run tasks — cells, or reference runs — as the parent hands them
    over, one outcome back per task, until it closes the pipe."""
    seed_git_sha(sha)  # never shell out to git from a worker
    for parent_end in inherited:
        # a fork holds a copy of the parent's end of every pipe open at
        # the time, its own included; EOF must mean the parent let go
        parent_end.close()
    while True:
        try:
            fn, *args = conn.recv()
        except (EOFError, OSError):
            return
        try:
            outcome = {"status": "ok", "result": fn(*args)}
        except JobLostError as exc:
            # graceful degradation is a *reportable outcome*, not a cell
            # failure: the job exhausted its recovery ladder and ended in
            # the typed terminal state, with the work lost fully accounted
            outcome = {
                "status": "lost",
                "result": dict(exc.record),
                "error": str(exc),
            }
        except BaseException as exc:  # noqa: BLE001 — isolation boundary
            outcome = {
                "status": "failed",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        conn.send(outcome)


@dataclass
class _Worker:
    proc: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    item: object = None       #: the Cell, or the reference key, in flight
    attempt: int = 0
    deadline: float = 0.0     #: of the task in flight


@dataclass
class CampaignRun:
    """What one ``run_campaign`` invocation did."""

    total: int = 0            #: cells in the grid (after dedup)
    skipped: int = 0          #: cache hits: finished in a prior run
    ran: int = 0              #: cells executed to a terminal status now
    retries: int = 0          #: extra attempts spent on transient failures
    #: cell workers started: one per slot in use, plus one for every
    #: attempt that crashed or timed out
    workers_started: int = 0
    #: distinct reference runs the cells launched now found computed
    #: (once, by this campaign or an earlier one in this process)
    reference_runs: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    records: Dict[str, dict] = field(default_factory=dict)
    wall_s: float = 0.0       #: informational; never journaled

    @property
    def failed_cells(self) -> int:
        # "lost" is a reported experimental outcome (graceful job loss
        # with accounting), not a campaign-level failure
        return sum(n for s, n in self.counts.items()
                   if s not in ("ok", "lost"))


def _context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _outcome_of(worker: _Worker, deadline_s: float) -> Optional[dict]:
    """The outcome of the task ``worker`` has in flight, once there is
    one: what it sent, or ``crashed``/``timeout`` made up here — and then
    the worker is dead, or killed."""
    # liveness first, the pipe second: a worker that answers and dies
    # between the two looks is still seen to have answered
    alive = worker.proc.is_alive()
    if worker.conn.poll():
        try:
            return worker.conn.recv()
        except (EOFError, OSError):
            alive = False  # died before/mid send
    if alive:
        if time.monotonic() < worker.deadline:
            return None
        worker.proc.kill()
        return {"status": "timeout",
                "error": f"cell exceeded {deadline_s:g}s timeout"}
    # one deterministic message whichever way the death was observed
    # (pipe EOF vs. exit status) — journals must not depend on that race
    worker.proc.join()
    return {"status": "crashed",
            "error": f"worker died with exit code {worker.proc.exitcode}"}


def _drain(ctx, sha: Optional[str], nworkers: int, deadline_s: float,
           pending: Deque[Tuple[object, int]],
           task: Callable[[object, int], tuple],
           finish: Callable[[object, int, dict], None]) -> int:
    """Run every ``(item, attempt)`` of ``pending`` on at most
    ``nworkers`` worker processes, each task for at most ``deadline_s``;
    returns how many workers that took.

    ``task(item, attempt)`` is the ``(fn, *args)`` a worker is sent;
    ``finish(item, attempt, outcome)`` gets the outcome the moment it is
    known — ``{"status", "result", "error", "traceback"}`` as the worker
    sent it, or ``crashed``/``timeout`` from :func:`_outcome_of` — and
    may append to ``pending``.  A worker runs task after task; one that
    dies or overruns costs the task it had and is replaced.
    """
    workers: List[_Worker] = []
    #: pipe → worker with a task in flight: what the parent waits on
    busy: Dict["multiprocessing.connection.Connection", _Worker] = {}
    started = 0

    def start() -> _Worker:
        nonlocal started
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, daemon=True,
            args=(child_conn, sha, [parent_conn] + [w.conn for w in workers]))
        proc.start()
        child_conn.close()
        workers.append(_Worker(proc, parent_conn))
        started += 1
        return workers[-1]

    def replace(worker: _Worker) -> None:
        """``worker`` is dead: a fresh one takes its slot."""
        worker.proc.join()
        worker.conn.close()
        workers.remove(worker)
        start()

    def hand_off(item, attempt: int) -> None:
        idle = [w for w in workers if w.item is None]
        worker = idle[0] if idle else start()
        try:
            worker.conn.send(task(item, attempt))
        except OSError:
            # it died while idle: no task was lost, so none is charged
            replace(worker)
            return hand_off(item, attempt)
        worker.item, worker.attempt = item, attempt
        worker.deadline = time.monotonic() + deadline_s  # per task
        busy[worker.conn] = worker

    try:
        while pending or busy:
            while pending and len(busy) < nworkers:
                hand_off(*pending.popleft())
            # a worker that dies closes its end: its pipe reads EOF
            multiprocessing.connection.wait(busy, timeout=0.05)
            for worker in list(busy.values()):
                outcome = _outcome_of(worker, deadline_s)
                if outcome is None:
                    continue
                del busy[worker.conn]
                item, worker.item = worker.item, None
                if outcome["status"] in RETRYABLE:
                    replace(worker)  # made up here: it is gone
                finish(item, worker.attempt, outcome)
    finally:
        # bounded, interrupted or not: EOF asks a worker to leave, and
        # one that does not (still in a cell, a thread that lingers) is
        # killed
        for worker in workers:
            worker.conn.close()
        patience = time.monotonic() + 0.5
        for worker in workers:
            worker.proc.join(max(0.0, patience - time.monotonic()))
            worker.proc.kill()
            worker.proc.join()
    return started


def _reference_waves(
        cells: Iterable[Cell]) -> Tuple[List[List[reference.Key]], int]:
    """The distinct reference runs ``cells`` need, by position in each
    cell's list, and how many of the cells need any.  A run may build on
    those listed before it, so wave *i* is computed once wave *i − 1* is
    installed."""
    waves: List[Dict[reference.Key, None]] = []
    users = 0
    for cell in cells:
        try:
            keys = reference_keys(cell.kind, cell.params_dict)
        except Exception:  # noqa: BLE001 — bad params: a failed cell,
            continue       # found and reported by its own worker
        users += bool(keys)
        for depth, key in enumerate(keys):
            if depth == len(waves):
                waves.append({})
            waves[depth][key] = None
    return [list(wave) for wave in waves], users


def run_campaign(
    spec: Optional[CampaignSpec],
    root,
    workers: Optional[int] = None,
    on_existing: str = "error",
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignRun:
    """Run (or resume) a campaign into directory ``root``.

    ``on_existing`` governs an already-populated directory: ``"error"``
    refuses (fresh runs), ``"resume"`` verifies the spec hash matches
    and continues from the journal.  ``spec`` may be None only when
    resuming — it is then rebuilt from the manifest.
    """
    if on_existing not in ("error", "resume"):
        raise ValueError(f"on_existing must be 'error' or 'resume', "
                         f"got {on_existing!r}")
    say = progress or (lambda _msg: None)
    store = CampaignStore(root)
    if store.exists():
        if on_existing == "error":
            raise CampaignError(
                f"campaign directory {store.root} already holds a "
                "manifest; resume it or pick a fresh directory"
            )
        if spec is None:
            spec = store.load_spec()
        else:
            store.check_spec(spec)
    else:
        if spec is None:
            raise CampaignError(
                f"no campaign manifest at {store.root} and no spec given"
            )
        store.create(spec)

    # dedup identical cells (identical config hash ⇒ one execution)
    cells: List[Cell] = []
    seen = set()
    for cell in spec.cells():
        if cell.cell_id not in seen:
            seen.add(cell.cell_id)
            cells.append(cell)

    done = store.records()
    pending: Deque[Tuple[Cell, int]] = deque(
        (c, 0) for c in cells if c.cell_id not in done
    )
    run = CampaignRun(total=len(cells), skipped=len(cells) - len(pending))
    say(f"campaign {spec.name!r}: {run.total} cells "
        f"({run.skipped} cached, {len(pending)} to run)")

    nworkers = max(1, workers or os.cpu_count() or 1)
    deadline_s = timeout_s if timeout_s is not None else spec.timeout_s
    sha = git_sha()  # resolve once; workers inherit, never fork git
    ctx = _context()
    t0 = time.monotonic()

    def install(key, _attempt: int, outcome: dict) -> None:
        if outcome["status"] == "ok":
            reference.install(key, outcome["result"])
        else:
            say(f"  reference run {key} {outcome['status']}: "
                f"{outcome.get('error')} (each cell computes its own)")

    def journal(cell: Cell, attempt: int, outcome: dict) -> None:
        status = outcome["status"]
        attempts = attempt + 1
        if status in RETRYABLE and attempts < spec.max_attempts:
            run.retries += 1
            say(f"  retry {cell.cell_id} (attempt {attempts + 1} after "
                f"{status})")
            pending.append((cell, attempt + 1))
            return
        record = {
            "cell_id": cell.cell_id,
            "kind": cell.kind,
            "config_hash": cell.config_hash,
            "params": cell.params_dict,
            "status": status,
            "attempts": attempts,
            "result": outcome.get("result"),
            "error": outcome.get("error"),
        }
        if outcome.get("traceback") is not None:
            record["traceback"] = outcome["traceback"]
        store.append(record)
        run.ran += 1
        run.counts[status] = run.counts.get(status, 0) + 1
        if status != "ok":
            say(f"  cell {cell.cell_id} {status}: {record['error']}")
        elif run.ran % 25 == 0:
            say(f"  {run.ran}/{run.total - run.skipped} cells done")

    drain = functools.partial(_drain, ctx, sha, nworkers, deadline_s)
    shared_by = 0
    try:
        if pending and ctx.get_start_method() == "fork":
            # everything a worker would import or compute for itself
            # that is the same for all of them: done once here, or in a
            # worker whose answer is kept, and inherited by every fork
            import_deferred_modules()
            waves, shared_by = _reference_waves(c for c, _ in pending)
            for wave in waves:
                drain(deque((key, 0) for key in reference.missing(wave)),
                      lambda key, _attempt: (reference.lookup, key),
                      install)
            keys = [key for wave in waves for key in wave]
            run.reference_runs = len(keys) - len(reference.missing(keys))
        run.workers_started = drain(
            pending,
            lambda cell, attempt: (run_cell, cell.kind, cell.params_dict,
                                   attempt),
            journal)
    finally:
        store.close()

    run.wall_s = time.monotonic() - t0
    run.records = store.records()
    parts = [f"{n} {s}" for s, n in sorted(run.counts.items())]
    if run.skipped:
        parts.append(f"{run.skipped} cached")
    rate = f", {run.ran / run.wall_s:.1f} cells/s" if run.ran else ""
    shared = (f"; {run.reference_runs} reference "
              f"{'run' if run.reference_runs == 1 else 'runs'} shared by "
              f"{shared_by} cells" if shared_by else "")
    say(f"campaign {spec.name!r} finished: " + ", ".join(parts)
        + f" ({run.wall_s:.1f}s wall, {run.workers_started} workers started "
        f"for {run.ran} cells{rate}{shared})")
    return run
