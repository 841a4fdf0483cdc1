"""The campaign executor: fan cells across cores, survive anything.

One worker process per in-flight cell, bounded by ``workers``.  The
parent never runs simulation code; it launches workers, collects their
results over a pipe, enforces per-cell deadlines, retries transient
failures (a crashed or timed-out worker) a bounded number of times, and
journals every finished cell through :class:`CampaignStore` the moment
it lands.  A cell that raises is a *failed cell*; a worker that dies —
SIGKILL, OOM, segfault — is a *crashed cell*; neither is ever a
campaign failure.  Kill the parent itself and the journal still holds
every finished cell: resuming skips them and continues.

Process-per-cell (rather than a long-lived pool) is deliberate: a pool
worker that dies poisons the pool machinery, while a dead single-cell
process costs exactly its own cell.  Cells are seeded simulations
running tens of milliseconds to minutes, so the fork cost is noise.

What makes that true is that a fork starts warm.  Before its first
worker the parent imports every module a cell would otherwise import
for itself, and has each *reference run* its pending cells name — the
fault-free golden of a chaos grid, the uncheckpointed and checkpointed
runtimes of an availability study; the same for every cell that shares
the key — computed once, in a worker like any other, whose answer it
installs in :mod:`repro.util.reference`.  Every later fork inherits
both.  A reference run that raises, hangs or dies is a failed
*preparation*: nothing is installed, and each cell computes its own as
it would when run alone.
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


def _worker_main(conn, sha: Optional[str], fn: Callable, *args) -> None:
    """Run one task — a cell, or a reference run — and ship the outcome
    back over the pipe."""
    seed_git_sha(sha)  # never shell out to git from a worker
    try:
        result = fn(*args)
        conn.send({"status": "ok", "result": result})
    except JobLostError as exc:
        # graceful degradation is a *reportable outcome*, not a cell
        # failure: the job exhausted its recovery ladder and ended in
        # the typed terminal state, with the work lost fully accounted
        conn.send({
            "status": "lost",
            "result": dict(exc.record),
            "error": str(exc),
        })
    except BaseException as exc:  # noqa: BLE001 — isolation boundary
        conn.send({
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        })
    finally:
        try:
            conn.close()
        except OSError:
            pass


@dataclass
class _Slot:
    proc: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    item: object              #: the Cell, or the reference key
    attempt: int
    deadline: float
    delivered: bool = False   #: outcome handed on; waiting for the exit


@dataclass
class CampaignRun:
    """What one ``run_campaign`` invocation did."""

    total: int = 0            #: cells in the grid (after dedup)
    skipped: int = 0          #: cache hits: finished in a prior run
    ran: int = 0              #: cells executed to a terminal status now
    retries: int = 0          #: extra attempts spent on transient failures
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

    @property
    def lost_cells(self) -> int:
        return self.counts.get("lost", 0)


def _context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _drain(ctx, sha: Optional[str], nworkers: int, deadline_s: float,
           pending: Deque[Tuple[object, int]],
           task: Callable[[object, int], tuple],
           finish: Callable[[object, int, dict], None]) -> None:
    """Run every ``(item, attempt)`` of ``pending``, each in a process of
    its own, at most ``nworkers`` at once and for at most ``deadline_s``.

    ``task(item, attempt)`` is the ``(fn, *args)`` the worker calls;
    ``finish(item, attempt, outcome)`` gets the outcome the moment it is
    known — ``{"status", "result", "error", "traceback"}`` as the worker
    sent it, or ``crashed``/``timeout`` made up here — and may append to
    ``pending``.
    """
    inflight: List[_Slot] = []

    def launch(item, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, sha) + tuple(task(item, attempt)),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        inflight.append(_Slot(proc=proc, conn=parent_conn, item=item,
                              attempt=attempt,
                              deadline=time.monotonic() + deadline_s))

    def outcome_of(slot: _Slot) -> Optional[dict]:
        crashed = False
        if slot.conn.poll():
            try:
                return slot.conn.recv()
            except (EOFError, OSError):
                crashed = True  # worker died before/mid send
        elif not slot.proc.is_alive():
            crashed = True  # dead with nothing readable: same crash
        elif time.monotonic() >= slot.deadline:
            slot.proc.kill()
            return {"status": "timeout",
                    "error": f"cell exceeded {deadline_s:g}s timeout"}
        if crashed:
            # one deterministic message whichever way the death was
            # observed (pipe EOF vs. sentinel) — journals must not
            # depend on that race
            slot.proc.join()
            return {"status": "crashed",
                    "error": "worker died with exit code "
                             f"{slot.proc.exitcode}"}
        return None

    def reap(slot: _Slot) -> bool:
        """Hand on the slot's outcome once it has one; True once its
        process is gone as well and the slot is free."""
        if not slot.delivered:
            outcome = outcome_of(slot)
            if outcome is None:
                return False
            slot.delivered = True
            finish(slot.item, slot.attempt, outcome)
        if not multiprocessing.connection.wait([slot.proc.sentinel], 0):
            # it has answered and should be exiting; one that does not
            # (a lingering non-daemon thread, a blocked atexit) keeps
            # its slot until its deadline and is then killed
            if time.monotonic() < slot.deadline:
                return False
            slot.proc.kill()
        # the sentinel reads EOF once the worker has closed its files
        # on the way out, a moment before it can be reaped
        slot.proc.join()
        slot.conn.close()
        return True

    try:
        while pending or inflight:
            while pending and len(inflight) < nworkers:
                launch(*pending.popleft())
            multiprocessing.connection.wait(
                # an answered pipe stays readable (EOF) for good
                [s.conn for s in inflight if not s.delivered]
                + [s.proc.sentinel for s in inflight],
                timeout=0.05,
            )
            inflight[:] = [s for s in inflight if not reap(s)]
    finally:
        for slot in inflight:  # interrupted: leave no orphans
            slot.proc.kill()
            slot.proc.join()
            slot.conn.close()


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
        drain(pending,
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
        + f" ({run.wall_s:.1f}s wall, {nworkers} workers{rate}{shared})")
    return run
