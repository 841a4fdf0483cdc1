"""Workers outlive their cells, and nothing a campaign promises moves.

A campaign worker runs cell after cell (``repro.campaign.runner``).
Two things have to stay true for that to be legitimate:

* *purity* — a cell's journal record is a pure function of ``(params,
  attempt)``: the same in a process forked for that cell alone as in one
  that has run the whole grid before it, in either order.  The
  simulator's process-global id counters (requests, messages, windows,
  Fortran addresses) order and label things inside a run; none of them
  may reach a journaled value, and these tests are where that is held;
* *isolation* — a worker's death costs the cell it was running and
  nothing else: the cells queued behind it run, the deadline is per
  cell, a worker that dies with nothing in hand charges nobody, and the
  number of workers started says so.
"""

import json
import multiprocessing
import os
import signal
import time
from collections import deque

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    aggregate_store,
    run_campaign,
    run_cell,
)
from repro.campaign import runner
from repro.campaign.cells import reference_keys
from repro.campaign.spec import (
    spec_availability_mc,
    spec_chaos,
    spec_fault_recovery,
    spec_storage_redundancy,
)
from repro.util import reference

SPECS = {
    "chaos": lambda: spec_chaos(points=6, nranks=4),
    "availability": lambda: spec_availability_mc(seeds=3),
    "fault-recovery": lambda: spec_fault_recovery(seeds=2),
    "storage-redundancy": lambda: spec_storage_redundancy(seeds=1),
}


@pytest.fixture(autouse=True)
def empty_memo():
    reference.clear()
    yield
    reference.clear()


def _snapshot(root):
    store = CampaignStore(root)
    return (json.dumps(store.records(), sort_keys=True),
            json.dumps(aggregate_store(store), sort_keys=True))


def _each_cell_in_a_fork_of_its_own(spec, root):
    """The journal ``spec`` gets when no process ever runs two cells:
    one fork of this process per cell, one task, one outcome."""
    ctx = multiprocessing.get_context("fork")
    store = CampaignStore(root)
    store.create(spec)
    for cell in spec.cells():
        parent_end, child_end = ctx.Pipe()
        proc = ctx.Process(target=runner._worker_main,
                           args=(child_end, None, [parent_end]))
        proc.start()
        child_end.close()
        parent_end.send((run_cell, cell.kind, cell.params_dict, 0))
        outcome = parent_end.recv()
        parent_end.close()
        proc.join(30)
        assert proc.exitcode == 0
        store.append({
            "cell_id": cell.cell_id, "kind": cell.kind,
            "config_hash": cell.config_hash, "params": cell.params_dict,
            "status": outcome["status"], "attempts": 1,
            "result": outcome.get("result"), "error": outcome.get("error"),
        })
    store.close()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_records_identical_in_a_fresh_process_and_a_shared_one(
        name, tmp_path, monkeypatch):
    spec = SPECS[name]()
    cells = len(spec.cells())
    _each_cell_in_a_fork_of_its_own(spec, tmp_path / "fresh")
    snapshots = {"fresh": _snapshot(tmp_path / "fresh")}
    assert reference.missing(  # this process computed nothing for them
        reference_keys(spec.kind, spec.cells()[0].params_dict))

    # every cell in one process, then split over two
    for workers in (1, 2):
        reference.clear()
        run = run_campaign(spec, tmp_path / f"shared{workers}",
                           workers=workers)
        assert run.ran == cells and run.workers_started == workers
        snapshots[f"shared{workers}"] = _snapshot(
            tmp_path / f"shared{workers}")

    # and each cell after exactly the cells it ran before, last time
    reference.clear()
    forwards = type(spec).cells
    monkeypatch.setattr(type(spec), "cells",
                        lambda self: forwards(self)[::-1])
    run = run_campaign(spec, tmp_path / "reversed", workers=1)
    assert run.ran == cells and run.workers_started == 1
    order = [json.loads(line)["cell_id"] for line in
             CampaignStore(tmp_path / "reversed").journal_path
             .read_text().splitlines()]
    assert order == [c.cell_id for c in forwards(spec)][::-1]
    snapshots["reversed"] = _snapshot(tmp_path / "reversed")

    assert len(set(snapshots.values())) == 1, sorted(snapshots)


# ----------------------------------------------------------------------
# isolation, deadlines, and the number of workers it takes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("cells,workers", [(1, 4), (3, 2), (5, 8)])
def test_fault_free_campaign_starts_a_worker_per_slot_in_use(
        cells, workers, tmp_path):
    spec = CampaignSpec.make(name="plain", kind="synthetic",
                             axes={"seed": tuple(range(cells))})
    said = []
    run = run_campaign(spec, tmp_path / "c", workers=workers,
                       progress=said.append)
    assert run.counts == {"ok": cells}
    assert run.workers_started == min(workers, cells)
    assert (f"{run.workers_started} workers started for {cells} cells"
            in said[-1])


def test_a_death_costs_the_cell_in_flight_and_no_other(tmp_path):
    """Every way a cell can go wrong, ahead of twenty that do not, on
    two workers: the statuses and attempt counts are those a process per
    cell journaled, and each attempt that took its worker with it shows
    as one more worker started."""
    expected = {  # fail_mode → (status, attempts)
        "sigkill": ("crashed", 2), "flaky": ("ok", 2),
        "hang": ("timeout", 2), "raise": ("failed", 1),
        "linger": ("ok", 1), "none": ("ok", 1),
    }
    spec = CampaignSpec.make(
        name="mixed", kind="synthetic", base={"seed": 0},
        axes={"fail_mode": ("sigkill", "flaky", "hang", "raise", "linger")},
        extra_cells=[("synthetic", {"seed": seed, "fail_mode": "none"})
                     for seed in range(20)],
        timeout_s=1.0, max_attempts=2,
    )
    t0 = time.monotonic()
    run = run_campaign(spec, tmp_path / "c", workers=2)
    assert time.monotonic() - t0 < 30.0
    assert run.counts == {"crashed": 1, "failed": 1, "timeout": 1, "ok": 22}
    for rec in run.records.values():
        mode = rec["params"]["fail_mode"]
        assert (rec["status"], rec["attempts"]) == expected[mode], rec
        if rec["status"] == "ok":
            assert rec["result"] == run_cell(
                "synthetic", {"seed": rec["params"]["seed"]})
    assert run.retries == 3
    # 3 attempts SIGKILLed their worker, 2 were killed at the deadline
    assert run.workers_started == 2 + 3 + 2


def _waited_out(pid):
    """Block until ``pid`` has exited, leaving it for its parent's own
    ``join`` to reap."""
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def test_worker_killed_while_idle_charges_no_cell():
    outcomes = []
    pending = deque([("first", 0)])

    def finish(item, attempt, outcome):
        outcomes.append((item, attempt, outcome))
        if item == "first":
            # it has answered and has nothing in hand
            os.kill(outcome["result"], signal.SIGKILL)
            _waited_out(outcome["result"])
            pending.extend((f"later{i}", 0) for i in range(3))

    started = runner._drain(runner._context(), None, 1, 30.0, pending,
                            lambda item, attempt: (os.getpid,), finish)
    assert started == 2  # replaced
    assert [(item, attempt, outcome["status"])
            for item, attempt, outcome in outcomes] == [
        ("first", 0, "ok"), ("later0", 0, "ok"),
        ("later1", 0, "ok"), ("later2", 0, "ok")]
    pids = [outcome["result"] for _item, _attempt, outcome in outcomes]
    assert len(set(pids[1:])) == 1 and pids[0] != pids[1]


def test_interrupted_campaign_leaves_no_child_behind(tmp_path):
    spec = CampaignSpec.make(
        name="interrupted", kind="synthetic",
        axes={"seed": (0, 1), "fail_mode": ("hang", "raise")},
        timeout_s=600.0, max_attempts=1,
    )

    def ctrl_c(message):
        if "failed" in message:
            raise KeyboardInterrupt

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec, tmp_path / "c", workers=2, progress=ctrl_c)
    assert time.monotonic() - t0 < 10.0  # no deadline was waited out
    assert multiprocessing.active_children() == []
    # what had finished is journaled, and the campaign resumes
    assert [r["status"] for r in
            CampaignStore(tmp_path / "c").records().values()] == ["failed"]
