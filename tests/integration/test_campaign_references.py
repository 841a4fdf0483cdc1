"""Reference runs are shared by a campaign, and sharing changes nothing.

A chaos grid's golden run, an availability study's uncheckpointed and
checkpointed runtimes: ``run_campaign`` has each computed once, in a
worker, and every forked cell inherits the value
(:mod:`repro.util.reference`).  These tests hold the two halves of that
contract together:

* *nothing moves* — journal records and aggregates are bit-identical
  whether every worker computes its own reference runs (what a cell run
  alone does), the campaign prepared them, or the preparing worker was
  SIGKILLed and the cell workers fell back; on 1 worker or 2; straight
  through or resumed;
* *something is saved* — each distinct key is computed exactly once per
  campaign, counted across all its processes (at most once per worker
  when nothing could be prepared), and a cell started after the
  campaign's first fork imports no module at all.
"""

import copy
import json
import multiprocessing
import os
import signal
import subprocess
import sys

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
from repro.campaign.spec import spec_availability_mc, spec_chaos
from repro.util import reference

SPECS = {
    # 18 cells, one golden
    "chaos": lambda: spec_chaos(points=6, nranks=4),
    # 36 cells; ring_ref once, ring_base once per checkpoint interval
    "availability": lambda: spec_availability_mc(seeds=3),
}
DISTINCT_KEYS = {"chaos": 1, "availability": 4}


@pytest.fixture(autouse=True)
def empty_memo():
    reference.clear()
    yield
    reference.clear()


@pytest.fixture
def computations(tmp_path, monkeypatch):
    """Count reference-run computations in this process *and every
    process forked from it*: each registered run is wrapped to append
    its key to one O_APPEND file first."""
    log = tmp_path / "computed.log"
    log.touch()

    def counted(name, fn):
        def run(*args):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND)
            try:
                os.write(fd, (json.dumps([name, *args]) + "\n").encode())
            finally:
                os.close(fd)
            return fn(*args)

        return run

    for name, fn in list(reference._RUNS.items()):
        monkeypatch.setitem(reference._RUNS, name, counted(name, fn))

    def read():
        counts = {}
        for line in log.read_text().splitlines():
            key = tuple(json.loads(line))
            counts[key] = counts.get(key, 0) + 1
        return counts

    return read


def _snapshot(root):
    store = CampaignStore(root)
    return (json.dumps(store.records(), sort_keys=True),
            json.dumps(aggregate_store(store), sort_keys=True))


def _kill_first_caller(monkeypatch, name, marker):
    """The first process to compute ``name`` SIGKILLs itself — in a
    campaign that is the preparing worker; everyone after computes."""
    real = reference._RUNS[name]

    def run(*args):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return real(*args)
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setitem(reference._RUNS, name, run)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_records_identical_however_references_are_obtained(
        name, tmp_path, monkeypatch, computations):
    spec = SPECS[name]()
    cells = len(spec.cells())
    snapshots = {}

    # nothing is prepared: every worker computes its own, once, and
    # keeps it for the cells it runs after (the memo)
    with monkeypatch.context() as patch:
        patch.setattr(runner, "_reference_waves", lambda cells: ([], 0))
        run = run_campaign(spec, tmp_path / "own", workers=2)
        assert run.reference_runs == 0 and run.failed_cells == 0
        assert run.workers_started == 2
        snapshots["own"] = _snapshot(tmp_path / "own")
    own = computations()
    assert len(own) == DISTINCT_KEYS[name]
    assert all(1 <= n <= 2 for n in own.values()), own  # ≤ once a worker
    assert reference.missing(own) == list(own)  # the parent held none

    # the campaign prepares them: once per key, whatever the width
    done = sum(own.values())
    for workers in (1, 2):
        reference.clear()
        said = []
        run = run_campaign(spec, tmp_path / f"shared{workers}",
                           workers=workers, progress=said.append)
        snapshots[f"shared{workers}"] = _snapshot(
            tmp_path / f"shared{workers}")
        assert run.reference_runs == DISTINCT_KEYS[name]
        assert sum(computations().values()) == done + DISTINCT_KEYS[name]
        done += DISTINCT_KEYS[name]
        assert reference.missing(own) == []  # installed in the parent
        assert (f"{DISTINCT_KEYS[name]} reference run"
                in said[-1]) and f"shared by {cells} cells" in said[-1]
        assert "cells/s" in said[-1]

    # a later campaign in the same process computes nothing at all
    run = run_campaign(spec, tmp_path / "held", workers=2)
    snapshots["held"] = _snapshot(tmp_path / "held")
    assert run.reference_runs == DISTINCT_KEYS[name]
    assert sum(computations().values()) == done

    # the preparing worker dies: a failed preparation, never a failed
    # campaign — the cells compute what is missing for themselves
    for workers in (1, 2):
        reference.clear()
        first = next(iter(own))[0]
        with monkeypatch.context() as patch:
            _kill_first_caller(patch, first, tmp_path / f"killed{workers}")
            said = []
            run = run_campaign(spec, tmp_path / f"fallback{workers}",
                               workers=workers, progress=said.append)
        snapshots[f"fallback{workers}"] = _snapshot(
            tmp_path / f"fallback{workers}")
        assert run.failed_cells == 0
        assert run.reference_runs == DISTINCT_KEYS[name] - 1
        assert any("reference run" in line and "crashed" in line
                   for line in said)

    assert len(set(snapshots.values())) == 1, sorted(snapshots)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_resume_recomputes_references_and_matches(
        name, tmp_path, computations):
    spec = SPECS[name]()
    run_campaign(spec, tmp_path / "straight", workers=2)
    straight = CampaignStore(tmp_path / "straight")
    records = list(straight.records().values())
    before = sum(computations().values())

    # the same campaign killed half way: manifest plus half a journal,
    # picked up by a process that holds nothing
    half = CampaignStore(tmp_path / "half")
    half.create(spec)
    for record in records[:len(records) // 2]:
        half.append(record)
    half.close()
    reference.clear()
    run = run_campaign(None, tmp_path / "half", workers=2,
                       on_existing="resume")
    assert run.skipped == len(records) // 2
    assert run.ran == len(records) - len(records) // 2
    assert sum(computations().values()) - before == run.reference_runs > 0
    assert _snapshot(tmp_path / "half") == _snapshot(tmp_path / "straight")


def test_cells_do_not_mutate_the_values_they_share():
    for name, pick in (("chaos", 3), ("availability", 0)):
        cell = SPECS[name]().cells()[pick]
        keys = reference_keys(cell.kind, cell.params_dict)
        assert keys
        first = run_cell(cell.kind, cell.params_dict)
        held = [reference.lookup(key) for key in keys]
        pristine = copy.deepcopy(held)
        again = run_cell(cell.kind, cell.params_dict)
        assert again == first
        assert all(reference.lookup(key) is value
                   for key, value in zip(keys, held))
        assert held == pristine


def test_without_fork_nothing_is_prepared_and_nothing_moves(
        tmp_path, monkeypatch, computations):
    """Sharing rides on fork: a spawned worker starts from a fresh
    import and inherits no memo, so no preparation is made for it and
    each cell computes its own golden — same records."""
    spec = spec_chaos(points=1, kinds=("kill_rank", "oob_delay"))
    run_campaign(spec, tmp_path / "fork", workers=2)
    reference.clear()
    monkeypatch.setattr(runner, "_context",
                        lambda: multiprocessing.get_context("spawn"))
    before = sum(computations().values())
    run = run_campaign(spec, tmp_path / "spawn", workers=2)
    assert run.counts == {"ok": 2} and run.reference_runs == 0
    # neither prepared by the parent nor (the wrappers above live in
    # this process only) counted in the spawned cells
    assert sum(computations().values()) == before
    assert reference.missing(reference_keys("chaos", spec.cells()[0]
                                            .params_dict))
    assert _snapshot(tmp_path / "spawn") == _snapshot(tmp_path / "fork")


def test_malformed_cell_fails_alone(tmp_path):
    """Collecting reference keys must not let one cell's bad params
    take the campaign down: it is a failed cell, as it always was."""
    spec = CampaignSpec.make(
        name="bad", kind="availability", base={"nranks": 4},
        axes={"seed": (0,)}, max_attempts=1,
    )
    run = run_campaign(spec, tmp_path / "c", workers=1)
    assert run.counts == {"failed": 1}
    record = next(iter(run.records.values()))
    assert "KeyError" in record["error"]


WARM_FORK = """
import json, sys, tempfile
import repro.campaign as campaign

# what any worker forked after this campaign's first inherits
campaign.run_campaign(
    campaign.CampaignSpec.make(name="any", kind="synthetic",
                               axes={"seed": (0,)}),
    tempfile.mkdtemp(), workers=1)
before = set(sys.modules)
chaos = campaign.run_cell("chaos", {
    "fault": "kill_rank", "point": 4, "points": 6, "nranks": 4,
    "laps": 6, "depth": 2, "seed": 0})
trial = campaign.run_cell("availability", {
    "nranks": 4, "mtbf_frac": 0.5, "interval_frac": 0.15, "seed": 0})
print(json.dumps({"chaos": chaos["classification"],
                  "trial": trial["outcome"],
                  "imported": sorted(set(sys.modules) - before)}))
"""


def test_a_forked_cell_imports_nothing():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(os.path.join(
        os.path.dirname(__file__), "..", "..", "src"))
    proc = subprocess.run([sys.executable, "-c", WARM_FORK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    # both cells went all the way through detection, rollback and replay
    assert seen["chaos"] == "recovered" and seen["trial"] == "recovered"
    # every module, not only repro.*: numpy.random and what it pulls in
    # were a third of the import cost
    assert seen["imported"] == []
