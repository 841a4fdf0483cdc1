"""Unit tests for the campaign subsystem: specs, store, aggregation,
provenance memoization, and the crash-isolating runner."""

import json
import time

import pytest

from repro.bench.attribution import (
    clear_git_sha_cache,
    git_sha,
    provenance,
    seed_git_sha,
)
from repro.campaign import (
    SPECS,
    CampaignSpec,
    CampaignStore,
    Cell,
    aggregate_records,
    aggregate_store,
    percentile,
    render_summary,
    run_campaign,
    run_cell,
    spec_availability_mc,
    spec_smoke,
    summarize,
)
from repro.campaign import runner
from repro.errors import CampaignError


# ----------------------------------------------------------------------
# specs: expansion, hashing, serialization
# ----------------------------------------------------------------------

def test_grid_expansion_is_deterministic_cross_product():
    spec = CampaignSpec.make(
        name="t", kind="synthetic", base={"work": 1},
        axes={"a": (1, 2), "b": ("x", "y", "z")},
    )
    cells = spec.cells()
    assert len(cells) == 6
    # last axis fastest, base folded into every cell
    assert [c.params_dict for c in cells[:3]] == [
        {"work": 1, "a": 1, "b": "x"},
        {"work": 1, "a": 1, "b": "y"},
        {"work": 1, "a": 1, "b": "z"},
    ]
    assert spec.cells() == cells  # re-expansion identical


def test_identical_config_means_identical_cell_id():
    a = Cell.make("synthetic", {"seed": 3, "work": 10})
    b = Cell.make("synthetic", {"work": 10, "seed": 3})  # order irrelevant
    c = Cell.make("synthetic", {"work": 11, "seed": 3})
    d = Cell.make("other", {"seed": 3, "work": 10})  # kind matters
    assert a.cell_id == b.cell_id
    assert a.cell_id != c.cell_id
    assert a.config_hash != d.config_hash


def test_runner_dedups_identical_cells(tmp_path):
    spec = CampaignSpec.make(
        name="dup", kind="synthetic",
        base={"sleep_s": 0.0, "work": 10},
        axes={"seed": (1, 1, 2)},  # seed 1 twice: one execution
    )
    run = run_campaign(spec, tmp_path / "c", workers=1)
    assert run.total == 2
    assert run.ran == 2


def test_spec_json_round_trip_and_hash():
    for maker in SPECS.values():
        spec = maker()
        doc = json.loads(json.dumps(spec.canonical()))
        back = CampaignSpec.from_json(doc)
        assert back == spec
        assert back.spec_hash == spec.spec_hash
        assert [c.cell_id for c in back.cells()] \
            == [c.cell_id for c in spec.cells()]


def test_availability_spec_meets_mc_floor():
    spec = spec_availability_mc()
    assert len(spec.cells()) >= 200
    assert spec.group_by == ("mtbf_frac", "interval_frac")


# ----------------------------------------------------------------------
# store: manifest, journal, torn lines, dedup
# ----------------------------------------------------------------------

def _record(cell_id, status="ok", value=1.0, **params):
    return {"cell_id": cell_id, "kind": "synthetic",
            "config_hash": cell_id.split("-")[-1], "params": params,
            "status": status, "attempts": 1,
            "result": {"value": value} if status == "ok" else None,
            "error": None if status == "ok" else "boom"}


def test_store_create_refuses_existing(tmp_path):
    spec = spec_smoke(cells=2)
    store = CampaignStore(tmp_path / "c")
    store.create(spec)
    with pytest.raises(CampaignError):
        store.create(spec)


def test_store_spec_mismatch_detected(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.create(spec_smoke(cells=2))
    store.check_spec(spec_smoke(cells=2))  # same grid: fine
    with pytest.raises(CampaignError):
        store.check_spec(spec_smoke(cells=3))


def test_store_rejects_non_terminal_records(tmp_path):
    store = CampaignStore(tmp_path / "c")
    with pytest.raises(CampaignError):
        store.append(_record("synthetic-ab", status="running"))


def test_journal_tolerates_torn_line_and_dedups(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.append(_record("synthetic-aa", value=1.0))
    store.append(_record("synthetic-bb", value=2.0))
    store.append(_record("synthetic-aa", value=3.0))  # re-run: last wins
    store.close()
    # a parent killed mid-append leaves a torn final line
    with open(store.journal_path, "a") as fh:
        fh.write('{"cell_id": "synthetic-cc", "status": "ok", "resu')
    recs = store.records()
    assert set(recs) == {"synthetic-aa", "synthetic-bb"}
    assert recs["synthetic-aa"]["result"]["value"] == 3.0
    assert store.status_counts() == {"ok": 2}


def test_append_seals_torn_tail(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.append(_record("synthetic-aa"))
    store.close()
    # simulate a writer SIGKILL'd mid-append: partial line, no newline
    with open(store.journal_path, "a") as fh:
        fh.write('{"cell_id": "synthetic-bb", "st')
    store.append(_record("synthetic-cc"))
    store.close()
    # the new record must not merge into the torn line
    recs = store.records()
    assert set(recs) == {"synthetic-aa", "synthetic-cc"}
    lines = store.journal_path.read_text().splitlines()
    assert len(lines) == 3


def test_manifest_version_gate(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.create(spec_smoke(cells=2))
    doc = json.loads(store.manifest_path.read_text())
    doc["version"] = 99
    store.manifest_path.write_text(json.dumps(doc))
    with pytest.raises(CampaignError):
        store.load_manifest()


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def test_percentile_linear_interpolation():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert percentile(vals, 0) == 1.0
    assert percentile(vals, 100) == 4.0
    assert percentile(vals, 50) == 2.5
    assert percentile(vals, 25) == 1.75
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(vals, 101)


def test_summarize_is_order_independent():
    a = summarize([3.0, 1.0, 2.0])
    b = summarize([2.0, 3.0, 1.0])
    assert a == b
    assert a["count"] == 3 and a["mean"] == 2.0
    assert a["min"] == 1.0 and a["max"] == 3.0
    assert summarize([]) is None


def test_aggregate_groups_and_skips_failures():
    records = [
        _record("synthetic-a1", value=1.0, policy="x"),
        _record("synthetic-a2", value=3.0, policy="x"),
        _record("synthetic-b1", value=9.0, policy="y"),
        _record("synthetic-b2", status="crashed", policy="y"),
    ]
    summary = aggregate_records(records, group_by=("policy",),
                                metrics=("value",))
    assert summary["cells_total"] == 4
    assert summary["statuses"] == {"crashed": 1, "ok": 3}
    by_key = {g["key"]["policy"]: g for g in summary["groups"]}
    assert by_key["x"]["metrics"]["value"]["mean"] == 2.0
    # the crashed cell is tallied but contributes no metric values
    assert by_key["y"]["cells"] == 2
    assert by_key["y"]["metrics"]["value"]["count"] == 1
    # aggregation over reversed input is bit-identical
    assert aggregate_records(reversed(records), ("policy",), ("value",)) \
        == summary


def test_aggregate_skips_none_metric_values():
    records = [_record("synthetic-a1", value=None),
               _record("synthetic-a2", value=2.0)]
    summary = aggregate_records(records, (), ("value",))
    assert summary["groups"][0]["metrics"]["value"]["count"] == 1


def test_render_summary_smoke():
    records = [_record("synthetic-a1", value=1.0, policy="x")]
    summary = aggregate_records(records, ("policy",), ("value",))
    text = render_summary(summary, title="t")
    assert "policy" in text and "value mean" in text


# ----------------------------------------------------------------------
# provenance memoization
# ----------------------------------------------------------------------

def test_git_sha_memoized_and_seedable():
    clear_git_sha_cache()
    try:
        seed_git_sha("deadbeef")
        assert git_sha() == "deadbeef"
        prov = provenance()
        assert prov["git_sha"] == "deadbeef"
        assert prov["scale"] in ("quick", "full")
        # None is a legitimate resolved value, not "unresolved"
        seed_git_sha(None)
        assert git_sha() is None
    finally:
        clear_git_sha_cache()


def test_git_sha_asks_git_exactly_once(monkeypatch):
    import repro.bench.attribution as attribution

    calls = []

    def fake_resolve():
        calls.append(1)
        return "cafe"

    monkeypatch.setattr(attribution, "_resolve_git_sha", fake_resolve)
    clear_git_sha_cache()
    try:
        assert git_sha() == "cafe"
        assert git_sha() == "cafe"
        assert provenance()["git_sha"] == "cafe"
        assert len(calls) == 1
    finally:
        clear_git_sha_cache()


# ----------------------------------------------------------------------
# runner: crash isolation, retry, determinism
# ----------------------------------------------------------------------

def test_smoke_campaign_survives_injected_failures(tmp_path):
    spec = spec_smoke(cells=6, sleep_s=0.0)
    run = run_campaign(spec, tmp_path / "c", workers=2)
    # never a campaign-level failure: the raising cell is "failed", the
    # SIGKILL'd worker is "crashed", the flaky cell retries to "ok"
    assert run.counts == {"crashed": 1, "failed": 1, "ok": 7}
    assert run.retries >= 1  # the flaky cell's second attempt
    # a worker per slot, and one more for each attempt that killed its
    # own: sigkill twice, flaky once
    assert run.workers_started == 2 + 3
    recs = run.records
    flaky = [r for r in recs.values()
             if r["params"].get("fail_mode") == "flaky"]
    assert flaky[0]["status"] == "ok" and flaky[0]["attempts"] == 2
    crashed = [r for r in recs.values()
               if r["params"].get("fail_mode") == "sigkill"]
    assert crashed[0]["status"] == "crashed"
    assert crashed[0]["attempts"] == spec.max_attempts
    assert "exit code -9" in crashed[0]["error"]
    failed = [r for r in recs.values()
              if r["params"].get("fail_mode") == "raise"]
    assert failed[0]["status"] == "failed"
    assert failed[0]["attempts"] == 1  # deterministic: no retry
    assert "ValueError" in failed[0]["error"]


def test_timeout_kills_hung_cell(tmp_path):
    spec = CampaignSpec.make(
        name="hang", kind="synthetic",
        base={"fail_mode": "hang"}, axes={"seed": (0,)},
        timeout_s=0.5, max_attempts=1,
    )
    run = run_campaign(spec, tmp_path / "c", workers=1)
    assert run.counts == {"timeout": 1}
    rec = next(iter(run.records.values()))
    assert "timeout" in rec["error"]


def test_lingering_cell_does_not_hold_its_slot(tmp_path):
    """A cell that answers but leaves a non-daemon thread behind used to
    keep its process, and so its slot, until the deadline.  A worker
    only has to answer: it takes the next cell with the thread still
    asleep, and is killed when the campaign has no more for it."""
    spec = CampaignSpec.make(
        name="linger", kind="synthetic",
        base={"fail_mode": "linger"}, axes={"seed": (0, 1, 2, 3)},
        timeout_s=60.0, max_attempts=1,
    )
    t0 = time.monotonic()
    run = run_campaign(spec, tmp_path / "c", workers=2)
    assert time.monotonic() - t0 < 10.0  # well inside one cell's timeout
    assert run.counts == {"ok": 4} and run.workers_started == 2
    for rec in run.records.values():
        assert rec["attempts"] == 1 and rec["error"] is None
        assert rec["result"] == run_cell(
            "synthetic", {"seed": rec["params"]["seed"]})


class _WorkerEnds:
    """A worker's process and pipe as the parent sees them, for a worker
    that does ``then`` between the parent's first look at it and its
    second — whichever of ``is_alive`` and ``poll`` those are."""

    exitcode = -9
    killed = False

    def __init__(self, sent=None, alive=True, then=None):
        self.sent, self.alive, self.then = sent, alive, then or {}

    def _look(self, name):
        seen = getattr(self, name)
        vars(self).update(self.then)
        return seen

    def is_alive(self):
        return self._look("alive")

    def poll(self):
        return self._look("sent") is not None

    def recv(self):
        if self.sent is EOFError:
            raise EOFError
        return self.sent

    def join(self):
        self.alive = False  # returns once it is dead

    def kill(self):
        self.killed = True  # its replacement joins it


def _outcome(ends, deadline=float("inf")):
    worker = runner._Worker(proc=ends, conn=ends, item="cell",
                            deadline=deadline)
    return runner._outcome_of(worker, 1.0)


def test_outcome_sent_by_a_worker_that_then_died_is_not_a_crash():
    answer = {"status": "ok", "result": 42}
    # it answers and is gone inside the parent's one timeslice between
    # looking at the pipe and looking at the process
    assert _outcome(_WorkerEnds(
        then={"sent": answer, "alive": False})) == answer
    assert _outcome(_WorkerEnds(sent=answer, alive=False)) == answer
    assert _outcome(_WorkerEnds()) is None  # still working


def test_one_crash_message_however_the_death_is_seen():
    crashed = {"status": "crashed",
               "error": "worker died with exit code -9"}
    assert _outcome(_WorkerEnds(alive=False)) == crashed  # exit status
    assert _outcome(_WorkerEnds(sent=EOFError)) == crashed  # pipe EOF
    dying = _WorkerEnds(then={"alive": False})  # between the two looks
    assert _outcome(dying) is None and _outcome(dying) == crashed
    overdue = _WorkerEnds()
    assert _outcome(overdue, deadline=0.0)["status"] == "timeout"
    assert overdue.killed


def test_fresh_run_refuses_populated_directory(tmp_path):
    spec = spec_smoke(cells=2, sleep_s=0.0)
    run_campaign(spec, tmp_path / "c", workers=1)
    with pytest.raises(CampaignError):
        run_campaign(spec, tmp_path / "c", workers=1, on_existing="error")
    with pytest.raises(ValueError):
        run_campaign(spec, tmp_path / "c", on_existing="clobber")


def test_resume_skips_completed_cells(tmp_path):
    spec = spec_smoke(cells=4, sleep_s=0.0)
    first = run_campaign(spec, tmp_path / "c", workers=2)
    again = run_campaign(spec, tmp_path / "c", workers=2,
                         on_existing="resume")
    assert again.ran == 0
    assert again.skipped == first.total
    # resume without the spec rebuilds it from the manifest
    third = run_campaign(None, tmp_path / "c", on_existing="resume")
    assert third.ran == 0 and third.total == first.total


def test_worker_count_does_not_change_results(tmp_path):
    spec = spec_smoke(cells=8, sleep_s=0.0)
    serial = run_campaign(spec, tmp_path / "serial", workers=1)
    wide = run_campaign(spec, tmp_path / "wide", workers=8)
    assert json.dumps(serial.records, sort_keys=True) \
        == json.dumps(wide.records, sort_keys=True)
    # and so the aggregates are bit-identical too
    agg_serial = aggregate_store(CampaignStore(tmp_path / "serial"))
    agg_wide = aggregate_store(CampaignStore(tmp_path / "wide"))
    assert json.dumps(agg_serial, sort_keys=True) \
        == json.dumps(agg_wide, sort_keys=True)
