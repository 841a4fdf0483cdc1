"""Campaign resumability under real SIGKILL.

The campaign layer's claim mirrors the simulator's checkpoint/restart
story: every finished cell is durable the instant its journal line is
fsync'd, so killing the orchestrator — not just a worker — loses at
most the cells that were in flight.  These tests exercise the claim
with actual signals against the actual CLI: a campaign whose workers
get SIGKILL'd mid-cell (the smoke spec injects one), and whose parent
process is SIGKILL'd mid-run, must resume to a final aggregate
bit-identical to a never-interrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.campaign import CampaignStore, aggregate_store, spec_smoke

CELLS = 12  # grid cells; + 3 injected extras (raise / sigkill / flaky)


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "campaign", *args],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"campaign {' '.join(args)} failed:\n{proc.stdout}{proc.stderr}"
        )
    return proc


def _run_args(root):
    return ("run", "--spec", "smoke", "--seeds", str(CELLS),
            "--dir", str(root), "--workers", "2")


def _spec():
    return spec_smoke(cells=CELLS)


def _journal_lines(store):
    if not store.journal_path.exists():
        return []
    return [ln for ln in store.journal_path.read_text().splitlines()
            if ln.strip()]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """One straight-through run: the baseline every resumed run must
    reproduce bit-for-bit."""
    root = tmp_path_factory.mktemp("campaign") / "straight"
    _cli(*_run_args(root))
    return aggregate_store(CampaignStore(root))


def test_baseline_survives_injected_worker_kill(uninterrupted):
    # the smoke spec SIGKILLs one worker mid-cell and raises in another;
    # the campaign still finishes every cell
    assert uninterrupted["cells_total"] == CELLS + 3
    assert uninterrupted["statuses"] == \
        {"crashed": 1, "failed": 1, "ok": CELLS + 1}


def test_parent_sigkill_then_resume_is_bit_identical(
        tmp_path, uninterrupted):
    root = tmp_path / "killed"
    store = CampaignStore(root)

    # start the campaign through the real CLI, then SIGKILL the parent
    # orchestrator once some — but not all — cells are journaled
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "campaign", *_run_args(root)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_env(),
    )
    try:
        deadline = time.monotonic() + 60
        total = CELLS + 3
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if 2 <= len(store.records()) < total - 2:
                os.kill(proc.pid, signal.SIGKILL)
                break
            time.sleep(0.005)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert proc.returncode == -signal.SIGKILL, \
        "campaign finished before the kill landed; raise CELLS or SLEEP_S"
    # its workers outlive their cells, not their parent: each reads EOF
    # on its pipe and leaves
    deadline = time.monotonic() + 30
    while _forks_of_campaign(root) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _forks_of_campaign(root) == []
    survivors = store.records()
    before = _journal_lines(store)
    assert 0 < len(survivors) < total, "kill landed outside the run window"

    # resume through the CLI; completed cells must not re-execute
    _cli("resume", "--dir", str(root))
    after = _journal_lines(store)
    # append-only: every pre-kill line survives verbatim (a torn final
    # line is sealed in place, never merged into new records)
    assert after[:len(before)] == before
    parsed = [json.loads(ln) for ln in after if _parses(ln)]
    ids = [r["cell_id"] for r in parsed]
    assert len(ids) == len(set(ids)), \
        "a journaled cell was re-executed after resume"
    final = store.records()
    for cell_id, rec in survivors.items():
        assert final[cell_id] == rec

    # the resumed campaign's aggregate is bit-identical to the
    # uninterrupted baseline
    resumed = aggregate_store(store)
    assert json.dumps(resumed, sort_keys=True) \
        == json.dumps(uninterrupted, sort_keys=True)

    # and a second resume is a pure no-op
    out = _cli("resume", "--dir", str(root)).stdout
    assert f"{CELLS + 3} cached" in out


def test_status_and_report_cli(tmp_path, uninterrupted):
    root = tmp_path / "c"
    _cli(*_run_args(root))
    out = _cli("status", "--dir", str(root)).stdout
    assert "ok" in out and str(CELLS + 1) in out
    report = _cli("report", "--dir", str(root),
                  "--out", str(tmp_path / "report.json")).stdout
    assert "campaign" in report
    doc = json.loads((tmp_path / "report.json").read_text())
    assert json.dumps(doc, sort_keys=True) \
        == json.dumps(uninterrupted, sort_keys=True)


def _forks_of_campaign(root):
    """Pids whose command line is the CLI run on ``root`` (a forked
    worker keeps its parent's)."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if os.fsencode(str(root)) in fh.read():
                    pids.append(int(pid))
        except OSError:
            continue  # gone between the listing and the read
    return pids


def _parses(line):
    try:
        json.loads(line)
        return True
    except ValueError:
        return False
