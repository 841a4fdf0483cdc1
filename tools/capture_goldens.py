#!/usr/bin/env python
"""Capture golden fingerprints for the DES fast-path equivalence suite.

Runs the scenario matrix that ``tests/property/test_fastpath_golden.py``
pins — plain sessions, checkpointed sessions, and seeded fault
scenarios across machines × configs × applications — and prints one
JSON object mapping each case name to its fingerprint:

* ``elapsed`` — the final virtual time, as an exact float ``repr``;
* ``events`` — scheduler events executed;
* ``trace_sha`` — SHA-256 of the full JSONL trace stream (every
  emission, in order, with virtual timestamps);
* network message/byte totals and a hash of the per-rank results.

The optimization contract is that every entry is bit-identical before
and after the scheduler/pipeline/tracing/costing changes.  Regenerate
with::

    PYTHONPATH=src python tools/capture_goldens.py > /tmp/goldens.json

or, to see per case which keys differ from the values embedded in the
property test, each tagged with its class from ``KEY_CLASSES`` (exit
status 1 when any key differs)::

    PYTHONPATH=src python tools/capture_goldens.py --diff
"""

from __future__ import annotations

import ast
import hashlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

from repro.apps.dft_proxy import DftConfig, DftProxy
from repro.apps.md_proxy import MdConfig, MdProxy
from repro.apps.micro import CommChurn, IcollStream, RandomPt2Pt, TokenRing
from repro.apps.workloads import workload
from repro.faults.scenarios import run_scenario
from repro.hosts import CORI_HASWELL, CORI_KNL, TESTBOX, TESTBOX_MN
from repro.mana import ManaConfig, ManaSession
from repro.mana.config import CollectiveMode
from repro.mana.session import CheckpointPlan, resume_from_checkpoint
from repro.simmpi import UNDEFINED
from repro.simmpi.runner import run_native
from repro.util.trace import JsonlSink


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reset_id_counters() -> None:
    """Rewind every process-global id counter whose value can reach a
    traced repr (msg_id fields, ``MPI_Wait(<req #N>)`` park reasons,
    window/memory handles).  Each matrix case then fingerprints the same
    stream no matter how many sessions ran earlier in the process, so
    the goldens are order-independent — pytest can run the cases in any
    order and still match a fresh-interpreter capture."""
    import repro.mana.fortran as _fortran
    import repro.mana.wrappers as _wrappers
    import repro.simmpi.library as _library
    import repro.simmpi.request as _request
    import repro.simmpi.window as _window
    import repro.simnet.message as _message

    _message._msg_ids = itertools.count(1)
    _request._req_ids = itertools.count(1)
    _window._win_ids = itertools.count(1)
    _library.LhMemory._ids = itertools.count(1)
    _wrappers.UpperHalfMemory._ids = 0
    _fortran._addr_counter = itertools.count(0x7F0000000000)


def session_fingerprint(nranks, factory, machine, cfg, ckpt_frac=None):
    """Run once (twice when checkpointing: a probe run first to place the
    checkpoint) with tracing armed, and fingerprint everything the
    fast path must preserve bit-for-bit."""
    _reset_id_counters()
    checkpoints = None
    if ckpt_frac is not None:
        probe = ManaSession(nranks, factory, machine, cfg).run()
        checkpoints = [CheckpointPlan(at=probe.elapsed * ckpt_frac,
                                      action="resume")]
    buf = io.StringIO()
    sess = ManaSession(nranks, factory, machine, cfg,
                       trace_sink=JsonlSink(buf))
    out = sess.run(checkpoints=checkpoints)
    stats = sess.network.stats
    return {
        "elapsed": repr(out.elapsed),
        "events": sess.sched.events_run,
        "trace_sha": _sha(buf.getvalue()),
        "messages": stats.messages,
        "bytes": stats.bytes,
        "results_sha": _sha(json.dumps(out.results, sort_keys=True,
                                       default=str)),
    }


def scenario_fingerprint(name, seed, nranks):
    """Fault scenarios summarize their own virtual times; hash the whole
    JSON-friendly summary."""
    _reset_id_counters()
    summary = run_scenario(name, seed=seed, nranks=nranks)
    return {
        "ok": summary.get("ok"),
        "summary_sha": _sha(json.dumps(summary, sort_keys=True,
                                       default=str)),
    }


def reexec_fingerprint(nranks, factory, machine, cfg, ckpt_frac,
                       replay_compile="off"):
    """Halt a run mid-flight, save the image, resume it by REEXEC
    (deterministic re-execution), and fingerprint the *resumed* session.

    ``replay_compile`` selects the replay interpreter: ``"off"`` is the
    raw log walk, ``"noop"`` the IR interpreter with no passes
    (contractually bit-identical to ``"off"``), ``"opt"`` the optimizing
    pass pipeline (identical virtual times, results and scheduler
    events; a different trace stream)."""
    _reset_id_counters()
    cfg = cfg.but(record_replay=True)
    probe = ManaSession(nranks, factory, machine, cfg).run()
    halted = ManaSession(nranks, factory, machine, cfg)
    halted.run(checkpoints=[
        CheckpointPlan(at=probe.elapsed * ckpt_frac, action="halt")
    ])
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    try:
        halted.save_checkpoint(path)
        buf = io.StringIO()
        sess = resume_from_checkpoint(path, factory, machine, cfg,
                                      replay_compile=replay_compile,
                                      trace_sink=JsonlSink(buf))
        out = sess.run()
    finally:
        os.unlink(path)
    stats = sess.network.stats
    return {
        "elapsed": repr(out.elapsed),
        "events": sess.sched.events_run,
        "trace_sha": _sha(buf.getvalue()),
        "messages": stats.messages,
        "bytes": stats.bytes,
        "results_sha": _sha(json.dumps(out.results, sort_keys=True,
                                       default=str)),
    }


#: REEXEC restart scenarios shared between this capture tool and the
#: property test: the test pins the ``"off"`` fingerprints below as
#: goldens, re-runs each case with ``replay_compile="noop"`` and
#: asserts bit-identity, and with ``"opt"`` asserting matching virtual
#: times/traffic/results/scheduler events
REEXEC_CASES = {
    "reexec_ring_2pc": (
        4, lambda r: TokenRing(r, laps=8, compute_s=1e-3),
        TESTBOX, ManaConfig.feature_2pc(), 0.5),
    "reexec_randpt2pt_2pc": (
        5, lambda r: RandomPt2Pt(r, 5, rounds=8, seed=3, compute_s=1e-4),
        TESTBOX, ManaConfig.feature_2pc(), 0.5),
    "reexec_icoll_2pc": (
        4, lambda r: IcollStream(r, waves=5, inflight=3, compute_s=1e-3),
        TESTBOX, ManaConfig.feature_2pc(), 0.5),
    "reexec_churn_2pc": (
        4, lambda r: CommChurn(r, generations=4, compute_s=1e-3),
        TESTBOX, ManaConfig.feature_2pc(), 0.6),
}


#: the golden matrix: machines × configs × apps, faults included
def matrix():
    dft8 = DftConfig(nranks=8, workload=workload("CaPOH"), iterations=1)
    dft16 = DftConfig(nranks=16, workload=workload("CaPOH"), iterations=1)
    md8 = MdConfig(nranks=8, steps=6, reduce_every=2, rebuild_every=4)
    # every data collective above the lower half (Section III-E), with
    # the checkpoint free to land inside one
    alt = ManaConfig.feature_2pc().but(
        collective_mode=CollectiveMode.PT2PT_ALWAYS)
    return [
        ("dft_testbox_master", lambda: session_fingerprint(
            8, lambda r: DftProxy(r, dft8, TESTBOX),
            TESTBOX, ManaConfig.master())),
        ("dft_haswell_master", lambda: session_fingerprint(
            16, lambda r: DftProxy(r, dft16, CORI_HASWELL),
            CORI_HASWELL, ManaConfig.master())),
        ("ring_testbox_original", lambda: session_fingerprint(
            6, lambda r: TokenRing(r, laps=5, compute_s=2e-4),
            TESTBOX, ManaConfig.original())),
        ("randpt2pt_mn_2pc", lambda: session_fingerprint(
            6, lambda r: RandomPt2Pt(r, 6, rounds=6, seed=7),
            TESTBOX_MN, ManaConfig.feature_2pc())),
        ("md_knl_ft", lambda: session_fingerprint(
            8, lambda r: MdProxy(r, md8, CORI_KNL),
            CORI_KNL, ManaConfig.fault_tolerant())),
        ("icoll_testbox_2pc", lambda: session_fingerprint(
            5, lambda r: IcollStream(r, waves=3, inflight=2),
            TESTBOX, ManaConfig.feature_2pc())),
        ("ckpt_ring_2pc", lambda: session_fingerprint(
            6, lambda r: TokenRing(r, laps=8, compute_s=2e-3),
            TESTBOX, ManaConfig.feature_2pc(), ckpt_frac=0.4)),
        ("ckpt_randpt2pt_ft", lambda: session_fingerprint(
            4, lambda r: RandomPt2Pt(r, 4, rounds=8, seed=11),
            TESTBOX_MN, ManaConfig.fault_tolerant(), ckpt_frac=0.5)),
        ("alt_dft_haswell_2pc", lambda: session_fingerprint(
            16, lambda r: DftProxy(r, dft16, CORI_HASWELL),
            CORI_HASWELL, alt, ckpt_frac=0.5)),
        ("alt_md_testbox_2pc", lambda: session_fingerprint(
            8, lambda r: MdProxy(r, md8, TESTBOX),
            TESTBOX, alt, ckpt_frac=0.5)),
        ("fault_kill_after_ckpt", lambda: scenario_fingerprint(
            "kill-after-ckpt", 3, 4)),
        ("fault_drop_commit", lambda: scenario_fingerprint(
            "drop-commit", 1, 4)),
        ("fault_corrupt_blob", lambda: scenario_fingerprint(
            "corrupt-blob", 2, 4)),
    ] + [
        (name, lambda case=case: reexec_fingerprint(*case))
        for name, case in REEXEC_CASES.items()
    ]


#: sub-communicator sizes of the ``alltoall`` pin (1 = the self-copy
#: only, 2/3 = first rounds, 7 = odd, 16 = members on three TESTBOX
#: nodes, so intranode and internode links both carry rounds)
ALLTOALL_SIZES = (1, 2, 3, 7, 16)
#: sizes also pinned with blocks above ``ALLTOALL_SHORT_MSG``
ALLTOALL_LONG_SIZES = (7, 16)


def alltoall_fingerprint(p, long_blocks=False):
    """One native ``alltoall`` on a ``p``-member sub-communicator of a
    ``p + 2``-rank world whose local ranks are a permutation of the
    members' world ranks (``comm_split`` key), with nested list/tuple
    payloads like the drain's per-pair counters.  The 48-byte blocks
    take the short-message (Bruck) algorithm; ``long_blocks`` pads each
    to 348 bytes, which takes the pairwise exchange.  Pins every
    member's result row, its virtual finishing time, and the traffic
    and event totals."""
    _reset_id_counters()
    world = p + 2
    finished = {}
    pad = ("#" * 300,) if long_blocks else ()

    def prog(lib, task):
        w = task.world_rank
        member = 1 <= w <= p
        sub = yield from lib.comm_split(
            task, lib.comm_world, 0 if member else UNDEFINED,
            key=(w % 2) * 100 - w)  # evens descending, then odds
        if not member:
            return None
        me = lib.comm_rank(task, sub)
        row = [(w * 100 + j, float(me), [w, j]) + pad for j in range(p)]
        out = yield from lib.alltoall(task, sub, row)
        finished[w] = repr(lib.sched.now)
        return me, out

    run = run_native(world, prog, TESTBOX)
    stats = run.network.stats
    return {
        "elapsed": repr(run.elapsed),
        "events": run.sched.events_run,
        "messages": stats.messages,
        "bytes": stats.bytes,
        "finished_sha": _sha(json.dumps(finished, sort_keys=True)),
        "results_sha": _sha(json.dumps(run.results)),
    }


def alltoall_matrix():
    return [(f"alltoall_sub_p{p}", lambda p=p: alltoall_fingerprint(p))
            for p in ALLTOALL_SIZES] + [
        (f"alltoall_long_sub_p{p}",
         lambda p=p: alltoall_fingerprint(p, long_blocks=True))
        for p in ALLTOALL_LONG_SIZES]


def capture() -> dict:
    return {name: fn() for name, fn in matrix() + alltoall_matrix()}


def pinned() -> dict:
    """The fingerprints embedded in the property test, read from its
    source (importing it would import this module back)."""
    test = (pathlib.Path(__file__).resolve().parent.parent
            / "tests" / "property" / "test_fastpath_golden.py")
    out = {}
    for node in ast.parse(test.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(
                node.targets[0], "id", None) in ("GOLDENS", "ALLTOALL_GOLDENS"):
            out.update(ast.literal_eval(node.value))
    return out


#: what each pinned key measures.  A *model* key is what the simulated
#: job computes or spends (virtual time, traffic, results): it moves
#: only with an intentional model change.  A *bookkeeping* key is how
#: the simulator got there (scheduler events, the trace stream): a pure
#: host-cost change may move it.  A fault scenario's summary holds
#: virtual times and results only, so its keys are model keys.
KEY_CLASSES = {
    "elapsed": "model", "messages": "model", "bytes": "model",
    "results_sha": "model", "finished_sha": "model",
    "ok": "model", "summary_sha": "model",
    "events": "bookkeeping", "trace_sha": "bookkeeping",
}


def diff() -> int:
    """Print, per case, the keys whose captured value differs from the
    pinned one (``key [class]: pinned -> captured``); returns how many
    cases moved."""
    old, new = pinned(), capture()
    names = sorted(set(old) | set(new))
    moved = 0
    for name in names:
        was, now = old.get(name, {}), new.get(name, {})
        keys = [k for k in sorted(set(was) | set(now))
                if was.get(k) != now.get(k)]
        moved += bool(keys)
        print(f"{name}: " + ("; ".join(
            f"{k} [{KEY_CLASSES.get(k, 'unclassified')}]: "
            f"{was.get(k)} -> {now.get(k)}" for k in keys)
            or "identical"))
    print(f"{moved} of {len(names)} cases differ")
    return moved


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(1 if diff() else 0)
    print(json.dumps(capture(), indent=2, sort_keys=True))
