"""The five ledger workloads.

Each workload is driven only through public entry points and exposes the
same four steps to the child process in ``child.py``:

``setup``   build the inputs from the seed and warm the process up;
``rep``     one timed repetition, returning a :class:`Rep`;
``traced_rep``  the repetition the traced run profiles (``rep``, unless
            the timed form forks, as the campaign's does);
``verify``  checks that need extra runs (native reference), made once
            per run outside the timed region.

``README.md`` says why each was chosen and how it was sized.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.apps.dft_proxy import DftConfig, DftProxy
from repro.apps.md_proxy import MdConfig, MdProxy
from repro.apps.micro import TokenRing
from repro.apps.workloads import workload as vasp_workload
from repro.campaign import run_campaign, run_cell
from repro.campaign.spec import spec_chaos
from repro.errors import JobLostError
from repro.hosts import CORI_HASWELL, TESTBOX_MN
from repro.mana import ManaConfig, ManaSession
from repro.mana.session import (
    CheckpointPlan,
    resume_from_checkpoint,
    run_app_native,
)
from repro.storage import StoragePolicy

MACHINE = CORI_HASWELL
CHAOS_KINDS = ("kill_rank", "node_loss", "blob_corrupt", "crash_storm")
#: the campaign forks; fixed so the process count never exceeds 2
CHAOS_WORKERS = 2


# ----------------------------------------------------------------------
# fingerprints and counters
# ----------------------------------------------------------------------
def canon(obj):
    """A JSON-able form that keeps every float bit."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, np.ndarray):
        return ["ndarray", str(obj.dtype), list(obj.shape),
                hashlib.blake2b(np.ascontiguousarray(obj).tobytes(),
                                digest_size=8).hexdigest()]
    if isinstance(obj, np.generic):
        return canon(obj.item())
    if isinstance(obj, dict):
        return {str(k): canon(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def fingerprint(obj) -> str:
    blob = json.dumps(canon(obj), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def session_counts(sess, out) -> dict:
    """Exact counts read from the public counters of one finished
    session; every one repeats bit-for-bit for a given seed."""
    recoveries = [r for r in out.recoveries if not r.get("job_lost")]
    return {
        "des.events": sess.sched.events_run,
        "simnet.messages": out.network_messages,
        "simnet.bytes": out.network_bytes,
        "simmpi.lib_calls": sum(out.lib_calls.values()),
        "mana.mpi_calls": out.total_collective_calls + out.total_pt2pt_calls,
        "mana.oob_messages": out.oob_messages,
        "mana.ckpt_epochs": sum(
            1 for c in out.checkpoints
            if not c.get("skipped") and not c.get("aborted")),
        "storage.copies_written": out.storage.get("copies_written", 0),
        "ir.replayed_calls": sum(
            r["replayed_calls"] for r in sess.rt.reexec_records),
        "faults.recovered": len(recoveries),
        "faults.lost": len(out.recoveries) - len(recoveries),
        "faults.violations": 0,
        "campaign.cells_ok": 0,
        "campaign.cells_lost": 0,
        "campaign.cells_failed": 0,
        "model.sim_elapsed_s": out.elapsed,
    }


def session_fingerprint(sess, out) -> str:
    return fingerprint([out.results, session_counts(sess, out)])


@dataclass
class Rep:
    """What one repetition produced."""

    fingerprint: str            #: of every simulated statistic
    results_fp: str             #: of the application results alone
    counts: dict
    work: int                   #: units of the workload's fixed work
    ok: bool = True             #: the workload's own per-repetition check


@dataclass
class Verify:
    """Outcome of the once-per-run checks."""

    checks: list                #: [(name, passed)]
    native_wall_s: float        #: ``run_app_native`` on the same inputs
    counts: dict = field(default_factory=dict)      #: exact, like Rep.counts
    derived: dict = field(default_factory=dict)     #: timed per-layer values


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ----------------------------------------------------------------------
class _Workload:
    """What the five share.  Constructed as ``(seed, scale, spans, tmp)``."""

    #: wall of the part of a repetition that is not the workload's work
    #: (the uncheckpointed run of ``ckpt_rounds``); subtracted from
    #: ``wall_s`` before ``work_per_s`` is taken
    base_s = 0.0

    def traced_rep(self) -> Rep:
        return self.rep()

    def native(self, nranks, factory, machine=MACHINE):
        """``(outcome, wall)`` of the same inputs on the bare lower half."""
        return _timed(lambda: self.spans.call(
            "run_app_native", run_app_native, nranks, factory, machine))

    def close(self) -> None:
        pass


class _SteadyState(_Workload):
    """A proxy application run to completion under MANA, no checkpoint."""

    def __init__(self, seed: int, scale: dict, spans, tmp: str):
        self.spans = spans
        self.nranks = scale["nranks"]
        self.warm_nranks = scale["warm_nranks"]
        self.factory = self._factory(seed, scale, self.nranks)
        self.cfg = ManaConfig.feature_2pc()
        self._warm = self._factory(seed, scale, self.warm_nranks)

    def setup(self) -> None:
        # a quarter-size run is enough: what needs warming is lazy
        # imports and first-call paths, and the DFT proxy spends 2 s
        # splitting communicators at full size before its first iteration
        self.spans.call("ManaSession.run", ManaSession(
            self.warm_nranks, self._warm, MACHINE, self.cfg).run)

    def rep(self) -> Rep:
        sess = ManaSession(self.nranks, self.factory, MACHINE, self.cfg)
        out = self.spans.call("ManaSession.run", sess.run)
        counts = session_counts(sess, out)
        return Rep(session_fingerprint(sess, out), fingerprint(out.results),
                   counts, work=counts["mana.mpi_calls"])

    def verify(self, rep: Rep) -> Verify:
        native, wall = self.native(self.nranks, self.factory)
        return Verify(
            [("mana results == native results",
              fingerprint(native.results) == rep.results_fp)],
            wall,
            {"model.mana_overhead_ratio":
             rep.counts["model.sim_elapsed_s"] / native.elapsed},
        )


class DftCollectives(_SteadyState):
    name = "dft_collectives"
    work_metric = "mpi_calls_per_s"

    @staticmethod
    def _factory(seed, scale, nranks):
        cfg = DftConfig(nranks=nranks, workload=vasp_workload("CaPOH"),
                        iterations=scale["iterations"], seed=seed)
        return lambda r: DftProxy(r, cfg, MACHINE)


class MdHalo(_SteadyState):
    name = "md_halo"
    work_metric = "mpi_calls_per_s"

    @staticmethod
    def _factory(seed, scale, nranks):
        cfg = MdConfig(nranks=nranks, steps=scale["steps"], seed=seed)
        return lambda r: MdProxy(r, cfg, MACHINE)


# ----------------------------------------------------------------------
class CkptRounds(_Workload):
    """MD proxy with evenly spaced checkpoint + RECONNECT restart rounds.

    The uncheckpointed run is at once the warm-up, the reference result
    and the subtrahend of the per-round cost."""

    name = "ckpt_rounds"
    work_metric = "ckpt_rounds_per_added_s"

    def __init__(self, seed: int, scale: dict, spans, tmp: str):
        self.spans = spans
        self.nranks = scale["nranks"]
        self.rounds = scale["rounds"]
        md = MdConfig(nranks=self.nranks, steps=scale["steps"], seed=seed)
        self.factory = lambda r: MdProxy(r, md, MACHINE)
        self.cfg = ManaConfig.feature_2pc().but(storage=StoragePolicy.ladder())

    def setup(self) -> None:
        sess = ManaSession(self.nranks, self.factory, MACHINE, self.cfg)
        base, self.base_s = _timed(
            lambda: self.spans.call("ManaSession.run", sess.run))
        self.base_fp = fingerprint(base.results)
        self.base_elapsed = base.elapsed
        self.plans = [
            CheckpointPlan(at=base.elapsed * (i + 1) / (self.rounds + 1),
                           action="restart")
            for i in range(self.rounds)
        ]

    def rep(self) -> Rep:
        sess = ManaSession(self.nranks, self.factory, MACHINE, self.cfg)
        out = self.spans.call("ManaSession.run", sess.run,
                              checkpoints=self.plans)
        counts = session_counts(sess, out)
        results_fp = fingerprint(out.results)
        return Rep(session_fingerprint(sess, out), results_fp, counts,
                   work=self.rounds,
                   ok=(results_fp == self.base_fp
                       and len(out.restarts) == self.rounds
                       and counts["mana.ckpt_epochs"] == self.rounds))

    def verify(self, rep: Rep) -> Verify:
        native, wall = self.native(self.nranks, self.factory)
        return Verify(
            [("checkpointed results == native results",
              fingerprint(native.results) == rep.results_fp)],
            wall,
            {"model.mana_overhead_ratio": self.base_elapsed / native.elapsed},
        )


# ----------------------------------------------------------------------
class ReexecReplay(_Workload):
    """REEXEC restart: each sample resumes one saved image by
    deterministic re-execution, on the config's default replay path."""

    name = "reexec_replay"
    work_metric = "replay_calls_per_s"

    def __init__(self, seed: int, scale: dict, spans, tmp: str):
        self.spans = spans
        self.nranks = scale["nranks"]
        self.laps = scale["laps"]
        self.warm = scale["warm"]
        # the token ring has no seeded input; the seed picks the halt
        # point inside the last tenth of the run instead
        rng = np.random.default_rng(seed)
        self.halt_frac = 0.90 + 0.02 * float(rng.random())
        self.factory = lambda r: TokenRing(r, laps=self.laps)
        self.expected_fp = fingerprint(
            [TokenRing.expected(r, self.nranks, self.laps)
             for r in range(self.nranks)])
        self.cfg = ManaConfig.feature_2pc().but(record_replay=True)
        self.path = os.path.join(tmp, "reexec.ckpt")

    def setup(self) -> None:
        probe = self.spans.call("ManaSession.run", ManaSession(
            self.nranks, self.factory, MACHINE, self.cfg).run)
        self.full_elapsed = probe.elapsed
        halted = ManaSession(self.nranks, self.factory, MACHINE,
                             self.cfg)
        self.spans.call("ManaSession.run", halted.run, checkpoints=[
            CheckpointPlan(at=probe.elapsed * self.halt_frac, action="halt")])
        self.spans.call("save_checkpoint", halted.save_checkpoint, self.path)
        for _ in range(self.warm):
            self.rep()

    def rep(self) -> Rep:
        sess = self.spans.call(
            "resume_from_checkpoint", resume_from_checkpoint,
            self.path, self.factory, MACHINE, self.cfg)
        out = self.spans.call("ManaSession.run", sess.run)
        counts = session_counts(sess, out)
        results_fp = fingerprint(out.results)
        return Rep(session_fingerprint(sess, out), results_fp, counts,
                   work=counts["ir.replayed_calls"],
                   ok=results_fp == self.expected_fp)

    def verify(self, rep: Rep) -> Verify:
        native, wall = self.native(self.nranks, self.factory)
        return Verify(
            [("native results == TokenRing.expected",
              fingerprint(native.results) == self.expected_fp)],
            wall,
            {"model.mana_overhead_ratio": self.full_elapsed / native.elapsed},
        )

    def close(self) -> None:
        if os.path.exists(self.path):
            os.unlink(self.path)


# ----------------------------------------------------------------------
class ChaosCampaign(_Workload):
    """A crash-anywhere chaos grid drained by the campaign runner."""

    name = "chaos_campaign"
    work_metric = "cells_per_s"

    def __init__(self, seed: int, scale: dict, spans, tmp: str):
        self.spans = spans
        self.tmp = tmp
        self.scale = scale
        self.spec = self._spec(seed, scale["points"])
        self._warm_spec = self._spec(seed, scale["warm_points"])
        self.cells = len(self.spec.cells())

    def _spec(self, seed, points):
        return spec_chaos(points=points, nranks=self.scale["nranks"],
                          laps=self.scale["laps"], kinds=CHAOS_KINDS,
                          seed=seed)

    def _campaign(self, spec):
        root = tempfile.mkdtemp(prefix="campaign-", dir=self.tmp)
        try:
            return self.spans.call("run_campaign", run_campaign, spec, root,
                                   workers=CHAOS_WORKERS)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def setup(self) -> None:
        self._campaign(self._warm_spec)

    def _rep_from(self, rows) -> Rep:
        """``rows``: (cell id, status, result dict) per cell."""
        rows = sorted(rows, key=lambda row: row[0])
        status = [s for _cid, s, _res in rows]
        failed = len(status) - status.count("ok") - status.count("lost")
        counts = {
            "campaign.cells_ok": status.count("ok"),
            "campaign.cells_lost": status.count("lost"),
            "campaign.cells_failed": failed,
            "faults.recovered": sum(
                1 for _cid, s, res in rows
                if s == "ok" and res["classification"] == "recovered"),
            "faults.lost": status.count("lost"),
            # a violated invariant raises inside the cell: a failed cell
            "faults.violations": failed,
            "model.sim_elapsed_s": sum(
                res["elapsed"] for _cid, s, res in rows if s in ("ok", "lost")),
        }
        fp = fingerprint([
            (cid, s, (res or {}).get("elapsed"), (res or {}).get("work_lost"))
            for cid, s, res in rows])
        return Rep(fp, fp, counts, work=len(rows),
                   ok=len(rows) == self.cells and failed == 0)

    def rep(self) -> Rep:
        run = self._campaign(self.spec)
        return self._rep_from(
            (cid, rec["status"], rec["result"])
            for cid, rec in run.records.items())

    def traced_rep(self) -> Rep:
        """The same cells run in this process, where a profile can see
        them: the campaign's workers are forked and invisible to it."""
        rows = []
        for cell in self.spec.cells():
            try:
                res = self.spans.call("run_cell", run_cell, cell.kind,
                                      cell.params_dict, 0)
                rows.append((cell.cell_id, "ok", res))
            except JobLostError as exc:
                rows.append((cell.cell_id, "lost", dict(exc.record)))
        return self._rep_from(rows)

    def verify(self, rep: Rep) -> Verify:
        """The harness exposes no per-cell counters, so the session-level
        counts are those of one fault-free reference session built the
        way every cell builds its golden run."""
        # imported here, after the timed campaigns: a campaign parent
        # (`repro campaign run`) has not loaded the harness either, and
        # every forked cell pays for importing it
        from repro.faults.chaos import chaos_config, chaos_golden

        nranks, laps = self.scale["nranks"], self.scale["laps"]
        golden = chaos_golden(nranks, laps)
        factory = lambda r: TokenRing(r, laps=laps, compute_s=2e-3)  # noqa: E731
        native, wall = self.native(nranks, factory, TESTBOX_MN)
        sess = ManaSession(nranks, factory, TESTBOX_MN, chaos_config())
        out, ref_wall = _timed(lambda: self.spans.call(
            "ManaSession.run", sess.run,
            checkpoint_interval=golden["interval"]))
        counts = session_counts(sess, out)
        expected_fp = fingerprint(golden["expected"])
        checks = [("reference session results == TokenRing.expected",
                   fingerprint(out.results) == expected_fp
                   and fingerprint(native.results) == expected_fp)]
        keep = ("des.events", "simnet.messages", "simnet.bytes",
                "simmpi.lib_calls", "mana.mpi_calls", "mana.oob_messages",
                "mana.ckpt_epochs", "storage.copies_written",
                "ir.replayed_calls")
        extra = {k: counts[k] for k in keep}
        extra["model.mana_overhead_ratio"] = golden["elapsed"] / native.elapsed
        return Verify(checks, wall, extra, {
            "des.us_per_event": 1e6 * ref_wall / counts["des.events"],
            "mana.wall_over_native": ref_wall / wall,
        })

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (
    DftCollectives, MdHalo, CkptRounds, ReexecReplay, ChaosCampaign)}

#: inputs per scale (README.md: how they were sized)
SCALES = {
    "full": {
        "dft_collectives": dict(nranks=256, warm_nranks=64, iterations=2),
        "md_halo": dict(nranks=512, warm_nranks=128, steps=12),
        "ckpt_rounds": dict(nranks=256, steps=6, rounds=3),
        "reexec_replay": dict(nranks=64, laps=150, warm=2),
        "chaos_campaign": dict(points=20, nranks=8, laps=12, warm_points=2),
    },
    "quick": {
        "dft_collectives": dict(nranks=16, warm_nranks=4, iterations=1),
        "md_halo": dict(nranks=16, warm_nranks=8, steps=4),
        "ckpt_rounds": dict(nranks=16, steps=4, rounds=2),
        "reexec_replay": dict(nranks=8, laps=30, warm=1),
        "chaos_campaign": dict(points=2, nranks=4, laps=6, warm_points=1),
    },
}
