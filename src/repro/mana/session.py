"""ManaSession: run an application natively or under MANA, checkpoint
it, restart it, and collect the telemetry the benches report.

The session wires up the whole stack — scheduler, network, OOB channel,
lower half, MANA runtime, coordinator, one main process and one
checkpoint thread per rank, and a controller process that fires the
planned checkpoint requests at the requested virtual times (the paper's
"checkpoint at the 5-minute mark").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.des.scheduler import Scheduler
from repro.des.syscalls import Advance
from repro.errors import (
    CheckpointError,
    HaltSignal,
    JobLostError,
    RecoveryError,
)
from repro.hosts.machine import MachineSpec
from repro.hosts.presets import TESTBOX
from repro.mana.api import NativeApi
from repro.mana.config import ManaConfig
from repro.mana.coordinator import Coordinator
from repro.mana.runtime import ManaRank, ManaRuntime
from repro.mana.twophase import ckpt_thread_body, heartbeat_body
from repro.mana.wrappers import ManaApi
from repro.simmpi.library import MpiLibrary, RankTask
from repro.simnet.network import Network
from repro.simnet.oob import COORDINATOR_ID, RECOVERY_ID, OobChannel

#: OOB endpoint id of the session controller
CONTROLLER_ID = -2

#: result sentinel of a rank terminated by a "halt" checkpoint
HALTED = "__halted__"

#: a program factory builds one rank's program object
ProgramFactory = Callable[[int], Any]


@dataclass
class CheckpointPlan:
    """One planned checkpoint: when, and what to do afterwards."""

    at: float
    action: str = "resume"  # "resume" | "restart" | "halt"

    def __post_init__(self):
        if self.action not in ("resume", "restart", "halt"):
            raise ValueError(f"unknown checkpoint action {self.action!r}")


@dataclass
class RunOutcome:
    """Everything a run produced."""

    results: List[Any]
    elapsed: float
    mode: str                                   # "native" | "mana"
    rank_stats: List[Any] = field(default_factory=list)
    checkpoints: List[dict] = field(default_factory=list)
    restarts: List[dict] = field(default_factory=list)
    network_messages: int = 0
    network_bytes: int = 0
    oob_messages: int = 0
    lib_calls: Dict[str, int] = field(default_factory=dict)
    image_bytes: List[int] = field(default_factory=list)
    #: injected faults (repro.faults), crash detections (coordinator),
    #: and automatic rollback-restart recoveries, in occurrence order
    faults: List[dict] = field(default_factory=list)
    detections: List[dict] = field(default_factory=list)
    recoveries: List[dict] = field(default_factory=list)
    #: checkpoint-store summary (policy, committed epochs, tier copies,
    #: verification failures, parity rebuilds, ...)
    storage: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_collective_calls(self) -> int:
        return sum(s.collective_calls for s in self.rank_stats)

    @property
    def total_pt2pt_calls(self) -> int:
        return sum(s.pt2pt_calls for s in self.rank_stats)


def run_app_native(
    nranks: int,
    program_factory: ProgramFactory,
    machine: MachineSpec = TESTBOX,
    until: Optional[float] = None,
) -> RunOutcome:
    """Run the application directly on the lower half (no MANA).

    The baseline of every overhead comparison in the paper (Figure 2
    blue bars, Table II "Native" column)."""
    sched = Scheduler()
    network = Network(sched, machine, nranks)
    lib = MpiLibrary(sched, network, machine)
    procs = []
    apis: List[NativeApi] = []
    finish_times: Dict[int, float] = {}
    for r in range(nranks):
        box: dict = {}

        def body(rank=r, box=box):
            api = box["api"]
            program = program_factory(rank)
            result = yield from program.main(api)
            yield from api._finalize()
            finish_times[rank] = sched.now
            return result

        proc = sched.spawn(body(), f"rank{r}")
        task = lib.make_task(proc, r)
        api = NativeApi(lib, task, machine)
        box["api"] = api
        apis.append(api)
        procs.append(proc)
    sched.run(until=until)
    if until is None:
        unfinished = sched.unfinished()
        if unfinished:
            raise RuntimeError(
                f"native run ended with unfinished ranks: "
                f"{[p.name for p in unfinished[:8]]}"
            )
    return RunOutcome(
        results=[p.result for p in procs],
        elapsed=max(finish_times.values(), default=sched.now),
        mode="native",
        rank_stats=[a.stats for a in apis],
        network_messages=network.stats.messages,
        network_bytes=network.stats.bytes,
        lib_calls=dict(lib.calls),
    )


class ManaSession:
    """A MANA-supervised run of one MPI application."""

    def __init__(
        self,
        nranks: int,
        program_factory: ProgramFactory,
        machine: MachineSpec = TESTBOX,
        cfg: Optional[ManaConfig] = None,
        reexec_images: Optional[list] = None,
        trace_sink: Optional[Any] = None,
    ):
        self.nranks = nranks
        self.program_factory = program_factory
        self.machine = machine
        self.cfg = cfg if cfg is not None else ManaConfig.feature_2pc()
        if reexec_images is not None and not self.cfg.record_replay:
            raise ValueError("REEXEC resume requires cfg.record_replay=True")
        self._reexec_images = reexec_images

        self.sched = Scheduler()
        if trace_sink is not None:
            # arm the trace-event spine: every layer (scheduler, network,
            # lower half, pipeline stages) emits into this sink
            self.sched.tracer.set_sink(trace_sink)
        self.network = Network(self.sched, machine, nranks)
        self.oob = OobChannel(self.sched)
        self.rt = ManaRuntime(
            self.sched, self.network, self.oob, machine, self.cfg, nranks
        )
        self.coordinator = Coordinator(self.rt)
        self._controller_box = self.oob.register(CONTROLLER_ID)
        self._controller_records: List[dict] = []
        self._finish_times: Dict[int, float] = {}
        self._wired = False
        #: main process per rank (rebuilt in place by crash recovery)
        self._procs: List[Any] = []
        self.recovery: Optional[RecoveryOrchestrator] = None
        #: auxiliary self-scheduling processes (controllers, monitors)
        #: that must be torn down when the job is terminally lost, or
        #: they would generate events forever and the queue never drains
        self._aux_procs: List[Any] = []
        #: callbacks fired at every recovery phase transition:
        #: ``hook(phase, ctx)`` with phase in select_epoch | teardown |
        #: rebuild | replay | resume and ctx carrying attempt /
        #: incarnation / dead ranks.  The chaos harness injects faults
        #: *inside* the recovery window through these.
        self.recovery_phase_hooks: List[Callable[[str, dict], None]] = []
        #: set by the orchestrator's graceful-degradation path; makes
        #: ``run()`` raise a typed JobLostError after the queue drains
        self._job_lost_record: Optional[dict] = None

    # ------------------------------------------------------------------
    def _spawn_rank(self, mrank: ManaRank, reexec_payload=None):
        """Build one rank's program + API and spawn its main process,
        checkpoint thread, and (when crash detection is armed) heartbeat
        daemon.  Shared by initial wiring and crash recovery — recovery
        passes the durable image as ``reexec_payload`` so the fresh rank
        replays its way back to the committed epoch."""
        mrank.program = self.program_factory(mrank.rank)
        if self.cfg.record_replay:
            from repro.mana.reexec import build_recording_api
            from repro.mana.replay import ReplayLog

            if reexec_payload is not None:
                # crash recovery wants a ("replay_done", rank, incarnation)
                # notification when the reexec transition completes
                mrank._notify_recovery = bool(
                    reexec_payload.get("notify_recovery")
                )
                mrank._reexec_image = reexec_payload["state"]
                mrank._reexec_nbytes = reexec_payload["nbytes"]
                # crash recovery supplies the tier-accurate image read
                # time (wasted attempts at unrecoverable epochs included)
                mrank._reexec_read_time = reexec_payload.get("read_time")
                log = ReplayLog(
                    list(reexec_payload["state"]["replay_log"]), replaying=True
                )
            else:
                log = ReplayLog()
            mrank.api = build_recording_api(mrank, log)
        else:
            mrank.api = ManaApi(mrank)

        def main_body(mr=mrank):
            try:
                result = yield from mr.program.main(mr.api)
                yield from mr.api._finalize()
            except HaltSignal:
                self._finish_times[mr.rank] = self.sched.now
                return HALTED
            finished = mr.app_finished_at
            self._finish_times[mr.rank] = (
                finished if finished is not None else self.sched.now
            )
            return result

        inc = self.rt.incarnation
        suffix = f"-inc{inc}" if inc else ""
        proc = self.sched.spawn(main_body(), f"rank{mrank.rank}{suffix}")
        mrank.proc = proc
        mrank.task = RankTask(proc=proc, world_rank=mrank.rank)
        mrank.ckpt_proc = self.sched.spawn(
            ckpt_thread_body(mrank),
            f"ckpt-thread-{mrank.rank}{suffix}", daemon=True,
        )
        if self.cfg.heartbeat_interval is not None:
            mrank.hb_proc = self.sched.spawn(
                heartbeat_body(mrank), f"hb-{mrank.rank}{suffix}", daemon=True
            )
        return proc

    # ------------------------------------------------------------------
    def _wire(self, checkpoints: Sequence[CheckpointPlan]) -> List:
        if self._wired:
            raise RuntimeError("a ManaSession can only be run once")
        self._wired = True
        rt = self.rt
        self.coordinator.proc = self.sched.spawn(
            self.coordinator.run(), "coordinator", daemon=True
        )
        procs = []
        for mrank in rt.ranks:
            mrank.mailbox = self.oob.register(mrank.rank)
            payload = (
                self._reexec_images[mrank.rank]
                if self._reexec_images is not None
                else None
            )
            procs.append(self._spawn_rank(mrank, reexec_payload=payload))
        self._procs = procs

        if self.cfg.heartbeat_interval is not None:
            # crash detection is on; arm automatic recovery too when the
            # session records results (dead ranks are re-executed from
            # the last durable image — REEXEC machinery)
            if self.cfg.record_replay:
                self.recovery = RecoveryOrchestrator(self)
                self.recovery.proc = self.sched.spawn(
                    self.recovery.run(), "recovery-orchestrator", daemon=True
                )
                self.coordinator.recovery_armed = True
            self.coordinator.start_heartbeat_monitor()

        if checkpoints:
            plans = sorted(checkpoints, key=lambda p: p.at)

            def controller():
                for plan in plans:
                    dt = plan.at - self.sched.now
                    if dt > 0:
                        yield Advance(dt)
                    self.oob.send(
                        -1, ("ckpt_request", plan.action, CONTROLLER_ID)
                    )
                    reply = yield from self._controller_box.get(ctrl_proc)
                    if reply[0] != "cycle_complete":
                        raise CheckpointError(
                            f"controller: unexpected reply {reply!r}"
                        )
                    self._controller_records.append(reply[1])

            ctrl_proc = self.sched.spawn(controller(), "controller", daemon=True)
            self._aux_procs.append(ctrl_proc)
        return procs

    # ------------------------------------------------------------------
    def run(
        self,
        checkpoints: Sequence[CheckpointPlan] = (),
        until: Optional[float] = None,
        deadlock_monitor: Optional[float] = None,
        checkpoint_interval: Optional[float] = None,
        interval_action: str = "resume",
    ) -> RunOutcome:
        """Run to completion.  ``deadlock_monitor`` (a sampling interval
        in virtual seconds) arms the Section VI deadlock detector: MPI-
        level waits-for analysis with named ranks and pending operations,
        raised as DeadlockError when a knot persists.
        ``checkpoint_interval`` is DMTCP's ``-i``: automatic checkpoints
        every N virtual seconds until the computation ends (requests
        landing after the end are skipped gracefully)."""
        self._wire(checkpoints)
        if checkpoint_interval is not None:
            self._spawn_interval_controller(checkpoint_interval,
                                            interval_action)
        if deadlock_monitor is not None:
            from repro.mana.deadlock import DeadlockMonitor

            self.deadlock_monitor = DeadlockMonitor(
                self.rt, interval=deadlock_monitor
            )
            self._aux_procs.append(self.sched.spawn(
                self.deadlock_monitor.body(), "deadlock-monitor", daemon=True
            ))
        try:
            self.sched.run(until=until)
        finally:
            self.sched.tracer.close()  # flush any attached trace sink
        if self._job_lost_record is not None:
            # the queue drained to zero and every process was torn down;
            # surface the terminal outcome as a typed exception carrying
            # the fully-accounted record (also in rt.recovery_records)
            rec = self._job_lost_record
            msg = (
                f"job lost after {rec['attempts']} rollback attempt(s): "
                f"{rec['reason']}"
            )
            if rec.get("error"):
                msg += f" — {rec['error']}"
            raise JobLostError(msg, record=rec)
        if until is None:
            unfinished = self.sched.unfinished()
            if unfinished:
                raise RuntimeError(
                    f"MANA run ended with unfinished ranks: "
                    f"{[p.name for p in unfinished[:8]]}"
                )
        rt = self.rt
        return RunOutcome(
            results=[p.result for p in self._procs],
            elapsed=max(self._finish_times.values(), default=self.sched.now),
            mode="mana",
            rank_stats=[m.stats for m in rt.ranks],
            checkpoints=list(self.coordinator.records),
            restarts=list(rt.restart_records),
            network_messages=self.network.stats.messages,
            network_bytes=self.network.stats.bytes,
            oob_messages=self.oob.messages_sent,
            lib_calls=dict(rt.lib.calls),
            image_bytes=[
                m.last_image.nbytes for m in rt.ranks if m.last_image is not None
            ],
            faults=list(rt.fault_records),
            detections=list(self.coordinator.detections),
            recoveries=list(rt.recovery_records),
            storage=rt.store.summary(),
        )


    def _spawn_interval_controller(self, interval: float, action: str) -> None:
        """The DMTCP '-i' loop: request a checkpoint every ``interval``
        virtual seconds while the computation runs."""
        box = self.oob.register(-3)

        def body():
            while True:
                yield Advance(interval)
                if all(m.finalized for m in self.rt.ranks):
                    return
                self.oob.send(-1, ("ckpt_request", action, -3))
                reply = yield from box.get(proc)
                if reply[0] != "cycle_complete":
                    raise CheckpointError(
                        f"interval controller: unexpected reply {reply!r}"
                    )
                if reply[1].get("skipped"):
                    return  # the computation ended; stop the loop

        proc = self.sched.spawn(body(), "interval-controller", daemon=True)
        self._aux_procs.append(proc)

    # ------------------------------------------------------------------
    # REEXEC: save a halted computation's images; resume from them
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> int:
        """Write every rank's latest checkpoint image to ``path``.

        Returns the file size in bytes.  Typically used after a run with
        a ``CheckpointPlan(action="halt")`` — the paper's "jobs were
        checkpointed at the 5-minute mark and terminated" scenario.
        """
        from repro.util import serde

        images = []
        for mrank in self.rt.ranks:
            image = mrank.last_image
            if image is None:
                raise CheckpointError(
                    f"rank {mrank.rank} has no checkpoint image to save"
                )
            images.append({"state": image.payload(), "nbytes": image.nbytes})
        blob = serde.dumps(
            {
                "nranks": self.nranks,
                "machine": self.machine.name,
                "cfg_name": self.cfg.name,
                # machine provenance: where the images were taken (the
                # bare "machine" key above stays for pre-refactor readers)
                "provenance": {
                    **self.machine.provenance(),
                    "cfg_name": self.cfg.name,
                    "nranks": self.nranks,
                },
                "images": images,
            }
        )
        with open(path, "wb") as fh:
            fh.write(blob)
        return len(blob)


class RecoveryOrchestrator:
    """The resource manager's rollback-restart loop (daemon coroutine).

    When the coordinator's heartbeat monitor declares ranks dead, it
    notifies this orchestrator at :data:`RECOVERY_ID`.  Recovery is
    whole-job: the crashed rank's connections are gone and every peer's
    lower half references them, so all ranks are torn down and
    re-executed from the last *durable* checkpoint epoch — the REEXEC
    restart mode, driven automatically instead of by a new session.
    Work since the durable epoch is lost and accounted in
    ``rt.recovery_records``.

    Recovery is an interruptible state machine, not a one-shot call:
    each attempt walks explicit phases (select-epoch → teardown →
    rebuild → replay → resume) and a crash notification landing
    mid-recovery restarts the attempt for the *union* of dead ranks.
    Attempts are bounded by ``cfg.max_incarnations`` with exponential
    backoff (``cfg.recovery_backoff``) and a per-attempt watchdog
    (``cfg.recovery_deadline``).  When the budget is exhausted — or no
    committed epoch is recoverable — the job ends in the graceful
    degradation path: every process is torn down, a terminal record is
    appended, the event queue drains to zero, and ``ManaSession.run()``
    raises a typed :class:`~repro.errors.JobLostError`.  Never a hang,
    never an unhandled exception through the DES loop.
    """

    def __init__(self, session: ManaSession):
        self.session = session
        self.rt = session.rt
        self.mailbox = session.oob.register(RECOVERY_ID)
        self.proc = None  # set by the session at spawn
        #: invalidates replay_done/watchdog messages from older attempts
        self._replay_serial = 0

    def run(self):
        while True:
            msg = yield from self.mailbox.get(self.proc)
            kind = msg[0]
            if kind == "crash":
                genuine = self._genuine_dead(dead=msg[1], detection=msg[2])
                if not genuine:
                    continue
                status = yield from self._recover_until_stable(
                    set(genuine), msg[2]
                )
                if status == "lost":
                    return  # the job is over; retire the daemon
            elif kind in ("replay_done", "recovery_deadline"):
                pass  # straggler notification from a finished recovery
            else:
                raise RecoveryError(
                    f"recovery orchestrator: unexpected message {msg!r}"
                )

    # ------------------------------------------------------------------
    def _genuine_dead(self, dead, detection: dict) -> List[int]:
        """Dedupe by incarnation: a crash notification that raced with a
        completed recovery names ranks of a torn-down incarnation.  If
        every named rank's *current* process is alive, the notification
        is wholly stale — acknowledge it so the coordinator resumes
        monitoring, and do not roll back.  Ranks that really are dead
        (whatever incarnation the detector saw) are always genuine."""
        rt = self.rt
        if detection.get("incarnation", rt.incarnation) >= rt.incarnation:
            return list(dead)
        actually_dead = [
            r for r in dead
            if rt.ranks[r].proc is None or not rt.ranks[r].proc.alive
        ]
        if actually_dead:
            return actually_dead
        tracer = rt.sched.tracer
        if tracer.enabled:
            tracer.emit(
                "recovery", "stale_crash_ignored", ranks=list(dead),
                detector_incarnation=detection.get("incarnation"),
                incarnation=rt.incarnation,
            )
        self.session.oob.send(COORDINATOR_ID, ("recovered", list(dead)))
        return []

    # ------------------------------------------------------------------
    def _select_epoch(self, dead: List[int]):
        """Walk the committed epochs newest-first; at each, try to
        recover every rank's image through the storage tier ladder.

        The first epoch where *all* ranks produce verified bytes wins.
        Reads spent at epochs that turn out unrecoverable are not free:
        their per-rank cost is carried into the chosen epoch's read
        times.  Returns ``(epoch, {rank: RecoverResult}, wasted, fallbacks)``.
        """
        rt = self.rt
        store = rt.store
        tracer = rt.sched.tracer
        epochs = store.committed_epochs()
        if not epochs:
            raise RecoveryError(
                f"ranks {dead} crashed but no committed checkpoint epoch "
                "is recoverable; nothing to roll back to"
            )
        wasted = {m.rank: 0.0 for m in rt.ranks}
        fallbacks = 0
        for epoch in epochs:
            results = {
                m.rank: store.recover(m.rank, epoch) for m in rt.ranks
            }
            bad = sorted(r for r, res in results.items() if not res.ok)
            if not bad:
                return epoch, results, wasted, fallbacks
            # this epoch cannot restart the whole job: degrade to the
            # next older durable epoch, charging the attempts made here
            fallbacks += 1
            for r, res in results.items():
                wasted[r] += res.read_time
            if tracer.enabled:
                tracer.emit("recovery", "epoch_fallback", epoch=epoch,
                            unrecoverable=bad)
        raise RecoveryError(
            f"ranks {dead} crashed and no committed epoch "
            f"{epochs} is fully recoverable on any storage tier; "
            "nothing to roll back to"
        )

    # ------------------------------------------------------------------
    def _enter_phase(self, phase: str, attempt: int, union: set) -> None:
        """Mark a recovery phase transition: trace it and fire the
        session's phase hooks (the chaos harness injects faults *inside*
        the recovery window through these)."""
        ctx = {
            "attempt": attempt,
            "incarnation": self.rt.incarnation,
            "ranks": sorted(union),
        }
        tracer = self.rt.sched.tracer
        if tracer.enabled:
            tracer.emit("recovery", "phase", phase=phase, **ctx)
        for hook in list(self.session.recovery_phase_hooks):
            hook(phase, ctx)

    def _drain_crashes(self, union: set) -> None:
        """Merge any crash notifications queued while we slept."""
        while True:
            msg = self.mailbox.try_get()
            if msg is None:
                return
            if msg[0] == "crash":
                union.update(msg[1])

    # ------------------------------------------------------------------
    def _recover_until_stable(self, union: set, detection: dict):
        """Run rollback attempts until the job is stable or lost.

        One *episode* covers one contiguous stretch of instability: it
        starts at the first genuine crash notification and ends either
        with every rank past its replay ("recovered", one record) or in
        the graceful job-lost path.  A cascade — a new crash landing
        mid-attempt — merges its ranks into ``union`` and starts the
        next attempt; it never nests a second recovery.
        """
        rt, session = self.rt, self.session
        sched = rt.sched
        cfg = rt.cfg
        tracer = sched.tracer
        if session.recovery is not self:
            raise RecoveryError("orchestrator used outside its session")
        episode_start = sched.now
        attempts = 0
        total_fallbacks = 0
        while True:
            attempts += 1
            if attempts > cfg.max_incarnations:
                self._job_lost(
                    "max_incarnations", union, detection, attempts - 1
                )
                return "lost"
            if attempts >= 2 and cfg.recovery_backoff > 0.0:
                delay = cfg.recovery_backoff * (2.0 ** (attempts - 2))
                if tracer.enabled:
                    tracer.emit("recovery", "backoff", attempt=attempts,
                                delay=delay)
                yield Advance(delay)
                self._drain_crashes(union)

            # ---- phase: select-epoch -----------------------------------
            self._enter_phase("select_epoch", attempts, union)
            try:
                epoch, results, wasted, fallbacks = self._select_epoch(
                    sorted(union)
                )
            except RecoveryError as exc:
                self._job_lost("no_recoverable_epoch", union, detection,
                               attempts, error=str(exc))
                return "lost"
            total_fallbacks += fallbacks
            if tracer.enabled:
                tracer.emit("recovery", "recovery_start",
                            ranks=sorted(union), epoch=epoch,
                            attempt=attempts,
                            incarnation=rt.incarnation + 1)

            # ---- phase: teardown ---------------------------------------
            # kill every surviving process of the old incarnation: the
            # job is restarted whole (srun relaunch), survivors included;
            # then replace the lower half — in-flight traffic of the old
            # incarnation is lost with it
            self._enter_phase("teardown", attempts, union)
            for m in rt.ranks:
                for p in (m.proc, m.ckpt_proc, m.hb_proc):
                    if p is not None:
                        sched.kill(p, reason=f"recovery to epoch {epoch}")
            teardown = rt.crash_teardown()

            # ---- phase: rebuild ----------------------------------------
            self._enter_phase("rebuild", attempts, union)
            work_lost = episode_start - max(
                res.meta["taken_at"] for res in results.values()
            )
            sources = {r: res.source for r, res in results.items()}
            self._rebuild_ranks(epoch, results, wasted)
            # hand liveness monitoring of the fresh incarnation back to
            # the coordinator right away, so a kill landing mid-replay is
            # detected as a cascade instead of ignored as already-dead
            session.oob.send(COORDINATOR_ID, ("rebuilt", sorted(union)))

            # ---- phase: replay -----------------------------------------
            # the fresh incarnation replays its way back to the durable
            # epoch; a cascade crash or watchdog expiry restarts the loop
            # (the next teardown clears whatever was left mid-replay)
            self._enter_phase("replay", attempts, union)
            status, new_dead = yield from self._await_replay()
            if status == "crash":
                union.update(new_dead)
                if tracer.enabled:
                    tracer.emit("recovery", "cascade_crash",
                                ranks=sorted(new_dead), attempt=attempts,
                                union=sorted(union))
                continue
            if status == "deadline":
                continue

            # ---- phase: resume -----------------------------------------
            self._enter_phase("resume", attempts, union)
            rt.recovery_records.append(
                {
                    "dead_ranks": sorted(union),
                    "epoch": epoch,
                    "incarnation": rt.incarnation,
                    "attempts": attempts,
                    "detected_at": detection.get("detected_at",
                                                 episode_start),
                    "recovered_at": sched.now,
                    "work_lost": work_lost,
                    "epoch_fallbacks": total_fallbacks,
                    "storage_sources": sources,
                    "helpers_killed": teardown["helpers_killed"],
                    "msgs_purged": teardown["msgs_purged"],
                }
            )
            if tracer.enabled:
                tracer.emit("recovery", "recovery_done",
                            ranks=sorted(union), epoch=epoch,
                            work_lost=work_lost, attempts=attempts,
                            fallbacks=total_fallbacks)
            session.oob.send(COORDINATOR_ID, ("recovered", sorted(union)))
            return "recovered"

    # ------------------------------------------------------------------
    def _rebuild_ranks(self, epoch: int, results: dict, wasted: dict) -> None:
        """Fresh upper halves: new ManaRank per rank, staged to replay
        its recorded history back to the durable epoch.  Each rank's
        image is rebuilt from the *verified* recovered bytes, and the
        tier-accurate read cost rides along so the reexec transition
        charges it in virtual time."""
        from repro.mana.checkpoint import CheckpointImage
        from repro.util.hashing import stable_hash

        rt, session = self.rt, self.session
        for old in list(rt.ranks):
            res = results[old.rank]
            img = CheckpointImage(
                rank=old.rank,
                epoch=epoch,
                blob=res.blob,
                declared_app_bytes=res.meta["declared_app_bytes"],
                taken_at=res.meta["taken_at"],
                base_bytes=res.meta["base_bytes"],
                compressed=res.meta["compressed"],
                checksum=stable_hash(res.blob),
                machine=res.meta.get("machine", ""),
                kernel=res.meta.get("kernel", ""),
            )
            fresh = ManaRank(rt, old.rank)
            fresh.vcomms.register_world(rt.lib.comm_world)
            fresh.durable_image = img
            fresh.last_image = img
            fresh.mailbox = session.oob.reset(old.rank)
            rt.ranks[old.rank] = fresh
            session._procs[old.rank] = session._spawn_rank(
                fresh,
                reexec_payload={
                    "state": img.payload(),
                    "nbytes": img.nbytes,
                    "read_time": res.read_time + wasted[old.rank],
                    "notify_recovery": True,
                },
            )

    # ------------------------------------------------------------------
    def _await_replay(self):
        """Park until every fresh rank reports its reexec transition
        complete, a cascade crash lands, or the watchdog expires.

        Returns ``("stable", set())``, ``("crash", {ranks})``, or
        ``("deadline", set())``.  Messages from older attempts (stale
        replay_done, expired watchdogs, crash reports against torn-down
        incarnations whose ranks are all alive again) are discarded.
        """
        rt = self.rt
        sched = rt.sched
        cfg = rt.cfg
        self._replay_serial += 1
        serial = self._replay_serial
        incarnation = rt.incarnation
        if cfg.recovery_deadline is not None:
            sched.schedule(
                cfg.recovery_deadline,
                lambda: self.mailbox.put(("recovery_deadline", serial)),
            )
        pending = set(range(rt.nranks))
        while pending:
            msg = yield from self.mailbox.get(self.proc)
            kind = msg[0]
            if kind == "replay_done":
                if msg[2] == incarnation:
                    pending.discard(msg[1])
            elif kind == "recovery_deadline":
                if msg[1] == serial:
                    tracer = sched.tracer
                    if tracer.enabled:
                        tracer.emit("recovery", "watchdog_expired",
                                    serial=serial, incarnation=incarnation,
                                    still_pending=sorted(pending))
                    return "deadline", set()
            elif kind == "crash":
                genuine = self._genuine_dead(dead=msg[1], detection=msg[2])
                if genuine:
                    return "crash", set(genuine)
            else:
                raise RecoveryError(
                    f"recovery orchestrator: unexpected message {msg!r}"
                )
        return "stable", set()

    # ------------------------------------------------------------------
    def _job_lost(self, reason: str, union: set, detection: dict,
                  attempts: int, error: Optional[str] = None) -> None:
        """Graceful degradation: the job cannot be brought back.  Tear
        every process down, halt the coordinator's timer chains so the
        event queue drains to zero, and record the fully-accounted
        terminal outcome — ``ManaSession.run()`` raises it as a typed
        :class:`~repro.errors.JobLostError` once the scheduler returns."""
        rt, session = self.rt, self.session
        sched = rt.sched
        now = sched.now
        for m in rt.ranks:
            for p in (m.proc, m.ckpt_proc, m.hb_proc):
                if p is not None:
                    sched.kill(p, reason="job lost")
        for p in session._aux_procs:
            sched.kill(p, reason="job lost")
        session.coordinator.halted = True
        record = {
            "job_lost": True,
            "reason": reason,
            "error": error,
            "dead_ranks": sorted(union),
            "attempts": attempts,
            "incarnation": rt.incarnation,
            "detected_at": detection.get("detected_at", now),
            "lost_at": now,
            # nothing will ever be resumed: the whole run's work is gone
            "work_lost": now,
            "durable_epochs": list(rt.store.committed_epochs()),
        }
        rt.recovery_records.append(record)
        tracer = sched.tracer
        if tracer.enabled:
            tracer.emit("recovery", "job_lost", reason=reason,
                        ranks=sorted(union), attempts=attempts,
                        error=error)
        session._job_lost_record = record


def resume_from_checkpoint(
    path,
    program_factory: ProgramFactory,
    machine: MachineSpec,
    cfg: Optional[ManaConfig] = None,
    replay_compile: Optional[str] = None,
    trace_sink: Optional[Any] = None,
    compiled: Optional[dict] = None,
) -> "ManaSession":
    """Build a fresh session (new scheduler, network, lower half — a new
    'process') that resumes the computation saved at ``path`` by
    deterministic re-execution (REEXEC restart mode).

    ``replay_compile`` overrides the config's replay interpreter
    selection for this resume only (``"off"``/``"noop"``/``"opt"``, see
    :class:`~repro.mana.config.ManaConfig`); ``trace_sink`` arms the
    trace spine as in :class:`ManaSession`.  ``compiled`` takes a
    ``{rank: IrProgram}`` map from
    :func:`repro.mana.ir_bridge.compile_image` — restart rounds of the
    same image then skip the per-resume lowering and pass pipeline
    (the programs must come from this image; the resume validates the
    call counts and refuses a mismatched compilation).

    Restoring on a *different* machine than the image was taken on is
    supported (the image holds only the portable upper half; the lower
    half is re-derived from ``machine``): the mismatch emits a
    :class:`~repro.errors.MigrationWarning` plus a ``restart``-stage
    trace event, never an error.  Only an image from a machine this
    build does not know at all is refused with ``ValueError``.

    The caller runs it: ``resume_from_checkpoint(...).run()``.
    """
    from repro.util import serde

    with open(path, "rb") as fh:
        saved = serde.loads(fh.read())
    cfg = cfg if cfg is not None else ManaConfig.feature_2pc()
    cfg = cfg.but(record_replay=True)
    if replay_compile is not None:
        cfg = cfg.but(replay_compile=replay_compile)
    prov = _check_migration(saved, machine)
    for img in saved["images"]:
        if img["state"]["replay_log"] is None:
            raise ValueError(
                "image has no replay log; the original run must use a "
                "record_replay=True configuration to support REEXEC"
            )
    sess = ManaSession(
        saved["nranks"], program_factory, machine, cfg,
        reexec_images=saved["images"],
        trace_sink=trace_sink,
    )
    if prov is not None and sess.sched.tracer.enabled:
        sess.sched.tracer.emit(
            "restart", "cross_machine_restore",
            source_machine=prov.machine, source_kernel=prov.kernel,
            target_machine=machine.name, target_kernel=machine.linux_kernel,
            target_fs_tier=sess.rt.binding.fs_tier.value,
        )
    if compiled is not None:
        sess.rt._ir_compiled = compiled
    return sess


def _check_migration(saved: dict, machine: MachineSpec):
    """Validate the saved job's source machine against the restore target.

    Returns the source :class:`~repro.mana.portable.MachineProvenance`
    when this is a cross-machine restore (after warning), ``None`` for a
    same-machine restore.  An image from a machine this build does not
    recognize raises ``ValueError`` — nothing can be re-derived for it.
    """
    import warnings

    from repro.errors import MigrationWarning
    from repro.hosts.presets import machine_by_name
    from repro.mana.portable import MachineProvenance

    prov = MachineProvenance.from_saved(saved)
    if prov.machine == machine.name:
        return None
    try:
        source = machine_by_name(prov.machine)
    except KeyError:
        raise ValueError(
            f"image was taken on unknown machine {prov.machine!r}; "
            f"cannot re-derive a lower half for it"
        ) from None
    warnings.warn(
        MigrationWarning(
            f"restoring an image taken on {prov.machine!r} (kernel "
            f"{prov.kernel or source.linux_kernel}) onto {machine.name!r} "
            f"(kernel {machine.linux_kernel}); the lower half — costs, "
            f"FS-register tier, network and burst-buffer models — is "
            f"re-derived from {machine.name!r}"
        ),
        stacklevel=3,
    )
    return prov


def resume_elastic(
    path,
    program_factory: ProgramFactory,
    machine: MachineSpec,
    nranks: int,
    cfg: Optional[ManaConfig] = None,
    trace_sink: Optional[Any] = None,
) -> "ManaSession":
    """Restart a saved job onto a *different rank count*.

    Elastic restart is an app-level cold restart, not a REEXEC replay:
    the per-rank ``app_state`` sections of the portable images are
    re-decomposed across ``nranks`` via the program class's
    ``redecompose`` hook (block re-decomposition), and a fresh session is
    built whose ranks start from the re-decomposed state.  Protocol
    state — replay logs, drain buffers, counters — describes the *old*
    world's pairwise traffic and is deliberately dropped; the two-phase
    commit's collective-horizon equalization guarantees every image sits
    at the same iteration boundary, which ``redecompose`` asserts.

    Communicator re-splitting is deterministic: the new world's
    ``comm_split`` calls re-derive subcommunicators from the new ranks,
    so two elastic restarts of the same image are bit-identical.
    """
    from repro.util import serde

    with open(path, "rb") as fh:
        saved = serde.loads(fh.read())
    prov = _check_migration(saved, machine)
    cfg = cfg if cfg is not None else ManaConfig.feature_2pc()
    old_states = [img["state"]["app_state"] for img in saved["images"]]
    if any(s is None for s in old_states):
        raise ValueError(
            f"{path}: images carry no application state; nothing to "
            "re-decompose"
        )
    cls = type(program_factory(0))
    new_states = cls.redecompose(old_states, nranks)
    if len(new_states) != nranks:
        raise ValueError(
            f"{cls.__name__}.redecompose returned {len(new_states)} states "
            f"for {nranks} ranks"
        )

    def elastic_factory(rank: int):
        prog = program_factory(rank)
        prog.restore_state(new_states[rank])
        return prog

    sess = ManaSession(nranks, elastic_factory, machine, cfg,
                       trace_sink=trace_sink)
    if sess.sched.tracer.enabled:
        sess.sched.tracer.emit(
            "restart", "elastic_restore",
            source_ranks=saved["nranks"], target_ranks=nranks,
            source_machine=(prov.machine if prov is not None
                            else machine.name),
            target_machine=machine.name,
        )
    return sess


def import_deferred_modules() -> None:
    """Import now what this layer otherwise imports on first use.

    A session loads the checkpoint, restart, REEXEC/replay, deadlock and
    one-sided modules only when a run first needs them, which keeps
    ``import repro.mana`` light for a single job.  A process about to
    fork many jobs (``repro.campaign``) calls this once instead, so that
    its children inherit the modules rather than each importing them.
    The replay compiler (``repro.mana.ir_bridge`` and ``repro.ir``)
    stays deferred: only a non-default ``replay_compile`` reaches it.
    """
    import repro.mana.checkpoint  # noqa: F401  (drain, portable, serde)
    import repro.mana.deadlock  # noqa: F401
    import repro.mana.reexec  # noqa: F401  (replay)
    import repro.mana.restart  # noqa: F401
    import repro.simmpi.window  # noqa: F401
