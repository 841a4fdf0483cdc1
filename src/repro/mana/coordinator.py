"""The centralized coordinator and the checkpoint two-phase commit.

This is the DMTCP coordinator extended with MANA-2.0's collective-aware
logic (paper Sections III-J and III-K).  The protocol:

1. A checkpoint request arrives.  The coordinator sends INTENT to every
   rank's checkpoint thread.
2. Each rank *checks in* (parks) at its next wrapper safe point and
   reports: what it is about to do, its per-communicator blocking-
   collective completion counts, and the Section III-K globally-unique
   ID (GID) of every communicator it belongs to.  A rank blocked inside
   a lower-half collective cannot check in — its checkpoint thread
   reports IN_LOWER(gid, instance) on its behalf.
3. The coordinator *equalizes*: a collective instance that some member
   has entered and some has not cannot be cut by a checkpoint (the lower
   half, and the entered member's contribution with it, is discarded at
   restart).  Ranks behind the horizon are released to run — "which MPI
   processes must continue to execute in order to unblock later
   collective communication calls" — until, for every communicator, all
   members have completed the same number of blocking collectives and
   nobody is inside the lower half.
4. Phase two: every rank drains point-to-point traffic, snapshots its
   upper half, writes the image, and reports done.

The ``NO_BARRIER_FLAWED`` variant skips step 3 — reproducing the revised
algorithm the paper says "was found to have some flaws": a checkpoint
taken after a Bcast root returned early yields a restart that deadlocks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.des.mailbox import Mailbox
from repro.errors import CheckpointError
from repro.mana.config import CollectiveMode, ManaConfig
from repro.mana.runtime import ManaRuntime, ReleaseMode
from repro.simnet.oob import COORDINATOR_ID, RECOVERY_ID

PARKED_KINDS = {"at_collective", "blocked_pt2pt", "safe", "finalize"}


class Coordinator:
    """Runs as a daemon process; owns the checkpoint state machine."""

    def __init__(self, rt: ManaRuntime):
        self.rt = rt
        self.mailbox: Mailbox = rt.oob.register(COORDINATOR_ID)
        self.proc = None  # set by the session at spawn

        self.phase = "idle"          # idle | quiescing | checkpointing | post
        self.post_action = "resume"
        self.requester: Optional[int] = None
        self.epoch = 0

        self.reports: Dict[int, Optional[dict]] = {}
        self.horizons: Dict[int, int] = {}
        self.release_rounds = 0
        self._last_signature: Optional[tuple] = None
        self._stalls = 0

        self.ckpt_started_at = 0.0
        self.quiesced_at = 0.0
        self.done_ranks: Set[int] = set()
        self.resumed_ranks: Set[int] = set()

        # original-drain bookkeeping
        self.drain_reports: Dict[int, Tuple[int, int]] = {}
        self.drain_rounds = 0

        #: ranks granted permission to finalize (exit)
        self.finalize_granted: Set[int] = set()

        #: telemetry per completed checkpoint
        self.records: List[dict] = []

        # ------------------------------------------------------------------
        # fault tolerance: crash detection + 2PC message retry + abort
        # ------------------------------------------------------------------
        #: last heartbeat receipt time per rank (armed sessions only)
        self.last_heartbeat: Dict[int, float] = {}
        self._hb_started = 0.0
        #: ranks declared dead (cleared when recovery reports them back)
        self.dead_ranks: Set[int] = set()
        #: ranks under suspicion (silent past the timeout but not yet
        #: declared dead): rank -> {"since", "probes", "deadline"}.  A
        #: probe is retransmitted before declaring, so a delayed-but-
        #: alive heartbeat no longer triggers a spurious rollback
        self.suspects: Dict[int, dict] = {}
        #: one record per crash-detection event
        self.detections: List[dict] = []
        #: set when the job is terminally lost: stops the heartbeat
        #: timer chain and silences 2PC retry alarms so the event queue
        #: can drain to zero
        self.halted = False
        #: a recovery orchestrator is registered at RECOVERY_ID
        self.recovery_armed = False
        #: ranks whose burst-buffer write failed this epoch
        self.failed_ranks: Set[int] = set()
        self._cycle_aborted = False
        #: last 2PC directive sent to each rank, for retransmission
        self._last_directive: Dict[int, tuple] = {}
        #: invalidates in-flight retry timers when the phase advances
        self._phase_serial = 0
        self._retries = 0
        #: one record per retransmission round (telemetry)
        self.retry_events: List[dict] = []

    # ------------------------------------------------------------------
    def run(self):
        """Coordinator main loop (daemon coroutine)."""
        while True:
            msg = yield from self.mailbox.get(self.proc)
            kind = msg[0]
            if kind == "ckpt_request":
                self._on_ckpt_request(action=msg[1], requester=msg[2])
            elif kind == "state":
                self._on_state(rank=msg[1], report=msg[2])
            elif kind == "ckpt_done":
                self._on_ckpt_done(rank=msg[1], info=msg[2])
            elif kind == "resumed":
                self._on_resumed(rank=msg[1])
            elif kind == "drain_counts":
                self._on_drain_counts(rank=msg[1], sent=msg[2], received=msg[3])
            elif kind == "finalize_request":
                self._on_finalize_request(rank=msg[1])
            elif kind == "ckpt_failed":
                self._on_ckpt_failed(rank=msg[1], info=msg[2])
            elif kind == "heartbeat":
                self._on_heartbeat(
                    rank=msg[1],
                    incarnation=msg[2] if len(msg) > 2 else None,
                )
            elif kind == "hb_check":
                self._on_hb_check()
            elif kind == "twopc_timeout":
                self._on_twopc_timeout(serial=msg[1], retries=msg[2])
            elif kind == "recovered":
                self._on_recovered(ranks=msg[1])
            elif kind == "rebuilt":
                self._on_rebuilt(ranks=msg[1])
            else:
                raise CheckpointError(f"coordinator: unknown message {msg!r}")

    # ------------------------------------------------------------------
    # directed sends: every 2PC message to a rank is remembered so a
    # retry round can retransmit exactly what the silent rank missed
    # ------------------------------------------------------------------
    def _send_rank(self, rank: int, msg: tuple) -> None:
        self._last_directive[rank] = msg
        self.rt.oob.send(rank, msg)

    def _arm_retry(self) -> None:
        """(Re)start the bounded retransmit timer for the current phase.

        Real DMTCP rides on TCP; with an injectable lossy channel the
        coordinator must retransmit or a single dropped COMMIT wedges the
        job.  The timer is a local alarm (not an OOB message), so fault
        filters cannot eat it."""
        timeout = self.rt.cfg.twopc_retry_timeout
        if timeout is None:
            return
        self._phase_serial += 1
        self._retries = 0
        serial = self._phase_serial
        self.rt.sched.schedule(
            timeout, lambda: self.mailbox.put(("twopc_timeout", serial, 1))
        )

    def _silent_ranks(self) -> Set[int]:
        if self.phase == "quiescing":
            silent = {r for r, rep in self.reports.items() if rep is None}
        elif self.phase == "checkpointing":
            silent = set(range(self.rt.nranks)) - self.done_ranks
        elif self.phase == "post":
            silent = set(range(self.rt.nranks)) - self.resumed_ranks
        else:
            silent = set()
        return silent - self.dead_ranks

    def _on_twopc_timeout(self, serial: int, retries: int) -> None:
        if self.halted:
            return  # job lost: no phase will ever advance again
        if serial != self._phase_serial or self.phase == "idle":
            return  # the phase advanced; this alarm is stale
        silent = self._silent_ranks()
        if not silent:
            return  # everyone answered; progress is in flight
        cfg = self.rt.cfg
        if retries > cfg.twopc_max_retries:
            raise CheckpointError(
                f"2PC stalled in phase {self.phase!r} (epoch {self.epoch}): "
                f"ranks {sorted(silent)} silent after "
                f"{cfg.twopc_max_retries} retransmits"
            )
        resent = []
        for rank in sorted(silent):
            directive = self._last_directive.get(rank)
            if directive is not None:
                self.rt.oob.send(rank, directive)
                resent.append(rank)
        self.retry_events.append(
            {
                "epoch": self.epoch,
                "phase": self.phase,
                "round": retries,
                "ranks": resent,
                "at": self.rt.sched.now,
            }
        )
        tr = self.rt.sched.tracer
        if tr.enabled:
            tr.emit(
                "recovery", "twopc_retry", phase=self.phase,
                epoch=self.epoch, round=retries, ranks=resent,
            )
        delay = cfg.twopc_retry_timeout * (cfg.twopc_retry_backoff ** retries)
        self.rt.sched.schedule(
            delay,
            lambda: self.mailbox.put(("twopc_timeout", serial, retries + 1)),
        )

    # ------------------------------------------------------------------
    # heartbeat crash detection
    # ------------------------------------------------------------------
    def start_heartbeat_monitor(self) -> None:
        """Arm the periodic liveness scan (called by the session when
        ``cfg.heartbeat_interval`` is set)."""
        now = self.rt.sched.now
        self._hb_started = now
        self.last_heartbeat = {m.rank: now for m in self.rt.ranks}
        self._arm_hb_check()

    def _arm_hb_check(self) -> None:
        interval = self.rt.cfg.heartbeat_interval
        self.rt.sched.schedule(
            interval, lambda: self.mailbox.put(("hb_check",))
        )

    def _on_heartbeat(self, rank: int, incarnation: "int | None" = None) -> None:
        if incarnation is not None and incarnation < self.rt.incarnation:
            return  # in-flight beat from a torn-down incarnation: stale
        self.last_heartbeat[rank] = self.rt.sched.now
        tr = self.rt.sched.tracer
        if self.suspects.pop(rank, None) is not None:
            if tr.enabled:
                tr.emit("recovery", "suspicion_cleared", rank=rank)
        if rank in self.dead_ranks:
            # a rank declared dead is beating again: recovery rebuilt it.
            # Resume monitoring so a *re*-kill of the fresh incarnation
            # (a cascade landing mid-recovery) is detected, not ignored.
            self.dead_ranks.discard(rank)
            if tr.enabled:
                tr.emit("recovery", "rank_rejoined", rank=rank,
                        incarnation=incarnation)

    def _on_hb_check(self) -> None:
        rt = self.rt
        if self.halted:
            return  # job lost: let the timer chain end
        if all(m.finalized for m in rt.ranks):
            return  # computation over: let the timer chain end
        now = rt.sched.now
        cfg = rt.cfg
        timeout = cfg.heartbeat_timeout
        probes = cfg.heartbeat_probes
        grace = (cfg.heartbeat_probe_grace
                 if cfg.heartbeat_probe_grace is not None else timeout)
        tr = rt.sched.tracer
        dead = []
        for m in rt.ranks:
            if m.rank in self.dead_ranks or m.finalized:
                continue
            silent = now - self.last_heartbeat.get(m.rank, self._hb_started)
            if silent <= timeout:
                continue
            if probes <= 0:
                dead.append(m.rank)  # legacy: declare on first silence
                continue
            sus = self.suspects.get(m.rank)
            if sus is None:
                # suspicion window: probe before declaring — the silence
                # may be a delayed OOB message, not a death
                self.suspects[m.rank] = {
                    "since": now, "probes": 1, "deadline": now + grace,
                }
                self._send_probe(m.rank)
                if tr.enabled:
                    tr.emit("recovery", "rank_suspected", rank=m.rank,
                            silent=silent)
            elif now >= sus["deadline"]:
                if sus["probes"] < probes:
                    sus["probes"] += 1
                    sus["deadline"] = now + grace
                    self._send_probe(m.rank)
                    if tr.enabled:
                        tr.emit("recovery", "hb_probe_retransmit",
                                rank=m.rank, probe=sus["probes"])
                else:
                    dead.append(m.rank)
        self._arm_hb_check()
        if dead:
            for r in dead:
                self.suspects.pop(r, None)
            self._on_ranks_dead(dead)

    def _send_probe(self, rank: int) -> None:
        """Ask a suspected rank's checkpoint thread to re-beat now."""
        self.rt.oob.send(rank, ("hb_probe",))

    def _on_ranks_dead(self, dead: List[int]) -> None:
        if self.halted:
            return  # job already lost; nothing left to recover
        now = self.rt.sched.now
        self.dead_ranks.update(dead)
        for r in dead:
            self.suspects.pop(r, None)
        detection = {
            "ranks": list(dead),
            "detected_at": now,
            "phase": self.phase,
            "epoch": self.epoch,
            # stamps which incarnation the detection was made against, so
            # the recovery orchestrator can discard notifications that
            # raced with a completed teardown/rebuild
            "incarnation": self.rt.incarnation,
        }
        self.detections.append(detection)
        tr = self.rt.sched.tracer
        if tr.enabled:
            tr.emit(
                "recovery", "crash_detected", ranks=list(dead),
                phase=self.phase, epoch=self.epoch,
            )
        if self.phase in ("quiescing", "checkpointing"):
            # nothing of this epoch is durable yet: abort the cycle (the
            # surviving ranks are about to be torn down by recovery, so
            # no per-rank unwind is needed — only the requester must not
            # be left waiting forever)
            record = {
                "epoch": self.epoch,
                "aborted": True,
                "reason": "rank_crash",
                "crashed_ranks": list(dead),
                "requested_at": self.ckpt_started_at,
                "completed_at": now,
            }
            self.records.append(record)
            self.rt.store.discard_epoch(self.epoch)
            self._finish_cycle(record)
        elif self.phase == "post":
            # the epoch committed before the crash (every image is on
            # the burst buffer); only the resume fan-in was interrupted
            self.records[-1]["interrupted_by_crash"] = True
            self.records[-1].setdefault(
                "cycle_time", now - self.records[-1]["requested_at"]
            )
            self.records[-1].setdefault("restart_time", 0.0)
            self._finish_cycle(self.records[-1])
        if not self.recovery_armed:
            raise CheckpointError(
                f"ranks {dead} died (heartbeat timeout) and no recovery "
                "orchestrator is armed; run the session with a "
                "fault-tolerant configuration to survive crashes"
            )
        self.rt.oob.send(RECOVERY_ID, ("crash", list(dead), detection))

    def _on_rebuilt(self, ranks: List[int]) -> None:
        """Recovery rebuilt a fresh incarnation and is awaiting its
        replay.  Hand liveness monitoring back immediately — a cascade
        kill landing on the fresh ranks *during* the replay window must
        be detected and reported, not ignored as already-dead."""
        self.dead_ranks.clear()
        self.suspects.clear()
        now = self.rt.sched.now
        for m in self.rt.ranks:
            self.last_heartbeat[m.rank] = now

    def _on_recovered(self, ranks: List[int]) -> None:
        """Recovery finished: the job is whole again (new incarnation)."""
        self.dead_ranks.clear()
        self.suspects.clear()
        now = self.rt.sched.now
        for m in self.rt.ranks:
            self.last_heartbeat[m.rank] = now

    def _finish_cycle(self, record: dict) -> None:
        self.phase = "idle"
        self.failed_ranks = set()
        self._cycle_aborted = False
        self._phase_serial += 1  # invalidate outstanding retry alarms
        if self.requester is not None:
            self.rt.oob.send(self.requester, ("cycle_complete", dict(record)))
            self.requester = None

    # ------------------------------------------------------------------
    # protocol steps
    # ------------------------------------------------------------------
    def _on_ckpt_request(self, action: str, requester: int) -> None:
        if self.halted:
            # job lost: answer so an external requester does not wedge
            self.records.append(
                {"epoch": self.epoch + 1, "skipped": True,
                 "job_lost": True, "requested_at": self.rt.sched.now}
            )
            self.rt.oob.send(requester, ("cycle_complete", dict(self.records[-1])))
            return
        if self.dead_ranks:
            # a recovery is in flight (phased recovery spans virtual
            # time); starting a 2PC against ranks mid-rebuild would only
            # wedge it.  Defer: answer now, the requester retries later.
            self.records.append(
                {"epoch": self.epoch + 1, "deferred": True,
                 "reason": "recovery_in_progress",
                 "requested_at": self.rt.sched.now}
            )
            self.rt.oob.send(requester, ("cycle_complete", dict(self.records[-1])))
            return
        if self.phase != "idle":
            raise CheckpointError("checkpoint requested while one is in progress")
        if self.finalize_granted:
            # finalize is barrier-synchronized: once any rank was granted
            # finalize, every rank is already past its last MPI call
            self.records.append(
                {"epoch": self.epoch + 1, "skipped": True,
                 "requested_at": self.rt.sched.now}
            )
            self.rt.oob.send(requester, ("cycle_complete", dict(self.records[-1])))
            return
        finalized = [m.rank for m in self.rt.ranks if m.finalized]
        if len(finalized) == self.rt.nranks:
            # the computation already ended; skip gracefully
            self.records.append(
                {"epoch": self.epoch + 1, "skipped": True,
                 "requested_at": self.rt.sched.now}
            )
            self.rt.oob.send(requester, ("cycle_complete", dict(self.records[-1])))
            return
        if finalized:
            raise CheckpointError(
                f"ranks {finalized} already finalized while others run; "
                "finalize is synchronizing, so this indicates a bug"
            )
        self.phase = "quiescing"
        self.post_action = action
        self.requester = requester
        self.epoch += 1
        self.ckpt_started_at = self.rt.sched.now
        self.reports = {r: None for r in range(self.rt.nranks)}
        self.horizons = {}
        self.release_rounds = 0
        self._last_signature = None
        self._stalls = 0
        self.done_ranks = set()
        self.resumed_ranks = set()
        self.drain_reports = {}
        self.drain_rounds = 0
        self.failed_ranks = set()
        self._cycle_aborted = False
        self._last_directive = {}
        for mrank in self.rt.ranks:
            self._send_rank(mrank.rank, ("intent", self.epoch))
        self._arm_retry()

    def _on_state(self, rank: int, report: dict) -> None:
        if self.phase != "quiescing":
            # late transition reports during checkpointing are harmless
            return
        if report.get("epoch", self.epoch) != self.epoch:
            return  # stale report from before a crash recovery
        self.reports[rank] = report
        self._evaluate()

    # ------------------------------------------------------------------
    def _evaluate(self) -> None:
        reports = self.reports
        if any(r is None or r["kind"] == "running" for r in reports.values()):
            return  # someone is still executing (e.g. a straggler computing)

        in_lower = {
            rank: r for rank, r in reports.items() if r["kind"] == "in_lower"
        }
        flawed = self.rt.cfg.collective_mode is CollectiveMode.NO_BARRIER_FLAWED
        if flawed:
            if in_lower:
                return  # can't snapshot inside the lower half; just wait
            self._enter_phase2()  # skips equalization: the flaw
            return

        counts, members = self._aggregate(reports)
        unequal = self._unequal_gids(counts, members)

        if not in_lower and not unequal:
            self._enter_phase2()
            return

        # raise horizons past every instance someone is already inside
        for r in in_lower.values():
            gid, inst = r["gid"], r["instance"]
            self.horizons[gid] = max(self.horizons.get(gid, 0), inst + 1)
        # laggards of unequal communicators must reach the leaders
        for gid in unequal:
            k = max(counts[gid].values())
            self.horizons[gid] = max(self.horizons.get(gid, 0), k)

        self._release_round(reports, in_lower)

    def _aggregate(self, reports) -> Tuple[Dict[int, Dict[int, int]], Dict[int, tuple]]:
        counts: Dict[int, Dict[int, int]] = {}
        members: Dict[int, tuple] = {}
        for rank, r in reports.items():
            if r["kind"] == "in_lower":
                pass  # its last coll_counts still ride along in the report
            for gid, c in r["coll_counts"].items():
                counts.setdefault(gid, {})[rank] = c
            for gid, m in r["gid_members"].items():
                members[gid] = tuple(m)
        return counts, members

    def _unequal_gids(self, counts, members) -> List[int]:
        unequal = []
        for gid, per_rank in counts.items():
            member_ranks = members.get(gid)
            if member_ranks is None:
                continue  # freed everywhere; counts are final and equal
            vals = set()
            missing = False
            for m in member_ranks:
                if m in per_rank:
                    vals.add(per_rank[m])
                else:
                    missing = True  # member hasn't even created it yet
            if missing or len(vals) > 1:
                unequal.append(gid)
        return unequal

    def _release_round(self, reports, in_lower) -> None:
        parked = {
            rank: r for rank, r in reports.items() if r["kind"] in PARKED_KINDS
        }

        def gated(r) -> bool:
            """Parked at a collective instance the horizon does not yet
            cover — releasing it could not make progress."""
            return (
                r["kind"] == "at_collective"
                and r["instance"] >= self.horizons.get(r["gid"], 0)
            )

        def behind(r) -> bool:
            """Behind some horizon: its path to the open collective may
            pass through point-to-point or other wrapper operations."""
            return any(
                r["coll_counts"].get(gid, 0) < h
                for gid, h in self.horizons.items()
                if gid in r["coll_counts"] or gid in r["gid_members"]
            )

        def compute_release() -> Dict[int, ReleaseMode]:
            out: Dict[int, ReleaseMode] = {}
            for rank, r in parked.items():
                if (
                    r["kind"] == "at_collective"
                    and r["instance"] < self.horizons.get(r["gid"], 0)
                ):
                    out[rank] = ReleaseMode.FREE  # run through the instance
                elif behind(r) and not gated(r):
                    out[rank] = ReleaseMode.FREE
            return out

        release = compute_release()

        if not release and not in_lower:
            # Escalation 1: a laggard is wedged at another communicator's
            # horizon; that instance must be allowed through — "which MPI
            # processes must continue to execute in order to unblock
            # later collective communication calls" (Section III-K).
            bumped = False
            for _rank, r in parked.items():
                if r["kind"] == "at_collective" and behind(r) and gated(r):
                    gid, inst = r["gid"], r["instance"]
                    self.horizons[gid] = max(self.horizons.get(gid, 0), inst + 1)
                    bumped = True
            if bumped:
                release = compute_release()

        if not release and not in_lower:
            # Escalation 2: point-to-point/safe parks may hold data a
            # laggard needs; step them forward one operation
            release = {
                rank: ReleaseMode.STEP
                for rank, r in parked.items()
                if r["kind"] != "at_collective"
            }

        if not release and not in_lower:
            raise CheckpointError(
                "checkpoint equalization is wedged: all ranks parked, "
                f"counts unequal, nothing releasable; horizons={self.horizons}"
            )

        if release:
            # only a round that releases someone counts against the cap:
            # while ranks are inside the lower half, every other rank's
            # report lands here too and just waits for them to come out
            # (one such evaluation per rank leaving a world barrier)
            self.release_rounds += 1
            if self.release_rounds > self.rt.cfg.max_release_rounds:
                raise CheckpointError(
                    f"equalization did not converge after "
                    f"{self.rt.cfg.max_release_rounds} release rounds; "
                    f"horizons={self.horizons}"
                )
        for rank, mode in release.items():
            self.reports[rank] = None  # expect a fresh report
            self._send_rank(rank, ("release", dict(self.horizons), mode))
        self._arm_retry()

    # ------------------------------------------------------------------
    def _enter_phase2(self) -> None:
        self.phase = "checkpointing"
        self.quiesced_at = self.rt.sched.now
        for mrank in self.rt.ranks:
            self._send_rank(mrank.rank, ("checkpoint",))
        self._arm_retry()

    def _on_finalize_request(self, rank: int) -> None:
        if self.phase == "idle":
            self.finalize_granted.add(rank)
            self.rt.oob.send(rank, ("finalize_ok",))
        else:
            self.rt.oob.send(rank, ("finalize_retry",))

    def _on_drain_counts(self, rank: int, sent: int, received: int) -> None:
        """Original MANA drain: totals bounced off the coordinator."""
        if self.phase != "checkpointing":
            return  # stale report from an aborted epoch
        self.drain_reports[rank] = (sent, received)
        if len(self.drain_reports) < self.rt.nranks:
            return
        sent_bytes = sum(s[0] for s, _ in self.drain_reports.values())
        sent_msgs = sum(s[1] for s, _ in self.drain_reports.values())
        recv_bytes = sum(r[0] for _, r in self.drain_reports.values())
        recv_msgs = sum(r[1] for _, r in self.drain_reports.values())
        balanced = (sent_bytes, sent_msgs) == (recv_bytes, recv_msgs)
        self.drain_rounds += 1
        self.drain_reports = {}
        for mrank in self.rt.ranks:
            self.rt.oob.send(mrank.rank, ("drain_verdict", balanced))

    def _on_ckpt_done(self, rank: int, info: dict) -> None:
        if self.phase != "checkpointing":
            return  # duplicate re-ack after a retried COMMIT
        self.done_ranks.add(rank)
        self._maybe_finish_phase2()

    def _on_ckpt_failed(self, rank: int, info: dict) -> None:
        """A rank's burst-buffer write failed: its image for this epoch
        does not exist.  The epoch cannot commit — once every rank has
        reported one way or the other, abort."""
        if self.phase != "checkpointing":
            return
        self.failed_ranks.add(rank)
        self.done_ranks.add(rank)
        tr = self.rt.sched.tracer
        if tr.enabled:
            tr.emit(
                "recovery", "bb_write_failed", rank=rank,
                epoch=self.epoch, frac=info.get("frac"),
            )
        self._maybe_finish_phase2()

    def _maybe_finish_phase2(self) -> None:
        if len(self.done_ranks | self.dead_ranks) < self.rt.nranks:
            return
        if self.failed_ranks:
            self._abort_cycle()
            return
        record = {
            "epoch": self.epoch,
            "requested_at": self.ckpt_started_at,
            "quiesce_time": self.quiesced_at - self.ckpt_started_at,
            "checkpoint_time": self.rt.sched.now - self.ckpt_started_at,
            "completed_at": self.rt.sched.now,
            "release_rounds": self.release_rounds,
            "drain_rounds": self.drain_rounds,
            "image_bytes_total": sum(
                m.last_image.nbytes for m in self.rt.ranks
            ),
            "post_action": self.post_action,
        }
        self.records.append(record)
        # COMMIT POINT: every image reached its configured tiers.
        # Marking the epoch durable is one coordinator-side manifest
        # write (a single callback in virtual time), so there is no
        # window where some ranks consider the epoch durable and others
        # do not.  Sealing the manifest also garbage-collects epochs
        # superseded beyond the policy's retention.
        for m in self.rt.ranks:
            m.durable_image = m.last_image
        self.rt.store.commit_epoch(self.epoch, now=self.rt.sched.now)
        if self.post_action == "halt":
            # the job is being killed after the image write: no resumes
            record["cycle_time"] = self.rt.sched.now - record["requested_at"]
            record["restart_time"] = 0.0
            for mrank in self.rt.ranks:
                self._send_rank(mrank.rank, ("post_ckpt", "halt"))
            self._finish_cycle(record)
            return
        self.phase = "post"
        for mrank in self.rt.ranks:
            self._send_rank(mrank.rank, ("post_ckpt", self.post_action))
        self._arm_retry()

    def _abort_cycle(self) -> None:
        """2PC abort: some rank could not write its image.  Every rank
        rolls its ``last_image`` back to the last durable epoch — a
        half-written epoch must never be a restart candidate — and
        resumes as if the checkpoint had never been requested."""
        record = {
            "epoch": self.epoch,
            "aborted": True,
            "reason": "bb_write_failed",
            "failed_ranks": sorted(self.failed_ranks),
            "requested_at": self.ckpt_started_at,
            "quiesce_time": self.quiesced_at - self.ckpt_started_at,
            "completed_at": self.rt.sched.now,
            "release_rounds": self.release_rounds,
        }
        self.records.append(record)
        tr = self.rt.sched.tracer
        if tr.enabled:
            tr.emit(
                "recovery", "ckpt_aborted", epoch=self.epoch,
                failed_ranks=sorted(self.failed_ranks),
            )
        # the epoch never sealed: whatever tier copies the successful
        # ranks registered must not linger as restart bait
        self.rt.store.discard_epoch(self.epoch)
        self._cycle_aborted = True
        self.phase = "post"
        for mrank in self.rt.ranks:
            self._send_rank(mrank.rank, ("post_ckpt", "abort"))
        self._arm_retry()

    def _on_resumed(self, rank: int) -> None:
        if self.phase != "post":
            return  # duplicate after a retried post_ckpt directive
        self.resumed_ranks.add(rank)
        if len(self.resumed_ranks | self.dead_ranks) < self.rt.nranks:
            return
        record = self.records[-1]
        record["cycle_time"] = self.rt.sched.now - record["requested_at"]
        if self._cycle_aborted:
            record["restart_time"] = 0.0
        else:
            record["restart_time"] = (
                self.rt.sched.now - record["completed_at"]
                if self.post_action == "restart"
                else 0.0
            )
        self._finish_cycle(record)
