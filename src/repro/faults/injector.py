"""The fault injector: arms a schedule's faults on a wired session.

It is the one place faults are fired from — the named scenarios, the
campaign cells, the fault benches and the crash-anywhere chaos harness
all hand it a :class:`FaultSchedule`.  Each spec fires at its trigger: a
virtual time (``at``, a scheduled callback) or an event index
(``at_event``, a :meth:`Scheduler.add_event_watch`); a spec with neither
fires from :meth:`FaultInjector.arm` itself.

Each fault kind maps onto one mechanism hook:

* ``kill_rank`` / ``crash_storm`` / ``node_loss`` /
  ``crash_during_recovery`` — :meth:`Scheduler.kill` on the rank's main
  process, checkpoint thread, and heartbeat daemon (a real crash takes
  the whole OS process, sockets included — the rank falls silent, which
  is exactly what the coordinator's heartbeat monitor detects).
* ``tier_lost`` / ``node_loss`` / ``blob_corrupt`` / ``manifest_torn``
  — the checkpoint store's public fault surface.
* ``oob_*`` — an :class:`~repro.simnet.oob.OobChannel` fault filter.
* ``net_*`` — a :class:`~repro.simnet.network.Network` fault filter.
* ``bb_write_fail`` — the :attr:`ManaRuntime.bb_fault_hook` socket
  consulted by the per-rank checkpoint cycle.

Filters and hooks are installed at :meth:`FaultInjector.arm`, but a spec
matches only once it has fired.  Every triggered fault is appended to
``rt.fault_records`` and emitted on the trace spine (stage ``"faults"``),
so a run's injuries are auditable next to its recoveries.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Tuple

from repro.faults.schedule import FaultSchedule, FaultSpec


class FaultInjector:
    """Arms one :class:`FaultSchedule` on one ``ManaSession``.

    Call :meth:`arm` after constructing the session and before
    ``run()``.  Budgets (``spec.count``) are tracked here, so a schedule
    object can be reused across sessions.
    """

    def __init__(self, session, schedule: FaultSchedule):
        self.session = session
        self.rt = session.rt
        self.schedule = schedule
        #: matches left per filter/hook spec: 0 until the spec fires
        self._budget = [0] * len(schedule.specs)
        self._armed = False

    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        if self._armed:
            raise RuntimeError("a FaultInjector can only be armed once")
        self._armed = True
        sched = self.rt.sched
        for i, spec in enumerate(self.schedule.specs):
            fire = partial(self._fire, i, spec)
            if spec.at is not None:
                sched.schedule_at(spec.at, fire)
            elif spec.at_event is not None:
                sched.add_event_watch(spec.at_event, fire)
            else:
                fire()
        if self.schedule.by_kind("crash_during_recovery"):
            self.session.recovery_phase_hooks.append(self._recovery_hook)
        if self.schedule.by_kind("oob_drop", "oob_delay"):
            self.session.oob.set_fault_filter(self._oob_filter)
        if self.schedule.by_kind("net_drop", "net_delay"):
            self.session.network.set_fault_filter(self._net_filter)
        if self.schedule.by_kind("bb_write_fail"):
            self.rt.bb_fault_hook = self._bb_hook
        return self

    def _fire(self, i: int, spec: FaultSpec) -> None:
        """Spec ``i``'s trigger: a timed kind happens now; a filter or
        hook starts matching, ``spec.count`` times."""
        kind = spec.kind
        if kind == "kill_rank":
            killed = self._kill_procs(spec.rank,
                                      f"fault: kill_rank {spec.rank}")
            if killed is not None:
                self._record(i, spec, rank=spec.rank, killed=killed)
        elif kind == "crash_storm":
            self._storm_kill(i, spec, 0)
            for j in range(1, spec.count):
                self.rt.sched.schedule(j * spec.delay,
                                       partial(self._storm_kill, i, spec, j))
        # storage faults go through the store's public fault surface
        # (policy layer calling down into mechanism, never reverse)
        elif kind == "tier_lost":
            dropped = self.rt.store.drop_tier(
                spec.tier, rank=spec.rank, epoch=spec.epoch
            )
            self._record(i, spec, tier=spec.tier, rank=spec.rank,
                         epoch=spec.epoch, copies_dropped=dropped)
        elif kind == "node_loss":
            # the node's resident ranks crash exactly like kill_rank ...
            ranks: List[int] = []
            for mrank in self.rt.ranks:
                if (self.rt.machine.node_of(mrank.rank) == spec.node
                        and self._kill_procs(mrank.rank,
                                             f"fault: node_loss {spec.node}")
                        is not None):
                    ranks.append(mrank.rank)
            # ... and every checkpoint copy the node hosts dies with it
            dropped = self.rt.store.drop_node(spec.node)
            self._record(i, spec, node=spec.node, ranks=ranks,
                         copies_dropped=dropped)
        elif kind == "blob_corrupt":
            hit = self.rt.store.corrupt_copy(
                spec.rank, tier=spec.tier, epoch=spec.epoch
            )
            # the injection is recorded (auditable), but the *store*
            # stays silent: only read-path verification discovers it
            self._record(i, spec, rank=spec.rank, tier=spec.tier,
                         epoch=spec.epoch, corrupted=hit)
        elif kind == "manifest_torn":
            # the tear itself lands at the epoch's own commit point
            self.rt.store.arm_manifest_tear(spec.epoch)
            self._record(i, spec, epoch=spec.epoch, armed=True)
        else:  # a filter or hook: it matches from now on
            self._budget[i] = spec.count

    # ------------------------------------------------------------------
    def _record(self, i: int, spec: FaultSpec, **detail) -> None:
        rec = {"spec": i, "kind": spec.kind, "at": self.rt.sched.now}
        rec.update(detail)
        self.rt.fault_records.append(rec)
        tr = self.rt.sched.tracer
        if tr.enabled:
            tr.emit("faults", spec.kind, **{k: v for k, v in rec.items()
                                            if k not in ("kind",)})

    def _kill_procs(self, rank: int, reason: str) -> Optional[List[str]]:
        """Crash rank ``rank`` now: its main process, checkpoint thread
        and heartbeat daemon.  Returns the labels of those that were
        alive, or None if the rank had already finalized.  The rank is
        looked up at fire time: recovery may have replaced its ManaRank
        object since the schedule was armed."""
        mrank = self.rt.ranks[rank]
        if mrank.finalized:
            return None
        killed: List[str] = []
        for label, proc in (("main", mrank.proc),
                            ("ckpt_thread", mrank.ckpt_proc),
                            ("heartbeat", mrank.hb_proc)):
            if proc is not None and self.rt.sched.kill(proc, reason=reason):
                killed.append(label)
        return killed

    def _storm_kill(self, i: int, spec: FaultSpec, j: int) -> None:
        victim = ((spec.rank or 0) + j) % self.rt.nranks
        killed = self._kill_procs(victim, f"fault: crash_storm victim {j}")
        if killed is not None:
            self._record(i, spec, rank=victim, killed=killed, storm_index=j)

    def _recovery_hook(self, phase: str, ctx: dict) -> None:
        """Fired by the orchestrator at every phase transition: lands
        crash_during_recovery kills inside the recovery window itself."""
        for i, spec in enumerate(self.schedule.specs):
            if spec.kind != "crash_during_recovery":
                continue
            if self._budget[i] <= 0:
                continue
            want = spec.phase if spec.phase is not None else "replay"
            if phase != want:
                continue
            self._budget[i] -= 1
            killed = self._kill_procs(
                spec.rank, f"fault: crash during recovery ({phase})")
            if killed is not None:
                self._record(i, spec, rank=spec.rank, killed=killed,
                             phase=phase, attempt=ctx.get("attempt"),
                             incarnation=ctx.get("incarnation"))

    # ------------------------------------------------------------------
    def _oob_filter(self, dst: int, item) -> Optional[Tuple]:
        kind = item[0] if isinstance(item, tuple) and item else None
        for i, spec in enumerate(self.schedule.specs):
            if spec.kind not in ("oob_drop", "oob_delay"):
                continue
            if self._budget[i] <= 0:
                continue
            if spec.match is not None and kind != spec.match:
                continue
            if spec.dst is not None and dst != spec.dst:
                continue
            self._budget[i] -= 1
            if spec.kind == "oob_drop":
                self._record(i, spec, msg_kind=kind, dst=dst)
                return ("drop",)
            self._record(i, spec, msg_kind=kind, dst=dst, delay=spec.delay)
            return ("delay", spec.delay)
        return None

    def _net_filter(self, msg) -> Optional[Tuple]:
        for i, spec in enumerate(self.schedule.specs):
            if spec.kind not in ("net_drop", "net_delay"):
                continue
            if self._budget[i] <= 0:
                continue
            if spec.src is not None and msg.src != spec.src:
                continue
            if spec.dst is not None and msg.dst != spec.dst:
                continue
            self._budget[i] -= 1
            if spec.kind == "net_drop":
                self._record(i, spec, src=msg.src, dst=msg.dst,
                             nbytes=msg.nbytes)
                return ("drop",)
            self._record(i, spec, src=msg.src, dst=msg.dst, delay=spec.delay)
            return ("delay", spec.delay)
        return None

    def _bb_hook(self, mrank, image) -> Optional[float]:
        for i, spec in enumerate(self.schedule.specs):
            if spec.kind != "bb_write_fail":
                continue
            if self._budget[i] <= 0:
                continue
            if mrank.rank != spec.rank:
                continue
            if spec.epoch is not None and image.epoch != spec.epoch:
                continue
            self._budget[i] -= 1
            self._record(i, spec, rank=mrank.rank, epoch=image.epoch,
                         frac=spec.frac)
            return spec.frac
        return None
