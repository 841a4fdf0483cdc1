"""MANA runtime state: per-rank upper-half plugin state plus the shared
process-group runtime.

A :class:`ManaRank` is the analog of the DMTCP/MANA plugin loaded into
one MPI process: the virtual-object tables, the per-pair byte counters,
the drain buffer, the non-blocking-collective log, the two-phase-commit
flags the coordinator inspects, and the "checkpoint thread" (a daemon
process handling coordinator messages even while the main thread is
blocked inside the lower half — exactly DMTCP's architecture).

The :class:`ManaRuntime` owns what is global to the computation: the
current lower-half incarnation, the coordinator, and the restart
rendezvous that tears down and replaces the lower half.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.des.mailbox import Mailbox
from repro.des.process import Proc
from repro.des.scheduler import Scheduler
from repro.des.syscalls import Advance, Park
from repro.errors import CheckpointError, RestartError
from repro.hosts.machine import MachineSpec
from repro.mana.binding import LowerHalfBinding
from repro.mana.buffers import DrainBuffer
from repro.mana.comms import VirtualCommManager
from repro.mana.config import ManaConfig
from repro.mana.counters import PairwiseCounters
from repro.mana.fortran import FortranConstantResolver, FortranLinkage
from repro.mana.icoll_log import IcollLog
from repro.mana.requests import VirtualRequestManager
from repro.simmpi.comm import RealComm
from repro.simmpi.group import Group
from repro.simmpi.library import MpiLibrary, RankTask
from repro.simnet.network import Network
from repro.simnet.oob import COORDINATOR_ID, OobChannel
from repro.storage import CheckpointStore


class RankPhase(enum.Enum):
    """What the coordinator's view of a rank can be."""

    RUNNING = "running"          # executing application code / wrappers
    IN_LOWER = "in_lower"        # blocked inside a lower-half collective
    PARKED = "parked"            # checked in, awaiting a directive
    IN_CKPT = "in_ckpt"          # executing drain/snapshot/restart
    DONE = "done"                # finalized


class ReleaseMode(enum.Enum):
    """How a released rank runs during checkpoint equalization."""

    FREE = "free"   # run until a horizon collective / blocked / finalize
    STEP = "step"   # run one wrapper operation, then check in again


@dataclass(slots=True)
class RankStats:
    """Per-rank telemetry."""

    wrapper_calls: Dict[str, int] = field(default_factory=dict)
    collective_calls: int = 0
    pt2pt_calls: int = 0
    overhead_time: float = 0.0       # modeled MANA software overhead
    lower_half_calls: int = 0
    checkins: int = 0

    def count(self, name: str) -> None:
        self.wrapper_calls[name] = self.wrapper_calls.get(name, 0) + 1


class ManaRank:
    """Upper-half MANA state for one MPI process."""

    def __init__(self, rt: "ManaRuntime", rank: int):
        self.rt = rt
        self.rank = rank
        binding = rt.binding

        # virtualization state (upper half: survives restart; only the
        # per-lookup *pricing* comes from the binding, and rebinds to a
        # fresh machine on a cross-machine restore)
        self.vcomms = VirtualCommManager(binding, rank)
        self.vreqs = VirtualRequestManager(binding)
        self.icoll_log = IcollLog()
        self.counters = PairwiseCounters(rt.nranks, rank)
        self.drain_buffer = DrainBuffer()
        #: blocking-collective completion count per communicator GID —
        #: what the coordinator equalizes (Section III-K)
        self.blocking_counts: Dict[int, int] = {}
        self.fortran = FortranConstantResolver(rt.fortran_linkage)

        # two-phase-commit state
        self.intent = False
        self.intent_epoch = 0
        self.phase = RankPhase.RUNNING
        self.in_lower: Optional[Tuple[int, int]] = None  # (gid, instance)
        self.horizons: Dict[int, int] = {}
        self.release_mode: Optional[ReleaseMode] = None
        self.awaiting_directive = False
        self.finalized = False
        #: virtual time when the application's work ended (the finalize
        #: barrier completed); coordinator deregistration happens after
        #: and is not part of the measured runtime
        self.app_finished_at = None
        #: main thread is parked idle inside a wait-poll loop; the
        #: checkpoint thread nudges it awake when an intent arrives
        self.idle_wait_parked = False
        #: what the main thread is currently blocked on, for the
        #: deadlock detector: ("request", entry) or ("requests", [entry])
        self.current_wait = None
        #: ops executed since last check-in (STEP release mode budget)
        self.step_budget = 0

        # wiring (filled by the session)
        self.proc: Optional[Proc] = None
        self.task: Optional[RankTask] = None
        self.ckpt_proc: Optional[Proc] = None
        #: heartbeat daemon (armed only when cfg.heartbeat_interval set)
        self.hb_proc: Optional[Proc] = None
        self.mailbox: Optional[Mailbox] = None
        self.program: Any = None
        self.api: Any = None

        self.stats = RankStats()
        #: most recent *successfully written* checkpoint image
        self.last_image: Any = None
        #: last image whose epoch the 2PC *committed* — every rank wrote
        #: theirs and the coordinator broadcast post_ckpt.  Only durable
        #: images are valid rollback targets; a half-written epoch never
        #: lands here.
        self.durable_image: Any = None
        #: ckpt_done payload, kept until the post-checkpoint directive is
        #: processed so a retried COMMIT can be re-acknowledged
        self.ckpt_done_info: Optional[dict] = None
        #: last state report sent, for retransmission on a duplicate
        #: intent (the coordinator retries when a report seems lost)
        self._last_report: Optional[tuple] = None

    # ------------------------------------------------------------------
    # checkpoint-thread <-> main-thread handoff
    # ------------------------------------------------------------------
    def park_for_directive(self, reason: str):
        """Main thread: park until the checkpoint thread hands us a
        coordinator directive.  Returns the directive."""
        self.phase = RankPhase.PARKED
        self.awaiting_directive = True
        directive = yield Park(reason)
        self.awaiting_directive = False
        return directive

    def deliver_directive(self, directive: Any) -> None:
        """Checkpoint thread: wake the parked main thread."""
        if not self.awaiting_directive or self.proc is None:
            raise CheckpointError(
                f"rank {self.rank}: directive {directive!r} arrived while the "
                "main thread was not awaiting one"
            )
        self.rt.sched.wake(self.proc, directive)

    # ------------------------------------------------------------------
    def report_state(self, kind: str, **extra: Any) -> None:
        """Send a state report to the coordinator (OOB)."""
        self._last_report = (kind, dict(extra))
        report = {
            "kind": kind,
            "epoch": self.intent_epoch,
            "coll_counts": dict(self.blocking_counts),
            "gid_members": self.vcomms.gid_members(),
        }
        report.update(extra)
        self.rt.oob.send(COORDINATOR_ID, ("state", self.rank, report))

    def resend_report(self) -> bool:
        """Retransmit the last state report (duplicate-intent handling:
        the coordinator suspects the original was lost)."""
        if self._last_report is None:
            return False
        kind, extra = self._last_report
        self.report_state(kind, **extra)
        return True

    # ------------------------------------------------------------------
    def world_group(self) -> Group:
        return Group(range(self.rt.nranks))


class ManaRuntime:
    """Global MANA state: lower-half incarnation, coordinator, restart."""

    def __init__(
        self,
        sched: Scheduler,
        network: Network,
        oob: OobChannel,
        machine: MachineSpec,
        cfg: ManaConfig,
        nranks: int,
    ):
        self.sched = sched
        self.network = network
        self.oob = oob
        self.machine = machine
        self.cfg = cfg
        self.nranks = nranks
        #: THE lower-half binding: every machine-derived cost the stack
        #: prices flows through this one object.  Constructed here — and
        #: only here — so a session resumed on a different machine
        #: re-derives costing, fsreg tier, and vtable pricing from the
        #: *target* MachineSpec instead of the checkpointed one.
        self.binding = LowerHalfBinding(cfg, machine)

        self.incarnation = 0
        self.fortran_linkage = FortranLinkage(self.incarnation)
        self.lib = MpiLibrary(sched, network, machine, incarnation=0)
        self.internal_comm = self._make_internal_comm()

        #: the tiered checkpoint store.  Deliberately *outside* the lower
        #: half: burst-buffer and partner copies survive crash_teardown
        #: (only what a real node loss destroys is removed, by the fault
        #: layer calling the store's drop hooks).
        self.store = CheckpointStore(
            machine, nranks, cfg.storage, tracer=sched.tracer
        )

        self.ranks: List[ManaRank] = [ManaRank(self, r) for r in range(nranks)]
        for mrank in self.ranks:
            mrank.vcomms.register_world(self.lib.comm_world)

        # restart rendezvous
        self._rendezvous_waiting: List[ManaRank] = []

        #: burst-buffer write fault hook: ``fn(mrank, image) -> None``
        #: (write succeeds) or a float in [0, 1) — the fraction of the
        #: write completed before the device failed.  Installed by
        #: ``repro.faults``; this layer only provides the socket.
        self.bb_fault_hook: Any = None

        # telemetry
        self.checkpoint_records: List[dict] = []
        self.restart_records: List[dict] = []
        #: REEXEC replay-to-live transitions, one per replayed rank
        #: (includes the compiled-replay pipeline summary when the
        #: ``replay_compile`` knob is on)
        self.reexec_records: List[dict] = []
        #: injected faults (appended by repro.faults.FaultInjector)
        self.fault_records: List[dict] = []
        #: automatic rollback-restart recoveries (RecoveryOrchestrator)
        self.recovery_records: List[dict] = []

    # ------------------------------------------------------------------
    def _make_internal_comm(self) -> RealComm:
        """MANA's private duplicate of COMM_WORLD for drain traffic."""
        return self.lib._get_or_create_comm(
            ("mana-internal", self.incarnation),
            Group(range(self.nranks)),
            f"MANA_INTERNAL_{self.incarnation}",
        )

    # ------------------------------------------------------------------
    # restart rendezvous: all main threads park; the last arrival swaps
    # the lower half underneath everyone, then wakes them
    # ------------------------------------------------------------------
    def restart_rendezvous(self, mrank: ManaRank):
        self._rendezvous_waiting.append(mrank)
        if len(self._rendezvous_waiting) < self.nranks:
            yield Park(f"restart rendezvous rank {mrank.rank}")
            return
        # last arrival: verify the drain invariant, then replace the
        # lower half
        waiters, self._rendezvous_waiting = self._rendezvous_waiting[:-1], []
        self._teardown_and_replace_lower_half()
        for other in waiters:
            self.sched.wake(other.proc)
        # the leader continues without parking
        return

    def _teardown_and_replace_lower_half(self) -> None:
        app_ctx_pending = self.network.app_in_flight()
        if app_ctx_pending:
            raise RestartError(
                f"drain invariant violated: {len(app_ctx_pending)} application "
                f"point-to-point messages still in flight at teardown "
                f"(first: {app_ctx_pending[0]!r})"
            )
        if self.lib.pending_app_unexpected():
            raise RestartError(
                "drain invariant violated: application messages left in "
                "lower-half unexpected queues at teardown"
            )
        helpers_killed, msgs_purged = self.lib.destroy()
        self.incarnation += 1
        # note: fortran_linkage is NOT recreated — the Fortran named
        # constants live in the upper-half stub library (the discovery
        # routine is linked into MANA itself, Section III-F), so their
        # addresses are stable across a lower-half replacement; only a
        # brand-new process (REEXEC) mints new ones
        self.lib = MpiLibrary(
            self.sched, self.network, self.machine, incarnation=self.incarnation
        )
        self.internal_comm = self._make_internal_comm()
        self.restart_records.append(
            {
                "incarnation": self.incarnation,
                "helpers_killed": helpers_killed,
                "collective_msgs_purged": msgs_purged,
                "at": self.sched.now,
            }
        )

    def crash_teardown(self) -> dict:
        """Replace the lower half after a *crash* (fault recovery).

        Unlike the checkpoint-time teardown, no drain invariant holds:
        the dead rank took its connections down mid-conversation, so
        every in-flight message — application traffic included — is
        simply lost with the old incarnation.  The recovery orchestrator
        re-executes all ranks from durable images, so nothing that was
        in flight is needed.  Fresh processes also mean fresh link-time
        addresses for the Fortran constants (Section III-F), unlike the
        in-place RECONNECT path."""
        helpers_killed, msgs_purged = self.lib.destroy()
        self.incarnation += 1
        self.fortran_linkage = FortranLinkage(self.incarnation)
        self.lib = MpiLibrary(
            self.sched, self.network, self.machine, incarnation=self.incarnation
        )
        self.internal_comm = self._make_internal_comm()
        self._rendezvous_waiting = []
        return {
            "incarnation": self.incarnation,
            "helpers_killed": helpers_killed,
            "msgs_purged": msgs_purged,
        }
