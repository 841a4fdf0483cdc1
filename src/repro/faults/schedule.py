"""Declarative fault schedules.

A :class:`FaultSpec` names one fault; a :class:`FaultSchedule` is an
ordered collection of them plus a seeded stream (derived with
:func:`repro.util.rng.derive_seed`, so adding specs never perturbs other
random consumers) for generating randomized faults reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.util.rng import make_rng

#: everything an injector knows how to do
KINDS = (
    "kill_rank",      # crash one rank's processes
    "oob_drop",       # eat matching coordinator-channel messages
    "oob_delay",      # delay matching coordinator-channel messages
    "net_drop",       # lose matching fabric messages on the wire
    "net_delay",      # delay matching fabric messages
    "bb_write_fail",  # fail a rank's burst-buffer image write mid-2PC
    "tier_lost",      # destroy checkpoint copies on one storage tier
    "node_loss",      # a node dies: its ranks AND the copies it hosts
    "blob_corrupt",   # silently flip a byte in one stored image copy
    "manifest_torn",  # an epoch's manifest commit is a torn write
    "crash_during_recovery",  # kill a rank inside the recovery window
    "crash_storm",    # a cascade: several ranks die in quick succession
)

#: the recovery orchestrator's phases, in order (crash_during_recovery
#: targets one of these via ``FaultSpec.phase``)
RECOVERY_PHASES = ("select_epoch", "teardown", "rebuild", "replay", "resume")

#: kinds that happen once, at their trigger, and so must have one
TIMED_KINDS = ("kill_rank", "tier_lost", "node_loss", "blob_corrupt",
               "crash_storm")

#: the field each kind cannot do without
_REQUIRED = {"kill_rank": "rank", "bb_write_fail": "rank",
             "tier_lost": "tier", "node_loss": "node", "blob_corrupt": "rank",
             "manifest_torn": "epoch", "crash_during_recovery": "rank"}


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault.

    A spec fires at its trigger: virtual time ``at``, or ``at_event``,
    right before the scheduler dispatches its ``at_event``-th event
    (1-based, as :meth:`~repro.des.scheduler.Scheduler.add_event_watch`
    counts).  At most one of the two is given.  The kinds of
    :data:`TIMED_KINDS` happen at the trigger and need one; every other
    kind is a filter or hook that matches only once its trigger has
    fired, and from :meth:`FaultInjector.arm` on when it has none.

    The other fields are interpreted per ``kind``:

    * ``kill_rank``: ``rank`` dies.
    * ``oob_drop`` / ``oob_delay``: affect the next ``count`` OOB
      messages whose tuple kind equals ``match`` (e.g. ``"checkpoint"``
      for the 2PC COMMIT, ``"post_ckpt"``, ``"intent"``) and whose
      destination is ``dst`` (None = any); delays add ``delay`` seconds.
    * ``net_drop`` / ``net_delay``: affect the next ``count`` fabric
      messages filtered by ``src``/``dst`` world rank (None = any).
      Dropping *application* traffic makes the pt2pt drain fail loudly
      (DrainError) — use delays for app traffic in survivable scenarios.
    * ``bb_write_fail``: rank ``rank``'s image write fails after
      ``frac`` of the write time, during epoch ``epoch`` (None = the
      next write), ``count`` times.
    * ``tier_lost``: destroy the checkpoint copies on storage tier
      ``tier`` (``local`` / ``partner`` / ``bb`` / ``parity``), scoped
      to ``rank`` and/or ``epoch`` when given.
    * ``node_loss``: node ``node`` dies — its resident ranks' processes
      crash AND every checkpoint copy the node hosts (local copies,
      partner replicas for others, parity blocks) is destroyed.
      Burst-buffer copies survive.
    * ``blob_corrupt``: silently flip one byte in rank ``rank``'s stored
      copy (``tier``/``epoch`` narrow the target; defaults pick the
      newest copy on the first tier that has one).  Detected only by
      checksum verification on the read path.
    * ``manifest_torn``: epoch ``epoch``'s manifest write is torn at its
      commit point — the epoch's copies exist but are undiscoverable,
      so recovery must fall back past it.
    * ``crash_during_recovery``: kill rank ``rank`` the next time the
      recovery orchestrator enters phase ``phase`` (``select_epoch`` /
      ``teardown`` / ``rebuild`` / ``replay`` / ``resume``; default
      ``replay``), ``count`` times.  The kill lands on the freshly
      rebuilt incarnation, exercising the cascade path.
    * ``crash_storm``: kill ``count`` ranks spaced ``delay`` virtual
      seconds apart (rank ``rank`` first, at the trigger, then
      consecutive ranks modulo the world size) — failures compounding
      faster than single-fault recovery assumes.
    """

    kind: str
    at: Optional[float] = None
    at_event: Optional[int] = None
    rank: Optional[int] = None
    match: Optional[str] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    count: int = 1
    delay: float = 0.0
    epoch: Optional[int] = None
    frac: float = 0.5
    tier: Optional[str] = None
    node: Optional[int] = None
    phase: Optional[str] = None

    def __post_init__(self):
        kind = self.kind
        if kind not in KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; one of {KINDS}")
        if self.at is not None and self.at_event is not None:
            raise ValueError(f"{kind} takes 'at' or 'at_event', not both")
        if self.at_event is not None and self.at_event < 1:
            raise ValueError(f"{kind} 'at_event' must be >= 1 (1-based)")
        if kind in TIMED_KINDS and self.at is None and self.at_event is None:
            raise ValueError(f"{kind} needs 'at' or 'at_event'")
        need = _REQUIRED.get(kind)
        if need is not None and getattr(self, need) is None:
            raise ValueError(f"{kind} needs {need!r}")
        if (kind in ("oob_delay", "net_delay", "crash_storm")
                and self.delay <= 0):
            raise ValueError(f"{kind} needs a positive 'delay'")
        if kind == "bb_write_fail" and not 0.0 <= self.frac < 1.0:
            raise ValueError("bb_write_fail 'frac' must be in [0, 1)")
        if kind == "crash_during_recovery":
            phase = self.phase if self.phase is not None else "replay"
            if phase not in RECOVERY_PHASES:
                raise ValueError(
                    f"crash_during_recovery 'phase' must be one of "
                    f"{RECOVERY_PHASES}, not {phase!r}"
                )
        if self.count < 1:
            raise ValueError("'count' must be >= 1")


class FaultSchedule:
    """An ordered set of faults, buildable declaratively or randomly.

    The random helpers draw from a stream derived from ``seed`` and the
    current spec index, so a schedule built the same way from the same
    seed is identical — the determinism contract every scenario and the
    fault benchmark rely on.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.seed = seed
        self.specs: List[FaultSpec] = list(specs)

    # -- declarative builders (chainable) ------------------------------
    def add(self, spec: FaultSpec) -> "FaultSchedule":
        self.specs.append(spec)
        return self

    def kill_rank(self, rank: int, at: float) -> "FaultSchedule":
        return self.add(FaultSpec(kind="kill_rank", rank=rank, at=at))

    def drop_oob(self, match: str, dst: Optional[int] = None,
                 count: int = 1) -> "FaultSchedule":
        return self.add(FaultSpec(kind="oob_drop", match=match, dst=dst,
                                  count=count))

    def delay_oob(self, match: str, delay: float, dst: Optional[int] = None,
                  count: int = 1) -> "FaultSchedule":
        return self.add(FaultSpec(kind="oob_delay", match=match, dst=dst,
                                  delay=delay, count=count))

    def drop_net(self, src: Optional[int] = None, dst: Optional[int] = None,
                 count: int = 1) -> "FaultSchedule":
        return self.add(FaultSpec(kind="net_drop", src=src, dst=dst,
                                  count=count))

    def delay_net(self, delay: float, src: Optional[int] = None,
                  dst: Optional[int] = None, count: int = 1) -> "FaultSchedule":
        return self.add(FaultSpec(kind="net_delay", src=src, dst=dst,
                                  delay=delay, count=count))

    def fail_bb_write(self, rank: int, epoch: Optional[int] = None,
                      frac: float = 0.5, count: int = 1) -> "FaultSchedule":
        return self.add(FaultSpec(kind="bb_write_fail", rank=rank,
                                  epoch=epoch, frac=frac, count=count))

    def lose_tier(self, tier: str, at: float, rank: Optional[int] = None,
                  epoch: Optional[int] = None) -> "FaultSchedule":
        return self.add(FaultSpec(kind="tier_lost", tier=tier, at=at,
                                  rank=rank, epoch=epoch))

    def lose_node(self, node: int, at: float) -> "FaultSchedule":
        return self.add(FaultSpec(kind="node_loss", node=node, at=at))

    def corrupt_blob(self, rank: int, at: float, tier: Optional[str] = None,
                     epoch: Optional[int] = None) -> "FaultSchedule":
        return self.add(FaultSpec(kind="blob_corrupt", rank=rank, at=at,
                                  tier=tier, epoch=epoch))

    def tear_manifest(self, epoch: int) -> "FaultSchedule":
        return self.add(FaultSpec(kind="manifest_torn", epoch=epoch))

    def kill_during_recovery(self, rank: int, phase: str = "replay",
                             count: int = 1) -> "FaultSchedule":
        return self.add(FaultSpec(kind="crash_during_recovery", rank=rank,
                                  phase=phase, count=count))

    def crash_storm(self, at: float, count: int = 2, delay: float = 1e-3,
                    rank: int = 0) -> "FaultSchedule":
        return self.add(FaultSpec(kind="crash_storm", at=at, count=count,
                                  delay=delay, rank=rank))

    # -- seeded random builders ----------------------------------------
    def random_kill(self, nranks: int, t_min: float,
                    t_max: float) -> "FaultSchedule":
        """Kill one seeded-random rank at a seeded-random time."""
        rng = make_rng(self.seed, "faults", "kill", len(self.specs))
        rank = int(rng.integers(nranks))
        at = float(rng.uniform(t_min, t_max))
        return self.kill_rank(rank, at)

    def random_oob_delays(self, n: int, max_delay: float) -> "FaultSchedule":
        """Delay ``n`` seeded-random 2PC directives by seeded amounts."""
        rng = make_rng(self.seed, "faults", "oob", len(self.specs))
        kinds = ("intent", "release", "checkpoint", "post_ckpt")
        for _ in range(n):
            match = kinds[int(rng.integers(len(kinds)))]
            delay = float(rng.uniform(max_delay * 0.1, max_delay))
            self.delay_oob(match, delay)
        return self

    # ------------------------------------------------------------------
    def by_kind(self, *kinds: str) -> List[FaultSpec]:
        return [s for s in self.specs if s.kind in kinds]

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultSchedule seed={self.seed} specs={len(self.specs)}>"
