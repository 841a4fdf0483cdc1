"""The interconnect: injection, in-flight tracking, ordered delivery."""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import SimulationError
from repro.des.scheduler import Scheduler
from repro.hosts.machine import MachineSpec
from repro.simnet.message import Message

DeliveryFn = Callable[[Message], None]

#: a fault filter inspects a message at injection and returns None (let
#: it through), ``("drop",)`` (it never crosses the fabric) or
#: ``("delay", seconds)`` (extra transit time, e.g. a congested link)
FaultFilter = Callable[[Message], Optional[tuple]]

_by_msg_id = attrgetter("msg_id")


#: a channel's key is ``src << PAIR_SHIFT | dst`` (world ranks fit)
PAIR_SHIFT = 32


class NetworkStats:
    """Cumulative traffic counters (used by benches and Figure 4).

    Per-pair totals are kept alongside the global ones so that MANA's
    per-pair drain counters can be audited against what actually crossed
    the fabric: for every (src, dst), ``pair_bytes`` must equal the
    sender-side drain counter at a quiesced checkpoint.  A message is
    recorded exactly once, at injection — :meth:`record` refuses
    double-recording (the accounting-drift bug class where a retried
    injection inflates one side of the pair ledger).

    The totals live in one *channel record* per pair that ever carried
    a message, ``channels[src << PAIR_SHIFT | dst] = [last_arrival,
    messages, bytes]``; the fabric keeps its per-pair FIFO clamp in the
    first field.  ``pair_messages``/``pair_bytes`` are dicts keyed
    ``(src, dst)``, built from the records when read.
    """

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.intranode_messages = 0
        self.internode_messages = 0
        self.channels: Dict[int, list] = {}
        self._recorded_high = 0  # highest msg_id seen (ids are monotone)

    def record(self, msg: Message, intranode: bool) -> list:
        """Count ``msg``; returns its pair's channel record."""
        msg_id = msg.msg_id
        if msg_id <= self._recorded_high:
            raise SimulationError(
                f"{msg!r} recorded twice: per-pair accounting would drift"
            )
        self._recorded_high = msg_id
        nbytes = msg.nbytes
        self.messages += 1
        self.bytes += nbytes
        key = msg.src << PAIR_SHIFT | msg.dst
        try:
            chan = self.channels[key]
        except KeyError:
            chan = self.channels[key] = [-1.0, 0, 0]
        chan[1] += 1
        chan[2] += nbytes
        if intranode:
            self.intranode_messages += 1
        else:
            self.internode_messages += 1
        return chan

    @property
    def pair_messages(self) -> Dict[Tuple[int, int], int]:
        return {divmod(k, 1 << PAIR_SHIFT): c[1] for k, c in self.channels.items()}

    @property
    def pair_bytes(self) -> Dict[Tuple[int, int], int]:
        return {divmod(k, 1 << PAIR_SHIFT): c[2] for k, c in self.channels.items()}


class Network:
    """Point-to-point fabric with per-pair FIFO order and in-flight state.

    Delivery time for a message of ``n`` bytes between ranks on different
    nodes is ``latency + n / bandwidth``; same-node pairs use the faster
    intranode constants.  MPI's non-overtaking rule is enforced by
    clamping each arrival to be no earlier than the previous arrival on
    the same (src, dst) pair, read from the pair's channel record
    (:class:`NetworkStats`).  A message naming a rank outside
    ``[0, nranks)`` is a typed error, never another pair's traffic.

    A message is *in flight* from :meth:`inject` until the destination
    endpoint's delivery callback runs.  The in-flight index holds one
    FIFO per (src, dst) pair that has a message in flight, grouped by
    destination, and drops the FIFO when it empties — so the index is
    sized by the traffic in flight, never by the pairs that ever talked.

    The introspection accessors (:meth:`in_flight_count`,
    :meth:`in_flight_bytes`, :meth:`pending_messages`,
    :meth:`app_in_flight`) read that index.  MANA's *algorithms* never
    move a byte with them (the drain uses only MPI calls, as in the
    paper), but its invariant checks do call them as simulation-side
    oracles the real MANA does not have: the post-drain quiesce check on
    every rank in every round, the restart teardown check, and the
    deadlock analyser.  Their costs are stated with the accessors.
    """

    def __init__(self, sched: Scheduler, machine: MachineSpec, nranks: int):
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        self._sched = sched
        self._machine = machine
        self.nranks = nranks
        # hot-path hoists: node lookup table and link constants (the
        # machine spec is immutable for the life of the network)
        self._node = [machine.node_of(r) for r in range(nranks)]
        self._intra_lat = machine.intranode_latency
        self._intra_bw = machine.intranode_bandwidth
        self._net_lat = machine.net_latency
        self._net_bw = machine.net_bandwidth
        self._tracer = sched.tracer
        self._endpoints: List[Optional[DeliveryFn]] = [None] * nranks
        #: in-flight index: ``_in_flight[dst][src]`` is the FIFO of
        #: messages src has in flight to dst; a FIFO exists only while
        #: it is non-empty
        self._in_flight: List[Dict[int, List[Message]]] = [
            {} for _ in range(nranks)
        ]
        self._in_flight_total = 0
        #: high-water mark of simultaneously in-flight messages over the
        #: life of the fabric (never decreases; the drain's quiesce trace
        #: event reports it)
        self.in_flight_peak = 0
        self.stats = NetworkStats()
        self._sealed = False
        self._purged: set = set()
        #: messages eaten by an armed fault filter (never delivered)
        self.dropped_messages = 0
        self._fault_filter: Optional[FaultFilter] = None

    # ------------------------------------------------------------------
    def set_fault_filter(self, fn: Optional[FaultFilter]) -> None:
        """Arm (or disarm with None) a fault filter consulted at every
        injection.  The network never knows *why* a fault happens — the
        policy lives entirely in the caller (``repro.faults``), keeping
        this layer free of any upward dependency."""
        self._fault_filter = fn

    # ------------------------------------------------------------------
    def attach_endpoint(self, world_rank: int, deliver: DeliveryFn) -> None:
        """Register the delivery callback for a rank (the MPI engine)."""
        if not 0 <= world_rank < self.nranks:
            raise SimulationError(f"rank {world_rank} out of range")
        if self._endpoints[world_rank] is not None:
            raise SimulationError(f"endpoint for rank {world_rank} already attached")
        self._endpoints[world_rank] = deliver

    def seal(self) -> None:
        """Refuse all further injections (restart teardown guard)."""
        self._sealed = True

    # ------------------------------------------------------------------
    def transit_time(self, src: int, dst: int, nbytes: int) -> float:
        if self._node[src] == self._node[dst]:
            return self._intra_lat + nbytes / self._intra_bw
        return self._net_lat + nbytes / self._net_bw

    def inject(self, msg: Message) -> None:
        """Put a message into the fabric; delivery is scheduled, ordered."""
        if self._sealed:
            raise SimulationError("inject() on a sealed (torn down) network")
        src = msg.src
        dst = msg.dst
        n = self.nranks
        if not (0 <= src < n and 0 <= dst < n):
            raise SimulationError(f"{msg!r} names a rank outside [0, {n})")
        if self._endpoints[dst] is None:
            raise SimulationError(f"no endpoint attached for rank {dst}")
        sched = self._sched
        now = sched.now
        msg.injected_at = now
        extra_delay = 0.0
        if self._fault_filter is not None:
            action = self._fault_filter(msg)
            if action is not None:
                if action[0] == "drop":
                    # lost on the wire: never recorded, never in flight
                    self.dropped_messages += 1
                    tr = self._tracer
                    if tr.enabled:
                        tr.emit(
                            "network", "fault_drop", rank=src,
                            dst=dst, msg_id=msg.msg_id,
                            ctx=msg.context_id, nbytes=msg.nbytes,
                        )
                    return
                if action[0] == "delay":
                    extra_delay = float(action[1])
                    tr = self._tracer
                    if tr.enabled:
                        tr.emit(
                            "network", "fault_delay", rank=src,
                            dst=dst, msg_id=msg.msg_id,
                            delay=extra_delay,
                        )
                else:
                    raise SimulationError(
                        f"unknown fault-filter action {action!r}"
                    )
        nbytes = msg.nbytes
        node = self._node
        intranode = node[src] == node[dst]
        if intranode:
            transit = self._intra_lat + nbytes / self._intra_bw
        else:
            transit = self._net_lat + nbytes / self._net_bw
        arrival = now + transit + extra_delay
        chan = self.stats.record(msg, intranode)
        if arrival <= chan[0]:
            arrival = chan[0] + 1e-12  # preserve per-pair FIFO with distinct times
        chan[0] = arrival
        queues = self._in_flight[dst]
        queue = queues.get(src)
        if queue is None:
            queues[src] = [msg]
        else:
            queue.append(msg)
        total = self._in_flight_total + 1
        self._in_flight_total = total
        if total > self.in_flight_peak:
            self.in_flight_peak = total
        sched.schedule_call_at(arrival, self._deliver, msg)
        tr = self._tracer
        if tr.enabled:
            tr.emit(
                "network", "inject", rank=src, dst=dst,
                msg_id=msg.msg_id, ctx=msg.context_id, tag=msg.tag,
                nbytes=nbytes, in_flight=total,
            )

    def _deliver(self, msg: Message) -> None:
        if self._purged and msg.msg_id in self._purged:
            self._purged.discard(msg.msg_id)
            return
        dst = msg.dst
        src = msg.src
        queues = self._in_flight[dst]
        queue = queues.get(src)
        if queue is None or queue[0] is not msg:
            raise SimulationError(
                f"FIFO violation delivering {msg!r}; head is "
                f"{queue[0]!r}" if queue else f"lost message {msg!r}"
            )
        if len(queue) == 1:
            del queues[src]
        else:
            del queue[0]
        total = self._in_flight_total - 1
        self._in_flight_total = total
        tr = self._tracer
        if tr.enabled:
            tr.emit(
                "network", "deliver", rank=dst, src=src,
                msg_id=msg.msg_id, ctx=msg.context_id, tag=msg.tag,
                nbytes=msg.nbytes, in_flight=total,
            )
        endpoint = self._endpoints[dst]
        assert endpoint is not None
        endpoint(msg)

    # ------------------------------------------------------------------
    # in-flight introspection: read-only oracles over the in-flight
    # index.  Callers: tests, and MANA's invariant checks (drain quiesce,
    # restart teardown, deadlock analysis) — never MANA's algorithms.
    # A query for one destination costs O(messages in flight to it); a
    # whole-fabric query costs O(nranks + messages in flight), and O(1)
    # when nothing is in flight.
    # ------------------------------------------------------------------
    def _iter_in_flight(
        self, src: Optional[int] = None, dst: Optional[int] = None
    ) -> Iterator[Message]:
        if not self._in_flight_total:
            return
        rows = self._in_flight if dst is None else (self._in_flight[dst],)
        for queues in rows:
            if src is None:
                for queue in queues.values():
                    yield from queue
            else:
                yield from queues.get(src, ())

    def in_flight_count(self) -> int:
        """Messages in flight, O(1)."""
        return self._in_flight_total

    def in_flight_bytes(
        self, src: Optional[int] = None, dst: Optional[int] = None
    ) -> int:
        """Payload bytes in flight, optionally from one source and/or to
        one destination; O(messages in flight to ``dst``)."""
        return sum(m.nbytes for m in self._iter_in_flight(src, dst))

    def pending_messages(self) -> List[Message]:
        """Every in-flight message, in msg-id (injection) order;
        O(nranks + n log n) for n messages in flight."""
        return sorted(self._iter_in_flight(), key=_by_msg_id)

    def app_in_flight(self, dst: Optional[int] = None) -> List[Message]:
        """In-flight messages on *application* communicator contexts
        (even context ids; odd ids are collective-internal traffic that
        the drain never sees, per the paper's Section III-B scope), in
        msg-id order.  Optionally filtered to one destination rank, which
        costs O(messages in flight to it).  Every in-flight oracle (drain
        quiesce, restart teardown, deadlock analysis) asks this method
        rather than re-filtering :meth:`pending_messages`."""
        return sorted(
            (m for m in self._iter_in_flight(dst=dst)
             if m.context_id % 2 == 0),
            key=_by_msg_id,
        )

    # ------------------------------------------------------------------
    # restart support: the fabric persists across a lower-half teardown;
    # only the dead library's state is dropped
    # ------------------------------------------------------------------
    def purge_in_flight(self) -> int:
        """Drop every in-flight message (closing the old lower half's
        connections).  Returns the number of messages dropped.  After a
        correct MANA drain only collective-internal messages can remain,
        and those are regenerated by replay — the restart engine asserts
        exactly that before calling this."""
        n = self._in_flight_total
        self._purged.update(m.msg_id for m in self._iter_in_flight())
        for queues in self._in_flight:
            queues.clear()
        self._in_flight_total = 0
        return n

    def reset_endpoints(self) -> None:
        """Detach every endpoint so a fresh library can re-attach."""
        self._endpoints = [None] * self.nranks

    def assert_empty(self) -> None:
        """Raise if any message is still in flight (post-drain invariant)."""
        if self._in_flight_total:
            pend = ", ".join(repr(m) for m in self.pending_messages()[:8])
            raise SimulationError(
                f"network not empty: {self._in_flight_total} in flight ({pend} ...)"
            )
