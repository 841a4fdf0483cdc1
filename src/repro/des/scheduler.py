"""The discrete-event scheduler and virtual clock.

The event loop is the hottest code in the reproduction — every MPI call
in every figure sweep decomposes into a handful of scheduler events — so
the kernel keeps two queues:

* a heap of ``(time, seq, item, arg)`` entries for events in the future,
  ordered by time then insertion sequence;
* a plain FIFO for events at the *current* instant (process resumes,
  ``dt == 0`` advances, same-time deliveries — the dominant case), which
  skips the heap entirely.

The split preserves the old single-heap order exactly: an event lands in
the FIFO only when its computed time is ``<= now``, so heap entries at
exactly ``now`` always predate (carry smaller sequence numbers than)
anything appended to the FIFO during the current instant.  The run loop
therefore drains same-time heap entries first, then the FIFO, then
advances time.

Events are stored without closure allocation: ``item`` is either a
:class:`Proc` (resume/wake delivery — which of the two is recorded on
the process itself) or a bare callable with an optional single argument.
:class:`ReferenceScheduler` keeps the original heap-of-lambdas
implementation; the fast-path equivalence suite runs both and asserts
bit-identical virtual times and trace streams.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from repro.errors import DeadlockError, SimulationError
from repro.des.process import Proc, ProcState
from repro.des.syscalls import Advance, Park, Syscall
from repro.util.trace import Tracer


class Scheduler:
    """Single-threaded deterministic event loop with virtual time.

    Events are ordered by time then insertion sequence, so simultaneous
    events run in a reproducible order.  All simulated activity —
    process resumes, network deliveries, coordinator timers — goes
    through :meth:`schedule` / :meth:`schedule_call` and friends.
    """

    def __init__(self, max_events: int = 500_000_000):
        self.now: float = 0.0
        #: future events: (time, seq, item, arg) — never holds t <= now
        self._queue: List[tuple] = []
        #: current-instant events: (item, arg)
        self._fifo: deque = deque()
        self._seq = itertools.count()
        self._pid = itertools.count()
        self.procs: List[Proc] = []
        self._events_run = 0
        self._max_events = max_events
        self._running = False
        #: event-count watchpoints (fault injection): sorted
        #: ``(event_count, fn)`` pairs; ``fn()`` runs immediately before
        #: the matching event is dispatched.  ``_watch_next`` caches the
        #: nearest count so the hot loop pays one int compare per event
        #: (and nothing at all semantically when no watch is armed).
        self._watches: List[tuple] = []
        self._watch_next = -1
        #: the trace-event spine: every layer above (network, MPI
        #: library, pipeline stages) emits through this tracer, stamped
        #: with the virtual clock.  Disabled (null sink) by default.
        self.tracer = Tracer(clock=lambda: self.now)

    # ------------------------------------------------------------------
    # event primitives
    # ------------------------------------------------------------------
    def schedule(self, dt: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at virtual time ``now + dt``."""
        if dt < 0:
            raise SimulationError(f"cannot schedule an event {dt}s in the past")
        t = self.now + dt
        if t <= self.now:
            self._fifo.append((fn, None))
        else:
            heapq.heappush(self._queue, (t, next(self._seq), fn, None))

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at absolute virtual time ``t`` (>= now).

        The absolute time is stored directly: round-tripping through a
        relative delay (``now + (t - now)``) can land one ulp off ``t``
        and would let float drift reorder same-time events.
        """
        if t <= self.now:
            self._fifo.append((fn, None))
        else:
            heapq.heappush(self._queue, (t, next(self._seq), fn, None))

    def schedule_call(self, dt: float, fn: Callable, arg: Any = None) -> None:
        """Like :meth:`schedule`, without the closure: runs ``fn(arg)``
        at ``now + dt`` (``fn()`` when ``arg`` is None)."""
        if dt < 0:
            raise SimulationError(f"cannot schedule an event {dt}s in the past")
        t = self.now + dt
        if t <= self.now:
            self._fifo.append((fn, arg))
        else:
            heapq.heappush(self._queue, (t, next(self._seq), fn, arg))

    def schedule_call_at(self, t: float, fn: Callable, arg: Any = None) -> None:
        """Like :meth:`schedule_at`, without the closure: runs
        ``fn(arg)`` at absolute time ``t`` (``fn()`` when ``arg`` is
        None)."""
        if t <= self.now:
            self._fifo.append((fn, arg))
        else:
            heapq.heappush(self._queue, (t, next(self._seq), fn, arg))

    # ------------------------------------------------------------------
    # event watchpoints (fault injection at an event index)
    # ------------------------------------------------------------------
    def add_event_watch(self, n: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` when the ``n``-th event (1-based, counted across
        the scheduler's lifetime) is about to be dispatched.

        The fault injector arms a ``FaultSpec(at_event=n)`` through this
        — the crash-anywhere chaos sweep's trigger — so a fault lands at
        an exact event index, deterministically, wherever that event
        falls: inside a checkpoint commit, a recovery window, or a
        REEXEC replay."""
        if n <= self._events_run:
            raise SimulationError(
                f"event watch at {n} is in the past "
                f"({self._events_run} events already run)"
            )
        self._watches.append((n, fn))
        self._watches.sort(key=lambda w: w[0])
        self._watch_next = self._watches[0][0]

    def _fire_watches(self, events: int) -> int:
        """Run every watch armed for ``events``; returns the next armed
        count (or -1, which no event counter ever equals again)."""
        while self._watches and self._watches[0][0] == events:
            _n, fn = self._watches.pop(0)
            fn()
        self._watch_next = self._watches[0][0] if self._watches else -1
        return self._watch_next

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str, daemon: bool = False) -> Proc:
        """Register a generator as a process and schedule its first step."""
        proc = Proc(name=name, gen=gen, daemon=daemon, pid=next(self._pid))
        self.procs.append(proc)
        proc.state = ProcState.RUNNABLE
        self._schedule_step(proc)
        if self.tracer.enabled:
            self.tracer.emit("scheduler", "spawn", proc=name, pid=proc.pid)
        return proc

    def _schedule_step(self, proc: Proc) -> None:
        """Queue a same-instant step event for ``proc`` (resume or wake
        delivery — :meth:`_step` reads which from the process)."""
        self._fifo.append((proc, None))

    def wake(self, proc: Proc, value: Any = None) -> None:
        """Unblock a parked process; ``value`` becomes its yield result.

        Waking is level-triggered and single-shot: waking a process that
        is not parked is an error (it indicates a lost-wakeup/double-wake
        bug in a protocol layer), except that waking an already-dead
        process is silently ignored so teardown races stay benign.
        """
        st = proc.state
        if st is not ProcState.PARKED:
            if st is ProcState.NEW or st is ProcState.RUNNABLE:
                raise SimulationError(
                    f"wake() on {proc.name} which is {st.value}, not parked"
                )
            return  # dead (DONE/FAILED/KILLED): teardown races stay benign
        if proc._wake_pending:
            raise SimulationError(f"double wake() on {proc.name}")
        proc._wake_pending = True
        proc._wake_value = value
        proc.state = ProcState.RUNNABLE
        self._schedule_step(proc)
        if self.tracer.enabled:
            self.tracer.emit("scheduler", "wake", proc=proc.name)

    def try_wake(self, proc: Proc, value: Any = None) -> bool:
        """Wake ``proc`` if it is parked and not already being woken.

        For wake sources that may race benignly (a request completion
        racing a checkpoint-intent nudge): returns False instead of
        raising when the process is not wakeable.
        """
        # PARKED implies alive, so the state test subsumes the liveness
        # check; the body below is wake() minus the re-validation
        if proc.state is not ProcState.PARKED or proc._wake_pending:
            return False
        proc._wake_pending = True
        proc._wake_value = value
        proc.state = ProcState.RUNNABLE
        self._schedule_step(proc)
        if self.tracer.enabled:
            self.tracer.emit("scheduler", "wake", proc=proc.name)
        return True

    def _step(self, proc: Proc) -> None:
        """Execute one queued step event: wake delivery if one is
        pending on the process, a plain resume otherwise.

        A process never has both kinds pending at once: a pending
        resume means RUNNABLE (so :meth:`wake` would raise), and a
        pending wake is consumed before the process can advance again.
        """
        if proc._wake_pending:
            if proc.state is not ProcState.RUNNABLE:
                return  # killed between wake() and delivery
            proc._wake_pending = False
            value, proc._wake_value = proc._wake_value, None
            self._resume(proc, value)
        else:
            self._resume(proc, None)

    def _deliver_wake(self, proc: Proc) -> None:
        if proc.state is not ProcState.RUNNABLE or not proc._wake_pending:
            return  # killed between wake() and delivery
        proc._wake_pending = False
        value, proc._wake_value = proc._wake_value, None
        self._resume(proc, value)

    def _resume(self, proc: Proc, send_value: Any) -> None:
        """Drive ``proc`` until it parks, advances time, or finishes."""
        if not proc.alive:
            return
        try:
            item = proc.gen.send(send_value)
        except StopIteration as stop:
            proc.state = ProcState.DONE
            proc.result = stop.value
            return
        except BaseException as exc:  # noqa: BLE001 - recorded then re-raised
            proc.state = ProcState.FAILED
            proc.error = exc
            raise
        self._dispatch(proc, item)

    def _dispatch(self, proc: Proc, item: Any) -> None:
        if isinstance(item, Advance):
            proc.state = ProcState.RUNNABLE
            t = self.now + item.dt
            if t <= self.now:
                self._fifo.append((proc, None))
            else:
                heapq.heappush(self._queue, (t, next(self._seq), proc, None))
        elif isinstance(item, Park):
            proc.state = ProcState.PARKED
            proc.park_reason = item.reason
            if self.tracer.enabled:
                self.tracer.emit(
                    "scheduler", "park", proc=proc.name, reason=item.reason
                )
        elif isinstance(item, Syscall):  # pragma: no cover - future syscalls
            raise SimulationError(f"unhandled syscall {item!r} from {proc.name}")
        else:
            raise SimulationError(
                f"{proc.name} yielded {item!r}; processes must yield Advance/Park "
                "(did a library coroutine forget 'yield from'?)"
            )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run events until completion, deadlock, or virtual time ``until``.

        Completion means every non-daemon process has finished.  If the
        event queue drains while a non-daemon process is still parked,
        a :class:`DeadlockError` is raised with the full park report.

        The loop hoists every per-event attribute lookup into locals and
        inlines the dominant event kinds (process resume/wake delivery,
        Advance/Park dispatch, single-argument callables); cold paths
        fall back to the shared methods above.
        """
        if self._running:
            raise SimulationError("scheduler is not reentrant")
        self._running = True
        queue = self._queue
        fifo = self._fifo
        fifo_append = fifo.append
        fifo_popleft = fifo.popleft
        pop = heapq.heappop
        push = heapq.heappush
        seq = self._seq
        tracer = self.tracer
        stop_t = float("inf") if until is None else until
        events = self._events_run
        max_events = self._max_events
        watch_next = self._watch_next
        RUNNABLE = ProcState.RUNNABLE
        DONE = ProcState.DONE
        FAILED = ProcState.FAILED
        PARKED = ProcState.PARKED
        now = self.now
        try:
            while True:
                if fifo:
                    # heap entries at exactly `now` predate (smaller
                    # seq) anything appended to the fifo this instant
                    if queue and queue[0][0] <= now:
                        _t, _s, item, arg = pop(queue)
                    else:
                        item, arg = fifo_popleft()
                else:
                    if not queue:
                        self._on_queue_empty()
                        return
                    t = queue[0][0]
                    if t > stop_t:
                        self.now = stop_t
                        return
                    _t, _s, item, arg = pop(queue)
                    if t < now:
                        raise SimulationError(
                            "event queue went backwards in time"
                        )
                    self.now = now = t
                events += 1
                if events > max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "likely a livelock in a polling loop"
                    )
                if events == watch_next:
                    self._events_run = events
                    watch_next = self._fire_watches(events)
                if item.__class__ is not Proc:
                    if arg is None:
                        item()
                    else:
                        item(arg)
                    continue
                # -- process step: wake delivery or resume, inlined ----
                proc = item
                if proc._wake_pending:
                    if proc.state is not RUNNABLE:
                        continue  # killed between wake() and delivery
                    proc._wake_pending = False
                    send_value = proc._wake_value
                    proc._wake_value = None
                else:
                    if proc.state is not RUNNABLE:
                        continue  # killed while its resume was queued
                    send_value = None
                try:
                    y = proc.gen.send(send_value)
                except StopIteration as stop_exc:
                    proc.state = DONE
                    proc.result = stop_exc.value
                    continue
                except BaseException as exc:  # noqa: BLE001
                    proc.state = FAILED
                    proc.error = exc
                    raise
                ycls = y.__class__
                if ycls is Advance:
                    t = now + y.dt
                    if t <= now:
                        fifo_append((proc, None))
                    else:
                        push(queue, (t, next(seq), proc, None))
                elif ycls is Park:
                    proc.state = PARKED
                    proc.park_reason = y.reason
                    if tracer.enabled:
                        tracer.emit(
                            "scheduler", "park",
                            proc=proc.name, reason=y.reason,
                        )
                else:
                    # subclasses of Advance/Park and error reporting
                    self._dispatch(proc, y)
        finally:
            self._events_run = events
            self._running = False

    def _on_queue_empty(self) -> None:
        parked = [
            (p.name, p.park_reason)
            for p in self.procs
            if p.state is ProcState.PARKED and not p.daemon
        ]
        if parked:
            lines = ["deadlock: event queue empty with parked processes:"]
            lines += [f"  - {name}: waiting on {reason}" for name, reason in parked]
            raise DeadlockError("\n".join(lines), parked)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def events_run(self) -> int:
        return self._events_run

    def unfinished(self) -> List[Proc]:
        """Non-daemon processes that have not completed.

        Killed processes are excluded: a kill is a deliberate teardown
        (fault injection, restart), not a process that failed to run to
        completion."""
        return [
            p
            for p in self.procs
            if not p.daemon
            and p.state not in (ProcState.DONE, ProcState.KILLED)
        ]

    def kill(self, proc: Proc, reason: str = "") -> bool:
        """Forcibly terminate one process (fault injection / teardown).

        Pending wakes and scheduled resumes for the process become
        no-ops.  Returns True if the process was alive."""
        if not proc.alive:
            return False
        proc.kill()
        if self.tracer.enabled:
            self.tracer.emit(
                "scheduler", "kill", proc=proc.name, reason=reason
            )
        return True

    def kill_all(self) -> None:
        """Forcibly terminate every process (restart teardown support)."""
        for p in self.procs:
            p.kill()


class ReferenceScheduler(Scheduler):
    """The original single-heap, heap-of-lambdas event loop.

    Every event — including same-instant resumes and wake deliveries —
    is a ``(time, seq, closure)`` heap entry, exactly as the kernel
    worked before the FIFO fast lane.  The fast-path equivalence suite
    (``tests/property/test_fastpath_golden.py``) runs whole sessions
    under both schedulers and asserts bit-identical virtual times and
    trace streams; keep this in sync with any *semantic* change to
    :class:`Scheduler`.
    """

    def schedule(self, dt: float, fn: Callable[[], None]) -> None:
        if dt < 0:
            raise SimulationError(f"cannot schedule an event {dt}s in the past")
        heapq.heappush(self._queue, (self.now + dt, next(self._seq), fn))

    def schedule_at(self, t: float, fn: Callable[[], None]) -> None:
        if t < self.now:
            t = self.now
        heapq.heappush(self._queue, (t, next(self._seq), fn))

    def schedule_call(self, dt: float, fn: Callable, arg: Any = None) -> None:
        self.schedule(dt, fn if arg is None else (lambda: fn(arg)))

    def schedule_call_at(self, t: float, fn: Callable, arg: Any = None) -> None:
        self.schedule_at(t, fn if arg is None else (lambda: fn(arg)))

    def _schedule_step(self, proc: Proc) -> None:
        if proc._wake_pending:
            self.schedule(0.0, lambda: self._deliver_wake(proc))
        else:
            self.schedule(0.0, lambda: self._resume(proc, None))

    def _dispatch(self, proc: Proc, item: Any) -> None:
        if isinstance(item, Advance):
            proc.state = ProcState.RUNNABLE
            self.schedule(item.dt, lambda: self._resume(proc, None))
        else:
            super()._dispatch(proc, item)

    def run(self, until: Optional[float] = None) -> None:
        if self._running:
            raise SimulationError("scheduler is not reentrant")
        self._running = True
        try:
            while True:
                if until is not None and self._queue and self._queue[0][0] > until:
                    self.now = until
                    return
                if not self._queue:
                    self._on_queue_empty()
                    return
                t, _seq, fn = heapq.heappop(self._queue)
                if t < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = t
                self._events_run += 1
                if self._events_run > self._max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "likely a livelock in a polling loop"
                    )
                if self._events_run == self._watch_next:
                    self._fire_watches(self._events_run)
                fn()
        finally:
            self._running = False
