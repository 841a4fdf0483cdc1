"""The structured trace-event spine.

Every layer of the reproduction — the DES kernel, the fabric, the lower
half, and the MANA interposition pipeline — reports what it does as
:class:`TraceEvent` records through one :class:`Tracer`, instead of each
layer growing its own ad-hoc counters.  Benches, the deadlock detector,
and debugging sessions all consume the same stream.

Events carry the *virtual* timestamp (the DES clock), the world rank
they concern (when one is identifiable), the MPI call in progress, and
the pipeline stage that emitted them, so a trace of a checkpointed run
reads as a layered story: wrapper call → gate check-in → vtable lookup →
costed lower-half descent → drain accounting.

Sinks are pluggable:

* :class:`NullSink` — the default; tracing is off and every emission
  site reduces to a single attribute test (``tracer.enabled``).
* :class:`RingBufferSink` — last-N events in memory, for tests and the
  deadlock detector's post-mortem context.
* :class:`JsonlSink` — one JSON object per line, for offline replay of
  a run (``python -m json.tool`` friendly).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Dict, List, Optional

#: canonical stage names, in layer order (top of the stack first)
STAGES = (
    "semantic_lowering",    # wrapper call shapes (Send→Isend+test, ...)
    "two_phase_gate",       # checkpoint prologue / horizon check-ins
    "virtualization",       # virtual→real ID translation
    "lower_half_costing",   # FS-register + per-call overhead charging
    "drain_accounting",     # per-pair byte/message bookkeeping
    "checkpoint",           # per-rank drain / snapshot / image write
    "storage",              # tiered image placement / verify / rebuild
    "restart",              # lower-half rebuild and rebinding
    "mpi_library",          # the lower half itself
    "network",              # fabric injections and deliveries
    "oob",                  # coordinator-channel faults
    "scheduler",            # DES kernel: park/wake/kill
    "deadlock",             # waits-for analysis passes
    "faults",               # injected failures (repro.faults)
    "recovery",             # crash detection and rollback-restart
)


class TraceEvent:
    """One typed event on the spine.

    A plain ``__slots__`` class: one is allocated per emission when
    tracing is armed, so construction cost matters.  Formatting is
    deferred entirely to :meth:`to_json` (sink time); the event itself
    only captures references.
    """

    __slots__ = ("seq", "t", "stage", "kind", "call", "rank", "detail")

    def __init__(
        self,
        seq: int,                      # global emission order (monotone)
        t: float,                      # virtual timestamp (DES clock)
        stage: str,                    # one of STAGES
        kind: str,                     # event type within the stage
        call: Optional[str] = None,    # MPI call in progress, if any
        rank: Optional[int] = None,    # world rank concerned, if any
        detail: Optional[Dict[str, Any]] = None,
    ):
        self.seq = seq
        self.t = t
        self.stage = stage
        self.kind = kind
        self.call = call
        self.rank = rank
        self.detail = {} if detail is None else detail

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceEvent(seq={self.seq}, t={self.t!r}, stage={self.stage!r}, "
            f"kind={self.kind!r}, call={self.call!r}, rank={self.rank!r}, "
            f"detail={self.detail!r})"
        )

    def to_json(self) -> str:
        rec = {
            "seq": self.seq,
            "t": self.t,
            "stage": self.stage,
            "kind": self.kind,
        }
        if self.call is not None:
            rec["call"] = self.call
        if self.rank is not None:
            rec["rank"] = self.rank
        if self.detail:
            rec["detail"] = self.detail
        return json.dumps(rec, default=str, sort_keys=True)


class TraceSink:
    """Interface: where emitted events go."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        pass


class NullSink(TraceSink):
    """Discard everything (tracing disabled)."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass


class RingBufferSink(TraceSink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        self.events: deque = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)
        self.emitted += 1

    def by_stage(self, stage: str) -> List[TraceEvent]:
        return [e for e in self.events if e.stage == stage]


class JsonlSink(TraceSink):
    """Write one JSON line per event to a path or file-like object."""

    def __init__(self, path_or_file: Any):
        if hasattr(path_or_file, "write"):
            self._fh = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w")
            self._owns = True
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(event.to_json())
        self._fh.write("\n")
        self.emitted += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class Tracer:
    """The emission front-end one scheduler (and everything above it)
    shares.  ``enabled`` is False with a :class:`NullSink`, so hot paths
    guard with one attribute read and pay nothing when tracing is off."""

    __slots__ = ("_clock", "sink", "_seq", "enabled")

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        sink: Optional[TraceSink] = None,
    ):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.sink = sink if sink is not None else NullSink()
        self._seq = 0
        self.enabled = not isinstance(self.sink, NullSink)

    def set_sink(self, sink: Optional[TraceSink]) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.enabled = not isinstance(self.sink, NullSink)

    def emit(
        self,
        stage: str,
        kind: str,
        call: Optional[str] = None,
        rank: Optional[int] = None,
        **detail: Any,
    ) -> None:
        """Emit one event (no-op with the null sink)."""
        if not self.enabled:
            return
        seq = self._seq + 1
        self._seq = seq
        self.sink.emit(TraceEvent(seq, self._clock(), stage, kind,
                                  call, rank, detail))

    def close(self) -> None:
        self.sink.close()
