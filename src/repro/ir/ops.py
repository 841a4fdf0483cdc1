"""The op model: slotted immutable records for replayed wrapper calls.

A replay log entry ``(opname, recorded_value)`` lowers to one *serving*
op — an op the interpreter answers a wrapper call with.  Two *control*
ops (compute, advance) carry virtual-time costs that the interpreter
folds into the next serving step; rewrite passes may insert them to
consolidate timing.  All ops are ``__slots__`` classes, immutable after
construction (rewrites build new ops via :meth:`IrOp.replace`), so a
pass can share unmodified ops between the input and output programs
without defensive copying.

Op taxonomy
===========

=====================  ========  =======================================
op                     serving   meaning
=====================  ========  =======================================
:class:`ConstOp`       yes       identity-materialized call: the
                                 recorded value *is* the result
:class:`CallOp`        yes       call whose materializer has side
                                 effects (request slots, memory
                                 registration, communicator metadata)
:class:`DeadOp`        yes       eliminated call: result ``None`` and
                                 never observed; only the opname is
                                 kept for divergence checking
:class:`CollectiveBatchOp`  yes  a fused run of same-communicator
                                 collectives, served per sub-call
:class:`ComputeOp`     no        pre-checkpoint compute (control)
:class:`AdvanceOp`     no        explicit virtual-time advance (control)
=====================  ========  =======================================
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

#: op kinds, mirroring the wrapper families the mana layer distinguishes
KIND_PT2PT = "pt2pt"
KIND_COLLECTIVE = "collective"
KIND_COMM = "comm"
KIND_MEM = "mem"
KIND_OTHER = "other"
KIND_CONTROL = "control"

#: per-class flattened __slots__ (rewrites call :meth:`IrOp.replace` on
#: every op of every rank's program — the MRO walk must not be per-call)
_SLOTS_CACHE: Dict[type, Tuple[str, ...]] = {}


class IrOp:
    """Base of all ops: immutable, slotted, rewritten by replacement.

    ``seq`` is the op's position in the *source* log (stable across
    rewrites — a batch keeps its first member's seq), ``rank`` the world
    rank whose log the op came from.
    """

    __slots__ = ("opname", "seq", "rank", "comm_gid", "result", "cost",
                 "live_cost", "yield_after", "kind")

    #: class-level flags (no per-instance storage)
    is_control = False
    is_batch = False
    #: the wrapper must run the op's materializer (side effects) rather
    #: than using the recorded value directly
    needs_materialize = False
    default_kind = KIND_OTHER

    def __init__(
        self,
        opname: str,
        seq: int,
        rank: int,
        comm_gid: Optional[int] = None,
        result: Any = None,
        cost: float = 0.0,
        live_cost: float = 0.0,
        yield_after: bool = True,
        kind: Optional[str] = None,
    ):
        object.__setattr__(self, "opname", opname)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "comm_gid", comm_gid)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "live_cost", live_cost)
        object.__setattr__(self, "yield_after", yield_after)
        object.__setattr__(self, "kind",
                           kind if kind is not None else self.default_kind)

    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: Any):
        raise AttributeError(
            f"{type(self).__name__} is immutable; use .replace({name}=...)"
        )

    def __delattr__(self, name: str):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def replace(self, **kwargs) -> "IrOp":
        """A copy with fields replaced (the rewrite primitive)."""
        fields = {s: getattr(self, s) for s in self._all_slots()}
        fields.update(kwargs)
        return type(self)(**fields)

    @classmethod
    def _all_slots(cls) -> Tuple[str, ...]:
        slots = _SLOTS_CACHE.get(cls)
        if slots is None:
            out = []
            for klass in reversed(cls.__mro__):
                out.extend(getattr(klass, "__slots__", ()))
            slots = _SLOTS_CACHE[cls] = tuple(out)
        return slots

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Serving calls this op answers (batches answer several)."""
        return 0 if self.is_control else 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"{type(self).__name__}({self.opname!r}, seq={self.seq}, "
                f"rank={self.rank}, gid={self.comm_gid}, "
                f"result={self.result!r})")


class ConstOp(IrOp):
    """Identity-materialized call: the recorded value is the result.

    Covers every ``RECORDED_OPS`` entry whose materializer is the
    identity (send/recv/probe/blocking collectives/...): replay serves
    the stored value with no side effects.
    """

    __slots__ = ()


class CallOp(IrOp):
    """A call whose materializer has side effects.

    Request-slot creation (isend/irecv/…), persistent-request nulling
    (wait/test families), upper-half memory registration, communicator
    metadata installation — the interpreter hands the recorded value
    back to the wrapper, which runs the op's materializer.
    """

    __slots__ = ()
    needs_materialize = True


class DeadOp(IrOp):
    """An eliminated call: identity-materialized, result ``None``.

    The application never observes anything from it (``None`` is
    returned without consulting the record), so only the opname is kept
    — replay still verifies the call sequence against it, preserving
    divergence detection.
    """

    __slots__ = ()


class CollectiveBatchOp(IrOp):
    """A fused run of consecutive same-communicator collectives.

    Serves its members one wrapper call at a time (``opnames[i]`` /
    ``results[i]``); a batch cost, if any, is charged once, on the first
    member — the members were consecutive in the source log, so nothing
    could have interleaved between them during replay anyway.
    """

    __slots__ = ("opnames", "results")

    is_batch = True
    default_kind = KIND_COLLECTIVE

    def __init__(
        self,
        opname: str = "collective.batch",
        seq: int = 0,
        rank: int = 0,
        comm_gid: Optional[int] = None,
        result: Any = None,
        cost: float = 0.0,
        live_cost: float = 0.0,
        yield_after: bool = True,
        kind: Optional[str] = None,
        opnames: Tuple[str, ...] = (),
        results: Tuple[Any, ...] = (),
    ):
        if len(opnames) != len(results):
            raise ValueError("batch opnames/results length mismatch")
        IrOp.__init__(self, opname, seq, rank, comm_gid, result,
                      cost, live_cost, yield_after, kind)
        object.__setattr__(self, "opnames", tuple(opnames))
        object.__setattr__(self, "results", tuple(results))

    @property
    def width(self) -> int:
        return len(self.opnames)


class ComputeOp(IrOp):
    """Pre-checkpoint compute: a control op carrying its live cost.

    Replay charges ``cost`` (0.0 by construction — re-execution of
    already-done compute is free); the live cost it *replaces* is kept
    for the costing report.
    """

    __slots__ = ()
    is_control = True
    default_kind = KIND_CONTROL

    def __init__(self, seq: int = 0, rank: int = 0, cost: float = 0.0,
                 live_cost: float = 0.0, **kwargs):
        kwargs.setdefault("opname", "compute")
        kwargs.setdefault("yield_after", False)
        IrOp.__init__(self, seq=seq, rank=rank, cost=cost,
                      live_cost=live_cost, **kwargs)


class AdvanceOp(IrOp):
    """An explicit virtual-time advance (control).

    Passes may insert one to consolidate timing that the ops around it
    no longer carry; the interpreter folds ``cost`` into the next
    serving step's advance.
    """

    __slots__ = ()
    is_control = True
    default_kind = KIND_CONTROL

    def __init__(self, seq: int = 0, rank: int = 0, cost: float = 0.0,
                 **kwargs):
        kwargs.setdefault("opname", "advance")
        kwargs.setdefault("yield_after", False)
        IrOp.__init__(self, seq=seq, rank=rank, cost=cost, **kwargs)


class IrProgram:
    """One rank's replay program: an op tuple plus provenance.

    Immutable like its ops — passes return new programs.  ``source_calls``
    is the serving-call count of the *original* log; rewrites must
    preserve it (checked by :meth:`validate`), because the replay-to-live
    transition keys off exactly that many wrapper calls being served.
    """

    __slots__ = ("rank", "ops", "source_calls", "num_calls", "_tape")

    def __init__(self, rank: int, ops: Tuple[IrOp, ...],
                 source_calls: Optional[int] = None):
        ops = tuple(ops)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "ops", ops)
        # one walk at construction; ops are immutable, so the count
        # can never go stale (validate() and the interpreter read it
        # per program, not per op)
        calls = 0
        for op in ops:
            if op.is_batch:
                calls += len(op.opnames)
            elif not op.is_control:
                calls += 1
        object.__setattr__(self, "num_calls", calls)
        if source_calls is None:
            source_calls = calls
        object.__setattr__(self, "source_calls", source_calls)
        # memo slot for the interpreter's flattened tape (derived purely
        # from the immutable ops; see ReplayCursor) — restart rounds
        # reusing one compiled program then build cursors in O(1)
        object.__setattr__(self, "_tape", None)

    def __setattr__(self, name: str, value: Any):
        raise AttributeError("IrProgram is immutable; build a new one")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[IrOp]:
        return iter(self.ops)

    def with_ops(self, ops) -> "IrProgram":
        return IrProgram(self.rank, tuple(ops), self.source_calls)

    def validate(self) -> None:
        """Rewrite invariant: the serving-call count is preserved."""
        calls = self.num_calls
        if calls != self.source_calls:
            raise ValueError(
                f"rank {self.rank}: rewritten program serves {calls} "
                f"calls but the source log had {self.source_calls}"
            )

    # ------------------------------------------------------------------
    def op_histogram(self) -> Dict[str, int]:
        """Serving-call counts per source opname (batches unfused)."""
        hist: Dict[str, int] = {}
        for op in self.ops:
            if op.is_batch:
                for name in op.opnames:
                    hist[name] = hist.get(name, 0) + 1
            elif not op.is_control:
                hist[op.opname] = hist.get(op.opname, 0) + 1
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"IrProgram(rank={self.rank}, ops={len(self.ops)}, "
                f"calls={self.num_calls})")
