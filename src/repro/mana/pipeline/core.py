"""The interposition pipeline: registry dispatch over the five stages.

One :class:`Pipeline` exists per rank.  A wrapper entry point is one
``pipe.call(name, ...)``: the registry row says whether the call is
counted and whether it owes the gate a safe point, and names the
:class:`~repro.mana.pipeline.lowering.SemanticLowering` handler that
lowers it.  Family calls (collectives, icolls, communicator management)
additionally carry their descriptor into the shared skeleton.

Stage order for a non-collective call::

    count → TwoPhaseGate.entry → SemanticLowering
              └─ Virtualization (translate)
              └─ LowerHalfCosting (one Advance)
              └─ lower half (simmpi)
              └─ DrainAccounting (count bytes)

Blocking collectives run the gate *inside* the skeleton (the horizon
gate needs the translated communicator's gid first).

Dispatch is compiled: each registry row becomes one fused closure,
resolving the registry lookup, the ``count``/``checkin`` branches, the
call-statistics category and the ``getattr`` handler resolution once —
the first time the rank makes that call, not at wire-up: a program
uses a handful of the registry's rows, and recovery and restart build
fresh pipelines for every rank.  The hot path is a dict hit plus a
direct generator call either way.  The gate safe point is additionally
guarded inline by the exact no-op condition of ``maybe_checkin`` (no
intent, or already inside the checkpoint), so a fault-free call skips
the gate generator entirely.
"""

from __future__ import annotations

from repro.mana.api import COLLECTIVE_OPS, PT2PT_OPS
from repro.mana.runtime import RankPhase

from .accounting import DrainAccounting
from .costing import LowerHalfCosting
from .gate import TwoPhaseGate
from .lowering import SemanticLowering
from .registry import CALL_SPECS
from .virtualization import Virtualization


class _FusedRows(dict):
    """``name → fused closure``, each compiled on its first lookup."""

    def __init__(self, compile_row):
        super().__init__()
        self._compile_row = compile_row

    def __missing__(self, name: str):
        fused = self[name] = self._compile_row(CALL_SPECS[name])
        return fused


class Pipeline:
    """Per-rank stage stack + compiled declarative dispatch."""

    def __init__(self, api):
        mrank = api.mrank
        self.api = api
        self.gate = TwoPhaseGate(mrank)
        self.virt = Virtualization(mrank, api.COMM_WORLD)
        self.cost = LowerHalfCosting(mrank)
        self.acct = DrainAccounting(mrank)
        self.lower = SemanticLowering(api, self.gate, self.virt,
                                      self.cost, self.acct)
        self._tracer = mrank.rt.sched.tracer
        #: one fused stage chain per registry row the rank has called
        self._fused = _FusedRows(self._compile)

    def call(self, name: str, *args, **kwargs):
        """Lower one MPI entry point through the stages (returns the
        fused generator — callers ``yield from`` it)."""
        return self._fused[name](*args, **kwargs)

    def _compile(self, spec):
        """Fuse one registry row into a single generator function.

        Everything ``call`` used to branch on per invocation — the
        registry hit, the count/checkin flags, the statistics category
        (``ManaApi._count`` tests two name sets per call), the handler
        ``getattr``, the descriptor presence — is resolved here, once.
        The tracer object is hoisted too; only its ``enabled`` bit is
        read per call, so disabled tracing costs one attribute test.
        """
        api = self.api
        mrank = api.mrank
        rank = mrank.rank
        tr = self._tracer
        name = spec.name
        desc = spec.desc
        handler = getattr(self.lower, spec.handler)
        gate_entry = self.gate.entry
        IN_CKPT = RankPhase.IN_CKPT

        st = mrank.stats
        if name in COLLECTIVE_OPS:
            def count():
                st.count(name)
                st.collective_calls += 1
        elif name in PT2PT_OPS:
            def count():
                st.count(name)
                st.pt2pt_calls += 1
        else:
            def count():
                st.count(name)

        if spec.checkin:
            # pt2pt / completion calls: count, safe point, handler
            def fused(*args, **kwargs):
                count()
                if tr.enabled:
                    tr.emit("semantic_lowering", "enter", call=name,
                            rank=rank)
                if mrank.intent and mrank.phase is not IN_CKPT:
                    yield from gate_entry(name)
                result = yield from handler(*args, **kwargs)
                if tr.enabled:
                    tr.emit("semantic_lowering", "exit", call=name,
                            rank=rank)
                return result
        elif desc is not None and spec.count:
            # blocking collectives / comm mgmt: the gate runs inside the
            # skeleton, after communicator translation
            def fused(*args, **kwargs):
                count()
                if tr.enabled:
                    tr.emit("semantic_lowering", "enter", call=name,
                            rank=rank)
                result = yield from handler(desc, *args, **kwargs)
                if tr.enabled:
                    tr.emit("semantic_lowering", "exit", call=name,
                            rank=rank)
                return result
        elif desc is not None:
            # icolls: counted downstream, after the virtualization check
            def fused(*args, **kwargs):
                if tr.enabled:
                    tr.emit("semantic_lowering", "enter", call=name,
                            rank=rank)
                result = yield from handler(desc, *args, **kwargs)
                if tr.enabled:
                    tr.emit("semantic_lowering", "exit", call=name,
                            rank=rank)
                return result
        else:
            # wait family, probe, comm_free, memory
            def fused(*args, **kwargs):
                count()
                if tr.enabled:
                    tr.emit("semantic_lowering", "enter", call=name,
                            rank=rank)
                result = yield from handler(*args, **kwargs)
                if tr.enabled:
                    tr.emit("semantic_lowering", "exit", call=name,
                            rank=rank)
                return result
        return fused
