"""The interposition pipeline: registry dispatch over the five stages.

One :class:`Pipeline` exists per rank.  A wrapper entry point is one
``pipe.rows[name](*args)``: the registry row says whether the call is
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

Dispatch is compiled: each registry row becomes one plain function —
the registry lookup, the ``count``/``checkin`` branches, the
call-statistics category and the ``getattr`` handler resolution all
resolved the first time the rank makes that call, not at wire-up (a
program uses a handful of the registry's rows, and recovery and restart
build fresh pipelines for every rank).  A row counts the call and hands
back *the handler's own generator*: the two stages that sit between
count and handler, the trace ``enter``/``exit`` pair and the gate's safe
point, are no-ops unless the tracer is armed or a checkpoint intent is
pending outside ``IN_CKPT`` (the exact no-op condition of
``maybe_checkin``), and the row tests exactly that, from state the
stages already observe.  Only then does it return the full chain
(:meth:`Pipeline._staged`: enter, ``gate.entry``, handler, exit).  So a
wrapper call costs one generator and direct stage work: an ``irecv`` is
1 generator object, a blocking ``send`` 5 (``send`` → ``isend_impl`` →
``lib.isend`` → ``_isend_raw``, then ``test``), a slot of a ``waitall``
2 (``wait`` → ``test``).  Each event of a run resumes a different rank's
frames, cold, so frames per call are what a wrapper costs the host
(docs/ARCHITECTURE.md has the numbers and what this replaced).

Stages bind the per-rank objects that live as long as the rank (its
tables, counters, statistics: ``restore`` refills them in place).  The
lower-half library and the rank's task are *not* bound: ``rt.lib`` is
replaced by every restart and ``mrank.task`` is assigned after the
pipeline is built, so handlers read both at use.
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


class _Rows(dict):
    """``name → compiled row``, each compiled on its first lookup."""

    def __init__(self, compile_row):
        super().__init__()
        self._compile_row = compile_row

    def __missing__(self, name: str):
        row = self[name] = self._compile_row(CALL_SPECS[name])
        return row


class Pipeline:
    """Per-rank stage stack + compiled declarative dispatch."""

    def __init__(self, api):
        mrank = api.mrank
        self.api = api
        self.mrank = mrank
        self.gate = TwoPhaseGate(mrank)
        self.virt = Virtualization(mrank, api.COMM_WORLD)
        self.cost = LowerHalfCosting(mrank)
        self.acct = DrainAccounting(mrank)
        self.lower = SemanticLowering(api, self.gate, self.virt,
                                      self.cost, self.acct)
        self._tracer = mrank.rt.sched.tracer
        #: the row table every ``ManaApi`` entry point calls through:
        #: ``rows[name](*positional args)`` returns the generator the
        #: caller ``yield from``s
        self.rows = _Rows(self._compile)

    def _compile(self, spec):
        """Compile one registry row into a plain function.

        Everything dispatch would branch on per invocation — the
        registry hit, the count/checkin flags, the statistics category,
        the handler ``getattr``, the descriptor presence — is resolved
        here, once.  The row counts and hands back the handler's own
        generator; only when a stage between the two has something to
        do — the tracer is armed, or a checkpoint intent makes the
        gate's safe point more than a no-op — does it return the full
        chain of :meth:`_staged` instead.
        """
        mrank = self.mrank
        tr = self._tracer
        name = spec.name
        staged = self._staged
        IN_CKPT = RankPhase.IN_CKPT

        st = mrank.stats
        calls = st.wrapper_calls
        if name in COLLECTIVE_OPS:
            def count():
                calls[name] = calls.get(name, 0) + 1
                st.collective_calls += 1
        elif name in PT2PT_OPS:
            def count():
                calls[name] = calls.get(name, 0) + 1
                st.pt2pt_calls += 1
        else:
            def count():
                calls[name] = calls.get(name, 0) + 1

        handler = getattr(self.lower, spec.handler)
        desc = spec.desc
        if spec.checkin:
            # pt2pt / completion calls: count, safe point, handler
            def row(*args):
                count()
                if tr.enabled or (mrank.intent
                                  and mrank.phase is not IN_CKPT):
                    return staged(name, True, handler, args)
                return handler(*args)
        elif desc is None:
            # wait family, probe, comm_free, memory
            def row(*args):
                count()
                if tr.enabled:
                    return staged(name, False, handler, args)
                return handler(*args)
        elif spec.count:
            # blocking collectives / comm mgmt: the gate runs inside the
            # skeleton, after communicator translation
            def row(*args):
                count()
                if tr.enabled:
                    return staged(name, False, handler, (desc, *args))
                return handler(desc, *args)
        else:
            # icolls: the skeleton is handed the row's counter and calls
            # it after its virtualization refusal
            def row(*args):
                if tr.enabled:
                    return staged(name, False, handler,
                                  (desc, count, *args))
                return handler(desc, count, *args)
        return row

    def _staged(self, name, checkin, handler, args):
        """One call through every stage: trace ``enter``, the gate's
        safe point (``checkin`` rows), the handler, trace ``exit``."""
        tr = self._tracer
        mrank = self.mrank
        if tr.enabled:
            tr.emit("semantic_lowering", "enter", call=name,
                    rank=mrank.rank)
        if (checkin and mrank.intent
                and mrank.phase is not RankPhase.IN_CKPT):
            yield from self.gate.entry(name)
        result = yield from handler(*args)
        if tr.enabled:
            tr.emit("semantic_lowering", "exit", call=name,
                    rank=mrank.rank)
        return result
