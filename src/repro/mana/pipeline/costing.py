"""LowerHalfCosting: the overhead-charging stage.

One wrapper invocation's modeled software cost — the DMTCP lock pair,
commit phases, lambda frames, virtual-request bookkeeping, the per-pair
counter update, the multi-call rank helper, and the FS-register context
switches of every lower-half round trip (Sections III-G/III-H/III-I) —
is computed here, from the knobs in ``fsreg.py``/``config.py``.  The
pipeline charges it as a single ``Advance`` per wrapper, which keeps the
event count manageable at scale.
"""

from __future__ import annotations

from repro.des.syscalls import Advance
from repro.mana.fsreg import lower_half_call_cost
from repro.mana.runtime import ManaRank


class LowerHalfCosting:
    """Per-rank costing stage."""

    def __init__(self, mrank: ManaRank):
        self.mrank = mrank
        self.binding = mrank.rt.binding
        self._tracer = mrank.rt.sched.tracer
        self._stats = mrank.stats
        #: (lower_calls, lookup_cost, vreq_ops, pt2pt) -> (cost,
        #: effective lower calls, shared immutable Advance): the cost
        #: model is pure in the binding, fixed for the life of the
        #: stage, so everything one charge needs is computed once per
        #: call shape (same float-op order as the open-coded form) and
        #: sits behind one probe
        self._memo: dict = {}

    def wrapper_advance(
        self,
        lower_calls: int = 1,
        lookup_cost: float = 0.0,
        vreq_ops: int = 0,
        pt2pt: bool = False,
    ) -> Advance:
        """Charge one wrapper invocation's modeled software cost (Fig. 1
        body) to the rank's overhead telemetry; returns the ``Advance``
        the caller must yield.

        Advance syscalls are immutable, and call shapes recur (a HASH
        table's lookup cost is one constant, a MAP table's one value per
        table size), so the charge is one memo hit: the cost, the
        effective lower-half call count and one shared ``Advance``."""
        key = (lower_calls, lookup_cost, vreq_ops, pt2pt)
        hit = self._memo.get(key)
        if hit is None:
            base, lower_calls = self._cost_and_calls(
                self.binding, lower_calls, vreq_ops, pt2pt
            )
            cost = base + lookup_cost
            hit = self._memo[key] = (cost, lower_calls, Advance(cost))
        cost, lower_calls, adv = hit
        st = self._stats
        st.overhead_time += cost
        st.lower_half_calls += lower_calls
        if self._tracer.enabled:
            self._tracer.emit(
                "lower_half_costing", "charge", rank=self.mrank.rank,
                cost=cost, lower_calls=lower_calls, vreq_ops=vreq_ops,
            )
        return adv

    # ------------------------------------------------------------------
    @staticmethod
    def _cost_and_calls(binding, lower_calls, vreq_ops, pt2pt):
        """The memo-miss computation: (base cost, effective lower
        calls), pure in the binding.  Kept as ONE function so every
        consumer — the charging path and the IR cost folder — resolves
        the identical float-op order."""
        cfg = binding.cfg
        ov = cfg.overheads
        nominal = ov.ckpt_lock + ov.commit_phase
        if cfg.lambda_frames:
            nominal += ov.lambda_frames
        nominal += ov.vreq_bookkeeping * vreq_ops
        if pt2pt:
            nominal += ov.counter_update
            # local-to-global rank translation helper (Section III-I.3)
            lower_calls += (
                ov.rank_helper_lh_calls if cfg.multi_call_rank_helper else 1
            )
        base = binding.machine.mana_sw_time(nominal)
        base += lower_half_call_cost(binding, lower_calls)
        return base, lower_calls

    @staticmethod
    def pure_cost(
        binding,
        lower_calls: int = 1,
        vreq_ops: int = 0,
        pt2pt: bool = False,
    ) -> float:
        """One wrapper invocation's modeled cost, *without* charging.

        The IR constant folder's window into the same cost model: no
        telemetry side effects, no trace emission, bit-identical floats
        to what :meth:`wrapper_advance` charges for the same shape."""
        return LowerHalfCosting._cost_and_calls(
            binding, lower_calls, vreq_ops, pt2pt
        )[0]
