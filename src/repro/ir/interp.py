"""ReplayCursor: the fast replay interpreter.

The REEXEC wrappers drive one cursor per rank instead of walking the
raw log: each wrapper call asks :meth:`ReplayCursor.step` for its
recorded value.  The step returns ``(value, needs_materialize, dt)``
and raises :class:`~repro.errors.ReplayExhausted` once every recorded
call is served:

* ``value`` — the recorded result (or a batch member's);
* ``needs_materialize`` — the wrapper must run the op's side-effecting
  materializer on it (request slots, memory, communicator metadata);
* ``dt`` — virtual seconds to ``Advance`` after serving; ``0.0`` or
  ``None`` means none, and the wrapper returns the value with no
  scheduler interaction (a replayed call costs no virtual time).

Control ops (compute/advance) never serve a call; their costs
accumulate into the next serving step's ``dt``.  Divergence checking
is preserved exactly: a wrapper call that does not match the next
serving opname raises :class:`~repro.errors.RestartError` with the
same message the raw log walk produces.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.errors import ManaError, ReplayExhausted, RestartError
from repro.ir.ops import IrProgram


class ReplayCursor:
    """Per-rank interpreter state over an :class:`IrProgram`."""

    __slots__ = ("program", "served", "_tape", "_total")

    def __init__(self, program: IrProgram):
        self.program = program
        #: serving calls answered so far (== the raw log's cursor)
        self.served = 0
        self._total = program.num_calls
        tape = program._tape
        if tape is None:
            tape = self._flatten(program)
            # memoize on the (immutable) program: later cursors over the
            # same compiled program — restart rounds of one image — skip
            # the walk entirely
            object.__setattr__(program, "_tape", tape)
        self._tape = tape

    @staticmethod
    def _flatten(program: IrProgram):
        """Pre-execute the op walk into a flat tape, one entry per
        serving call: ``(opname, value, needs_materialize, dt)``.

        Runs of control ops fold their costs into the next serving
        step's advance; batch ops expand into members, a batch's
        advance riding on the first.  The interpreter loop then
        degenerates to an indexed tuple lookup.
        """
        tape = []
        pre: Optional[float] = None
        for op in program.ops:
            if op.is_control:
                pre = op.cost if pre is None else pre + op.cost
                continue
            if op.is_batch:
                if op.yield_after:
                    dt0 = op.cost if pre is None else pre + op.cost
                else:
                    dt0 = pre
                tape.append((op.opnames[0], op.results[0], False, dt0))
                for sub in range(1, len(op.opnames)):
                    tape.append((op.opnames[sub], op.results[sub], False,
                                 None))
                pre = None
                continue
            if op.yield_after:
                dt = op.cost if pre is None else pre + op.cost
            else:
                dt = pre
            tape.append((op.opname, op.result, op.needs_materialize, dt))
            pre = None
        if len(tape) != program.num_calls:
            raise ManaError(
                f"tape length {len(tape)} != program calls "
                f"{program.num_calls} (corrupt pass output?)"
            )
        return tape

    # ------------------------------------------------------------------
    def exhausted(self) -> bool:
        """All recorded calls served: time for the replay-to-live
        transition."""
        return self.served >= self._total

    def step(self, name: str) -> Tuple[Any, bool, Optional[float]]:
        """Serve one wrapper call named ``name``."""
        served = self.served
        if served >= self._total:
            raise ReplayExhausted("replay log exhausted")
        opname, value, needs_mat, dt = self._tape[served]
        if opname != name:
            self._diverge(name, opname)
        self.served = served + 1
        return value, needs_mat, dt

    # ------------------------------------------------------------------
    def _diverge(self, name: str, expected: str) -> None:
        raise RestartError(
            f"replay divergence at call {self.served}: application "
            f"called {name!r} but the log has {expected!r} — the program "
            "is not deterministic"
        )
