"""The upper half's collective executor (paper Section III-E).

When MANA cannot risk entering a lower-half collective — either because
the barrier-insertion semantics would deadlock, or (PT2PT_ALWAYS mode)
because a checkpoint must be able to land anywhere — the wrapper runs
the collective *above* the lower half, as plain MANA-tracked sends and
receives.  Those messages go through the per-pair byte counters and the
drain, so a checkpoint in the middle of such a collective is safe: the
already-sent fraction is drained into upper-half buffers and the
coroutine resumes the remaining rounds after restart.

The algorithms are the lower half's own (:mod:`repro.simmpi.collectives`),
message for message; this module holds only the executor that runs their
round plans here, between the communicator's local ranks.  Tags live in
a reserved range far above MPI_TAG_UB so they can never collide with
application tags.
"""

from __future__ import annotations

from typing import Any

from repro.errors import MpiError

#: base of the reserved internal tag space (application tags are
#: validated against MPI_TAG_UB = 2^30 - 1)
RESERVED_TAG_BASE = 1 << 40
#: tag stride per collective instance
SEQ_STRIDE = 1 << 12


def run_rounds(at, plan, me: int, root: int, acc: Any, out=None, into=None,
               finish=None, half: bool = False):
    """Run rank ``me``'s rounds of ``plan`` as MANA-tracked messages;
    ``at`` is ``(api, comm_vid, p, seq)``, ``seq`` the MANA-level
    collective sequence number (upper-half state that survives restart).

    The rounds are :func:`repro.simmpi.collectives.run_rounds`'s, built
    over the local ranks ``0 .. p - 1`` on every call: a round sends
    ``out(acc, x)`` (or ``acc``) to ``dst`` through ``_internal_isend``,
    then receives from ``src`` through ``_internal_recv`` and folds the
    payload in with ``into`` (or keeps it), on tag ``RESERVED_TAG_BASE
    + seq * SEQ_STRIDE + round``, where ``round`` is the plan's offset,
    ``SEQ_STRIDE // 2`` above it for the ``half`` chained on an
    instance."""
    api, vid, p, seq = at
    base = RESERVED_TAG_BASE + seq * SEQ_STRIDE
    first = SEQ_STRIDE // 2 if half else 0
    for dst, src, off, x in plan(tuple(range(p)), me, root):
        round_ = first + off
        if not 0 <= round_ < SEQ_STRIDE:
            raise MpiError(f"alt-collective round {round_} exceeds stride")
        if dst >= 0:
            yield from api._internal_isend(
                vid, dst, base + round_, acc if out is None else out(acc, x))
        if src >= 0:
            got, _st = yield from api._internal_recv(vid, src, base + round_)
            acc = got if into is None else into(acc, got, x)
    return acc if finish is None else finish(acc)
