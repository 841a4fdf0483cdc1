"""Record-replay: the REEXEC restart mode (restart from an image file).

The real MANA restores a process by mapping its saved memory back over a
fresh lower half.  Pure Python cannot snapshot interpreter frames, so
the full-restart mode substitutes *deterministic re-execution*: while
running, every wrapper call's externally visible result is recorded; at
restart in a brand-new process, the application re-executes from the
top, with wrappers returning recorded results (and performing no
communication) until the log is exhausted — at which point the program
counter, locals, and application memory have provably reached their
checkpoint-time state, MANA's tables are restored from the image, the
lower-half bindings are rebuilt exactly as in a RECONNECT restart, and
execution continues live.

Requirements and limits (documented in DESIGN.md):

* applications must be deterministic given their MPI results (all of
  ours are — seeded RNG streams only);
* the log grows with execution length (real MANA's memory snapshot does
  not; this is the cost of the substitution);
* the PT2PT_ALWAYS alternative-collective mode may not be combined with
  REEXEC (a checkpoint inside an alt-collective would re-execute the
  unfinished instance from scratch while peers hold half of it drained).

Orphan handling: a wrapper call *in progress* at checkpoint time (a
blocking recv parked at a check-in) has no log entry, so on re-execution
it runs live.  Virtual requests it created before the checkpoint are
"orphans" in the restored table — identified by their creating call's
sequence number exceeding the log length — and are converted: an orphan
whose message was already drained feeds its payload back into the drain
buffer (the live re-issued recv will match it); a still-pending orphan
is simply dropped (the live call re-posts).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ManaError, ReplayExhausted, RestartError
from repro.mana.handles import RequestSlot
from repro.simmpi.constants import REQUEST_NULL, Status


class ReplayLog:
    """Per-rank log of wrapper-call results."""

    def __init__(self, entries: Optional[List[Tuple[str, Any]]] = None,
                 replaying: bool = False):
        self.entries: List[Tuple[str, Any]] = entries if entries is not None else []
        self.cursor = 0
        self.replaying = replaying

    # ------------------------------------------------------------------
    def record(self, op: str, value: Any) -> None:
        if self.replaying:
            raise ManaError("record() while replaying")
        # results may alias application buffers that mutate later
        self.entries.append((op, _snapshot(value)))

    def exhausted(self) -> bool:
        return self.cursor >= len(self.entries)

    def next(self, op: str) -> Any:
        """The recorded result of the next call, which must be ``op``;
        raises :class:`~repro.errors.ReplayExhausted` once the log is
        used up."""
        cursor = self.cursor
        try:
            logged_op, value = self.entries[cursor]
        except IndexError:
            raise ReplayExhausted("replay log exhausted") from None
        if logged_op != op:
            raise RestartError(
                f"replay divergence at call {cursor}: application "
                f"called {op!r} but the log has {logged_op!r} — the program "
                "is not deterministic"
            )
        self.cursor = cursor + 1
        return value

    @property
    def completed_calls(self) -> int:
        """Calls completed at checkpoint time (= log length when saved)."""
        return len(self.entries)

    # ------------------------------------------------------------------
    def snapshot(self) -> list:
        return list(self.entries)

    def restore(self, snap: list) -> None:
        self.entries = list(snap)
        self.cursor = 0


# ----------------------------------------------------------------------
# recording snapshots: most recorded values are None, ints, floats, or
# small tuples of them — a deepcopy per call is the dominant recording
# cost.  The fast path returns immutable values as-is; everything else
# still deepcopies.  Aliasing must match copy.deepcopy exactly (atomic
# types are returned unchanged; a tuple is returned unchanged iff every
# element deepcopies to itself), because pickled images memoize by
# object identity and the image bytes are golden-pinned.
# ----------------------------------------------------------------------

_ATOMIC_TYPES = frozenset({type(None), bool, int, float, complex, str, bytes})


def _fully_immutable(value: Any) -> bool:
    t = type(value)
    if t in _ATOMIC_TYPES:
        return True
    if t is tuple:
        return all(_fully_immutable(v) for v in value)
    return False


def _snapshot(value: Any) -> Any:
    t = type(value)
    if t in _ATOMIC_TYPES:
        return value
    if t is tuple:
        if _fully_immutable(value):
            # deepcopy would return the original object too (all
            # elements copy to themselves), so aliasing is unchanged
            return value
        if len(value) == 2 and type(value[1]) is Status:
            # what ``recv`` returns, the bulk of a point-to-point log:
            # (payload, Status).  The two share no structure, so copying
            # them one by one is what deepcopy would build
            return (_snapshot(value[0]), _snapshot(value[1]))
    elif t is Status:
        fields = value.__dict__
        if all(type(v) in _ATOMIC_TYPES for v in fields.values()):
            # field-wise, as deepcopy reconstructs a plain object
            twin = Status.__new__(Status)
            twin.__dict__.update(fields)
            return twin
    return copy.deepcopy(value)


# ----------------------------------------------------------------------
# per-operation extract (result -> picklable) and materialize
# (picklable + call args -> result, with slot side effects)
# ----------------------------------------------------------------------

def _extract_slot(api, result: RequestSlot, args, kwargs) -> Any:
    return result.value


def _materialize_slot(api, value, args, kwargs) -> RequestSlot:
    return RequestSlot(value)


def _extract_id(api, result: Any, args, kwargs) -> Any:
    return result


def _materialize_id(api, value, args, kwargs) -> Any:
    return value


def _extract_test(api, result, args, kwargs):
    # persistent slots survive a successful test; record whether the
    # slot was nulled so replay reproduces the side effect exactly
    return (result, args[0].is_null)


def _materialize_test(api, value, args, kwargs):
    (flag, payload, status), nulled = value
    if nulled:
        args[0].value = REQUEST_NULL
    return flag, payload, status


def _extract_wait(api, result, args, kwargs):
    return (result, args[0].is_null)


def _materialize_wait(api, value, args, kwargs):
    result, nulled = value
    if nulled:
        args[0].value = REQUEST_NULL
    return result


def _materialize_waitall(api, value, args, kwargs):
    for slot in args[0]:
        slot.value = REQUEST_NULL
    return value


def _materialize_waitany(api, value, args, kwargs):
    index, payload, status = value
    if index is not None:
        args[0][index].value = REQUEST_NULL
    return value


def _materialize_testany(api, value, args, kwargs):
    flag, index, payload, status = value
    if flag and index is not None:
        args[0][index].value = REQUEST_NULL
    return value


def _materialize_testall(api, value, args, kwargs):
    flag, results = value
    if flag:
        for slot in args[0]:
            slot.value = REQUEST_NULL
    return value


def _materialize_request_free(api, value, args, kwargs):
    args[0].value = REQUEST_NULL
    return value


def _extract_mem(api, result, args, kwargs) -> int:
    return result.nbytes


def _materialize_mem(api, value, args, kwargs):
    from repro.mana.wrappers import UpperHalfMemory

    mem = UpperHalfMemory(value)
    api._uh_mem[mem.mem_id] = mem
    return mem


#: op name -> (extract, materialize); ops absent here are not recorded
#: (compute consumes no external state; it is skipped during replay)
RECORDED_OPS: Dict[str, Tuple[Callable, Callable]] = {
    # point-to-point
    "send": (_extract_id, _materialize_id),
    "recv": (_extract_id, _materialize_id),
    "isend": (_extract_slot, _materialize_slot),
    "irecv": (_extract_slot, _materialize_slot),
    "test": (_extract_test, _materialize_test),
    "wait": (_extract_wait, _materialize_wait),
    "waitall": (_extract_id, _materialize_waitall),
    "iprobe": (_extract_id, _materialize_id),
    "probe": (_extract_id, _materialize_id),
    "send_init": (_extract_slot, _materialize_slot),
    "recv_init": (_extract_slot, _materialize_slot),
    "start": (_extract_id, _materialize_id),
    "request_free": (_extract_id, _materialize_request_free),
    "sendrecv": (_extract_id, _materialize_id),
    "waitany": (_extract_id, _materialize_waitany),
    "testany": (_extract_id, _materialize_testany),
    "testall": (_extract_id, _materialize_testall),
    # collectives
    "barrier": (_extract_id, _materialize_id),
    "bcast": (_extract_id, _materialize_id),
    "reduce": (_extract_id, _materialize_id),
    "allreduce": (_extract_id, _materialize_id),
    "gather": (_extract_id, _materialize_id),
    "scatter": (_extract_id, _materialize_id),
    "allgather": (_extract_id, _materialize_id),
    "alltoall": (_extract_id, _materialize_id),
    "scan": (_extract_id, _materialize_id),
    "reduce_scatter_block": (_extract_id, _materialize_id),
    # non-blocking collectives
    "ibarrier": (_extract_slot, _materialize_slot),
    "ibcast": (_extract_slot, _materialize_slot),
    "ireduce": (_extract_slot, _materialize_slot),
    "iallreduce": (_extract_slot, _materialize_slot),
    "ialltoall": (_extract_slot, _materialize_slot),
    "iallgather": (_extract_slot, _materialize_slot),
    # communicators & memory (registered lazily below to avoid a cycle)
    "comm_free": None,
    "alloc_mem": (_extract_mem, _materialize_mem),
    "free_mem": (_extract_id, _materialize_id),
}
RECORDED_OPS["comm_free"] = (_extract_id, _materialize_id)


def _register_comm_ops() -> None:
    from repro.mana.reexec import extract_comm_handle, materialize_comm_handle

    for op in ("comm_split", "comm_dup", "comm_create"):
        RECORDED_OPS[op] = (extract_comm_handle, materialize_comm_handle)
