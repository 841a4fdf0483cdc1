"""Collective algorithms implemented on point-to-point messaging.

Each algorithm is a plain function of an executor, the state that
executor runs in, and the caller's rank in the communicator; it returns
the one generator the calling rank runs.  In the lower half, messages
travel on the communicator's *collective* context ID with tags derived
from the collective sequence number, so they can never match
application receives.

The algorithms are the textbook ones (binomial trees, recursive doubling,
dissemination, Bruck, pairwise exchange) because the paper's performance
arguments depend on their structure: a broadcast root injects ``log p``
messages and returns without waiting — the "non-blocking but
synchronizing" semantics of Sections III-D/III-E — while a barrier
synchronizes everyone in ``log p`` rounds, which is exactly the cost the
original MANA added in front of every collective call.

Per collective: barrier — dissemination; bcast, reduce, gather, scatter
— binomial trees; allreduce — recursive doubling; allgather — Bruck at
every size; alltoall — Bruck's store-and-forward while every block is at
most ``ALLTOALL_SHORT_MSG`` bytes (the drain's counter exchange), the
pairwise exchange above it (FFT transposes), as MPICH switches.

Each algorithm is one value that every collective layer runs.  Its
structure is a *round plan*: a plan function gives one rank its rounds
``(dst, src, offset, x)`` — peers as ranks of the list it is handed, -1
for a side the round lacks, the tag offset, and what the algorithm needs
to know about that round.  The algorithm picks the plan, the starting
value and what a round sends and folds in; an *executor* ``run``, handed
to it with the state ``at`` it runs in, moves the messages.  Two
executors exist: :func:`run_rounds` here, the lower half's, which
addresses world ranks on the communicator's collective context and
keeps each ``(plan, me, root)`` schedule on the communicator; and
:func:`repro.mana.collective_impl.run_rounds`, the upper half's
(Section III-E), which sends MANA-tracked point-to-point messages
between the communicator's local ranks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.errors import MpiError
from repro.simmpi.comm import RealComm
from repro.simmpi.ops import ReductionOp
from repro.util.serde import SizedBlocks, payload_nbytes, typed_block_nbytes

#: tag stride between collective instances; rounds within an instance
#: occupy tag offsets [0, TAG_STRIDE)
TAG_STRIDE = 1 << 20

#: largest block, in bytes, that ``alltoall`` still moves with Bruck's
#: algorithm: MPICH's ``MPIR_CVAR_ALLTOALL_SHORT_MSG_SIZE`` default (256),
#: which Cray MPICH inherits.  A model constant, not a tuning knob
ALLTOALL_SHORT_MSG = 256


# ----------------------------------------------------------------------
# the lower half's round executor
# ----------------------------------------------------------------------

def run_rounds(at, plan, me: int, root: int, acc: Any, out=None, into=None,
               finish=None, half: bool = False):
    """Run rank ``me``'s rounds of ``plan`` on the collective context of
    a communicator; ``at`` is ``(lib, task, comm, seq)``.

    A round ``(dst, src, offset, x)`` sends ``out(acc, x)`` — ``acc``
    itself when ``out`` is None — eagerly to ``dst``, then receives from
    ``src`` and folds the payload in as ``acc = into(acc, got, x)`` —
    replaces ``acc`` when ``into`` is None — both on tag ``seq *
    TAG_STRIDE + offset``, or ``TAG_STRIDE // 2`` above it for the
    ``half`` chained on an instance; a side whose rank is -1 is skipped.
    Returns ``acc``, or ``finish(acc)``.

    The send and the receive are the primitives' halves around their
    yields (``MpiLibrary._eager_send``, ``_irecv_raw``, ``_park``), so
    the rank's generator is this one frame, and the simulation is the
    one the primitives make: the same ``Advance``/``Park`` yields in the
    same order, the library's ``destroyed`` flag tested before each send
    and each receive, and message and request ids drawn in the same
    order.  The send request nobody reads is never built; ``_eager_send``
    still draws its id."""
    lib, task, comm, seq = at
    rounds = comm.schedules.get((plan, me, root))
    if rounds is None:
        rounds = schedule(comm, plan, me, root)
    base = seq * TAG_STRIDE
    if half:
        base += TAG_STRIDE // 2
    ctx = comm.coll_ctx
    eager_send = lib._eager_send
    irecv = lib._irecv_raw
    park = lib._park
    adv_send = lib._adv_send
    adv_recv = lib._adv_recv
    for dst, src, off, x in rounds:
        tag = base + off
        if dst >= 0:
            payload = acc if out is None else out(acc, x)
            if lib.destroyed:
                lib._check()
            yield adv_send
            eager_send(task, ctx, dst, tag, payload)
        if src >= 0:
            req = irecv(task, ctx, src, tag)
            if not req.done:
                yield park(task, req)
                req.waiter = None
            yield adv_recv
            acc = req.payload if into is None else into(acc, req.payload, x)
    return acc if finish is None else finish(acc)


def schedule(comm: RealComm, plan, me: int, root: int = 0):
    """Rank ``me``'s rounds of ``plan`` in world ranks of ``comm``, kept
    on the communicator so they die with its incarnation — except the
    pairwise exchange's, which :func:`pairwise` builds per call."""
    rounds = plan(comm.group.world_ranks, me, root)
    if plan is not pairwise:
        comm.schedules[(plan, me, root)] = rounds
    return rounds


# ----------------------------------------------------------------------
# round plans: ``plan(ranks, me, root)`` -> rank me's rounds, its peers
# taken from ``ranks`` (the lower half passes world ranks, the upper
# half local ones)
# ----------------------------------------------------------------------

def dissemination(wr: Sequence[int], me: int, root: int = 0) -> tuple:
    """barrier: round k sends to ``me + 2^k``, receives from ``me - 2^k``."""
    p = len(wr)
    rounds, d = [], 1
    while d < p:
        rounds.append((wr[(me + d) % p], wr[(me - d) % p], len(rounds), None))
        d <<= 1
    return tuple(rounds)


def binomial_down(wr: Sequence[int], me: int, root: int = 0) -> tuple:
    """bcast, scatter: receive from the parent, then send to each child,
    farthest first; a send's ``x`` is the child's subtree as a range of
    ranks relative to ``root``.  The root returns once it has sent."""
    p = len(wr)
    vr = (me - root) % p
    rounds = []
    mask = 1
    while mask < p:
        if vr & mask:
            rounds.append((-1, wr[(vr - mask + root) % p], 0, None))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child = vr + mask
        if child < p:
            rounds.append((wr[(child + root) % p], -1, 0,
                           (child, min(child + mask, p))))
        mask >>= 1
    return tuple(rounds)


def binomial_up(wr: Sequence[int], me: int, root: int = 0) -> tuple:
    """reduce, gather: receive from each child, nearest first, then send
    to the parent."""
    p = len(wr)
    vr = (me - root) % p
    rounds = []
    mask = 1
    while mask < p:
        if vr & mask:
            rounds.append((wr[(vr - mask + root) % p], -1, 0, None))
            break
        if vr + mask < p:
            rounds.append((-1, wr[(vr + mask + root) % p], 0, None))
        mask <<= 1
    return tuple(rounds)


def recursive_doubling(wr: Sequence[int], me: int, root: int = 0) -> tuple:
    """allreduce: the ranks past the largest power of two ``r <= p``
    hand their value to ``me - r`` and get the result back from it; the
    rest exchange with ``me ^ 2^k``.  ``x``: whether a receive folds into
    the running value (True) or is the result (False)."""
    p = len(wr)
    r = 1
    while r * 2 <= p:
        r *= 2
    if me >= r:
        return ((wr[me - r], -1, 0, None), (-1, wr[me - r], 1, False))
    extra = me < p - r
    rounds = [(-1, wr[me + r], 0, True)] if extra else []
    mask, k = 1, 1
    while mask < r:
        partner = wr[me ^ mask]
        rounds.append((partner, partner, k, True))
        mask <<= 1
        k += 1
    if extra:
        rounds.append((wr[me + r], -1, 1, None))
    return tuple(rounds)


def bruck_allgather(wr: Sequence[int], me: int, root: int = 0) -> tuple:
    """allgather: entering round k a rank holds the blocks of ranks
    ``me .. me + 2^k - 1``; it ships the first ``x = min(2^k, p - 2^k)``
    of them to ``me - 2^k`` and appends what ``me + 2^k`` ships."""
    p = len(wr)
    rounds, d = [], 1
    while d < p:
        rounds.append((wr[(me - d) % p], wr[(me + d) % p], len(rounds),
                       min(d, p - d)))
        d <<= 1
    return tuple(rounds)


def bruck_alltoall(wr: Sequence[int], me: int, root: int = 0) -> tuple:
    """alltoall of short blocks: :func:`bruck_alltoall_rounds` for rank
    ``me``; ``x = (cuts, me, src)`` in ranks of the communicator."""
    p = len(wr)
    return tuple(
        (wr[(me + d) % p], wr[(me - d) % p], 1 + k, (cuts, me, (me - d) % p))
        for k, (d, cuts) in enumerate(bruck_alltoall_rounds(p)))


def pairwise(wr: Sequence[int], me: int, root: int = 0):
    """alltoall of long blocks: round ``x = i`` sends to ``me + i`` and
    receives from ``me - i``.  Built per call, never kept: at ``p - 1``
    rounds a rank, a communicator would hold ``p^2`` of them; an
    iterator, so its rounds are made as they run."""
    steps = range(1, len(wr))
    return zip(wr[me + 1:] + wr[:me], wr[:me][::-1] + wr[me + 1:][::-1],
               steps, steps)


def chain(wr: Sequence[int], me: int, root: int = 0) -> tuple:
    """scan: receive the prefix from ``me - 1``, pass it on to ``me + 1``."""
    rounds = []
    if me > 0:
        rounds.append((-1, wr[me - 1], 0, None))
    if me < len(wr) - 1:
        rounds.append((wr[me + 1], -1, 0, None))
    return tuple(rounds)


# ----------------------------------------------------------------------
# the algorithms: a plan and what a round sends and folds in.  Each
# takes the executor ``run`` and the state ``at`` it runs in, and the
# caller's rank ``me`` in the communicator; ``p`` where only the
# communicator's size can check an argument
# ----------------------------------------------------------------------

def barrier(run, at, me: int):
    return run(at, dissemination, me, 0, None)


def bcast(run, at, me: int, data: Any, root: int):
    return run(at, binomial_down, me, root, data)


def reduce_(run, at, me: int, data: Any, op: ReductionOp, root: int):
    """Binomial tree for commutative ops, gather + fold at the root
    otherwise; ranks other than the root return None."""
    if not op.commutative:
        return gather(run, at, me, data, root, then=op.reduce_seq)
    fold = op.fn
    return run(at, binomial_up, me, root, data,
               into=lambda acc, got, _x: fold(acc, got),
               finish=None if me == root else lambda _acc: None)


def allreduce(run, at, me: int, data: Any, op: ReductionOp):
    """Recursive doubling for commutative ops; reduce + bcast otherwise."""
    if not op.commutative:
        return _reduce_then_bcast(run, at, me, data, op)
    fold = op.fn
    return run(at, recursive_doubling, me, 0, data,
               into=lambda acc, got, folds: fold(acc, got) if folds else got)


def _reduce_then_bcast(run, at, me, data, op):
    acc = yield from reduce_(run, at, me, data, op, 0)
    # the bcast is chained on the same instance at half the tag stride
    return (yield from run(at, binomial_down, me, 0, acc, half=True))


def gather(run, at, me: int, data: Any, root: int, then=None) -> Any:
    """The root gets the contributions in rank order (``then(list)`` if
    given), everyone else None."""

    def finish(contrib):
        if me != root:
            return None
        ranked = [contrib[i] for i in range(len(contrib))]
        return ranked if then is None else then(ranked)

    return run(at, binomial_up, me, root, {me: data}, into=_merge,
               finish=finish)


def scatter(run, at, me: int, p: int, data: Optional[List[Any]], root: int):
    vr = (me - root) % p
    chunk = None
    if vr == 0:
        if data is None or len(data) != p:
            raise MpiError(f"scatter root needs a list of {p} items")
        chunk = {v: data[(v + root) % p] for v in range(p)}
    return run(at, binomial_down, me, root, chunk,
               out=lambda chunk, span: {v: chunk[v] for v in range(*span)},
               finish=lambda chunk: chunk[vr])


def allgather(run, at, me: int, data: Any):
    """Bruck at every size.  Sizes ride along (SizedBlocks): a block is
    measured once, by its owner, however often forwarded."""

    def finish(acc):
        # blocks[i] is rank (me + i) % p's: rotated into rank order
        blocks = acc[0]
        k = len(blocks) - me
        return blocks[k:] + blocks[:k]

    return run(at, bruck_allgather, me, 0, ([data], [payload_nbytes(data)]),
               out=lambda acc, n: SizedBlocks(acc[0][:n], acc[1][:n]),
               into=_append, finish=finish)


def _merge(acc, got, _x):
    acc.update(got)
    return acc


def _append(acc, got, _n):
    blocks, sizes = acc
    blocks += got.blocks
    sizes += got.sizes
    return acc


# ----------------------------------------------------------------------
# alltoall: Bruck for short blocks, pairwise exchange for long ones
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def bruck_alltoall_rounds(p: int) -> tuple:
    """Round schedule of Bruck's ``alltoall`` on ``p`` ranks, one
    ``(d, cuts)`` per round; both collective layers run it.

    A rank holds ``p`` blocks, block ``i`` bound for the rank ``i``
    places above it.  Round ``k`` (``d = 2^k``) ships the blocks whose
    index has bit ``k`` set to rank ``me + d`` and takes the same
    positions from rank ``me - d``, so a block travels the binary
    expansion of its distance and block ``i`` ends up holding what rank
    ``me - i`` sent.  ``cuts`` covers that index set with slices — its
    runs of ``d`` where those are few, strides of ``2d`` where those
    are fewer, about ``sqrt(p / 2)`` at most — each paired with its
    span in the round's message: ``(slice, start, stop)``.
    """
    rounds = []
    d = 1
    while d < p:
        runs = [slice(s, min(s + d, p)) for s in range(d, p, 2 * d)]
        strides = [slice(o, p, 2 * d) for o in range(d, min(2 * d, p))]
        cuts, at = [], 0
        for cut in min(runs, strides, key=len):
            n = len(range(p)[cut])
            cuts.append((cut, at, at + n))
            at += n
        rounds.append((d, tuple(cuts)))
        d <<= 1
    return tuple(rounds)


def join_blocks(runs: Sequence[Any]) -> Any:
    """The runs of blocks, concatenated into a new container of their
    kind: a list, or for typed rows (``(n, k)`` int64 arrays, see
    :class:`SizedBlocks`) an array.  Always a copy — a message must
    never alias the row it was cut from, and a basic slice of an array
    is a view the sender's later rounds would write through."""
    if type(runs[0]) is np.ndarray:
        return np.concatenate(runs)
    out: List[Any] = []
    for run in runs:
        out += run
    return out


def alltoall_row_sizes(data: Any) -> tuple:
    """``(sizes, longest)`` of an ``alltoall`` row: the wire size of each
    block and the largest.  A typed row has no ``sizes`` (``None``): its
    blocks all measure ``longest``, and must be short ones."""
    if type(data) is not np.ndarray:
        sizes = list(map(payload_nbytes, data))
        return sizes, max(sizes)
    if data.ndim != 2 or data.dtype != np.int64:
        raise MpiError(
            "a typed alltoall row is a 2-d int64 array, one row per rank; "
            f"got shape {data.shape}, dtype {data.dtype}"
        )
    longest = typed_block_nbytes(data)
    if longest > ALLTOALL_SHORT_MSG:
        raise MpiError(
            f"typed alltoall rows carry short blocks only: {longest} bytes "
            f"per block exceeds ALLTOALL_SHORT_MSG = {ALLTOALL_SHORT_MSG}"
        )
    return None, longest


def bruck_pack(cuts: tuple, held: Any, sizes: Optional[list]) -> SizedBlocks:
    """One round's message: the blocks under ``cuts`` with their sizes."""
    blocks = join_blocks([held[cut] for cut, _start, _stop in cuts])
    if sizes is None:
        return SizedBlocks(blocks)
    return SizedBlocks(
        blocks, join_blocks([sizes[cut] for cut, _start, _stop in cuts]))


def bruck_unpack(
    cuts: tuple, held: Any, sizes: Optional[list], got: Any, me: int, src: int
) -> None:
    """Put rank ``src``'s message for this round into the same
    positions; a message that cannot be one is a typed error."""
    if type(got) is not SizedBlocks or type(got.blocks) is not type(held):
        raise alltoall_mismatch(me, src, held, sizes, got)
    for cut, start, stop in cuts:
        held[cut] = got.blocks[start:stop]
        if sizes is not None:
            sizes[cut] = got.sizes[start:stop]


def alltoall_mismatch(
    me: int, src: int, held: Any, sizes: Optional[list], got: Any
) -> MpiError:
    """The error for rows whose type signatures differ across ranks.

    Rows on opposite sides of ``ALLTOALL_SHORT_MSG``: both algorithms
    open with the same exchange (send to ``me + 1``, receive from
    ``me - 1``, same tag) and their messages differ in type.  If any two
    ranks disagree then, going round the ring, some rank running Bruck
    sits right after one running the pairwise exchange, and its first
    receive is a bare block.  Rows of different kinds (typed and list):
    every rank runs the same rounds, and some rank's first receive holds
    the other kind of blocks.  Either way a typed error instead of a
    hang."""
    if type(got) is SizedBlocks:
        return MpiError(
            f"alltoall rows differ in kind: rank {me} holds "
            f"{type(held).__name__} blocks, rank {src} shipped "
            f"{type(got.blocks).__name__} blocks; MPI requires matching "
            "type signatures across ranks"
        )
    longest = typed_block_nbytes(held) if sizes is None else max(sizes)
    return MpiError(
        f"alltoall rows straddle ALLTOALL_SHORT_MSG = {ALLTOALL_SHORT_MSG} "
        f"bytes: rank {me}'s largest block is {longest} bytes, but rank "
        f"{src} sent a bare {payload_nbytes(got)}-byte block, as the "
        "pairwise exchange does for a row holding a longer one; MPI "
        "requires matching type signatures across ranks"
    )


def alltoall(run, at, me: int, p: int, data: Any):
    """``data[j]`` goes to rank ``j``; returns the blocks received, in
    rank order.

    As in MPI, the type signatures must match across ranks: every rank
    passes ``p`` blocks, and either all rows keep every block within
    ``ALLTOALL_SHORT_MSG`` bytes (Bruck, ``ceil(log2 p)`` messages per
    rank, blocks forwarded) or none does (pairwise exchange, ``p - 1``
    messages per rank).  A row is a list of blocks or, for short blocks
    that are k-tuples of ints, a typed ``(p, k)`` int64 array, which
    comes back as one; the rows of one call are all of one kind.  Rows
    that straddle the threshold or differ in kind raise
    :class:`MpiError` (see :func:`alltoall_mismatch`)."""
    if len(data) != p:
        raise MpiError(f"alltoall needs a list of {p} items, got {len(data)}")
    # tag offsets stay below p, so one check covers every round of
    # either algorithm in the lower half, whose executor checks none
    if p > TAG_STRIDE:
        raise MpiError(f"collective round {p - 1} exceeds tag stride")
    # held[i]: bound for rank me + i before Bruck's rounds, come from
    # rank me - i after them.  Sizes ride along (SizedBlocks): a block
    # is measured once, by its owner, however often it is forwarded.
    held = join_blocks((data[me:], data[:me]))
    sizes, longest = alltoall_row_sizes(held)

    if longest > ALLTOALL_SHORT_MSG:
        result: List[Any] = [None] * p
        result[me] = data[me]

        def place(acc, got, i):
            acc[(me - i) % p] = got
            return acc

        return run(at, pairwise, me, 0, result,
                   out=lambda _acc, i: data[(me + i) % p], into=place)

    return run(at, bruck_alltoall, me, 0, (held, sizes),
               out=lambda acc, x: bruck_pack(x[0], *acc),
               into=_bruck_unpacked,
               finish=lambda acc: join_blocks((acc[0][me::-1],
                                               acc[0][:me:-1])))


def _bruck_unpacked(acc, got, x):
    cuts, me, src = x
    bruck_unpack(cuts, acc[0], acc[1], got, me, src)
    return acc


# ----------------------------------------------------------------------
# scan (inclusive) and reduce_scatter_block
# ----------------------------------------------------------------------

def scan(run, at, me: int, data: Any, op: ReductionOp):
    fold = op.fn
    return run(at, chain, me, 0, data,
               into=lambda acc, prefix, _x: fold(prefix, acc))


def reduce_scatter_block(run, at, me: int, p: int, data: List[Any],
                         op: ReductionOp):
    if len(data) != p:
        raise MpiError(f"reduce_scatter needs a list of {p} items")
    # reduce the whole vector of blocks to rank 0 (combining slot-wise so
    # that e.g. SUM over Python lists doesn't concatenate), then scatter
    slotwise = ReductionOp(
        op.name + "_SLOTWISE",
        lambda a, b: [op(x, y) for x, y in zip(a, b)],
        commutative=op.commutative,
    )
    reduced = yield from reduce_(run, at, me, data, slotwise, 0)
    return (yield from scatter(run, at, me, p, reduced if me == 0 else None, 0))
