"""Collective algorithms implemented on point-to-point messaging.

Each algorithm is a generator coroutine parameterized by the library, the
calling task, the communicator, and the collective sequence number that
identifies this instance.  Internal messages travel on the communicator's
*collective* context ID with tags derived from the sequence number, so
they can never match application receives.

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


def _tag(seq: int, round_: int = 0) -> int:
    if not 0 <= round_ < TAG_STRIDE:
        raise MpiError(f"collective round {round_} exceeds tag stride")
    return seq * TAG_STRIDE + round_


_log2_memo: dict = {}


def _ceil_log2(p: int) -> int:
    r = _log2_memo.get(p)
    if r is None:
        n, r = 1, 0
        while n < p:
            n <<= 1
            r += 1
        _log2_memo[p] = r
    return r


# ----------------------------------------------------------------------
# Each helper below sends/receives on the collective context of `comm`.
# `lib` supplies the raw primitives (see MpiLibrary._isend_raw/_irecv_raw).
# ----------------------------------------------------------------------

def _send(lib, task, comm: RealComm, dst_local: int, tag: int, payload: Any):
    dst_world = comm.world_rank(dst_local)
    req = yield from lib._isend_raw(task, comm.coll_ctx, dst_world, tag, payload)
    return req


def _recv(lib, task, comm: RealComm, src_local: int, tag: int):
    src_world = comm.world_rank(src_local)
    req = lib._irecv_raw(task, comm.coll_ctx, src_world, tag)
    payload = yield from lib._wait(task, req)
    return payload


# ----------------------------------------------------------------------
# barrier: dissemination
# ----------------------------------------------------------------------

def barrier(lib, task, comm: RealComm, me: int, seq: int):
    # hot path: ``_send``/``_recv`` inlined (dissemination barriers
    # dominate collective traffic); rounds fit the tag stride by
    # construction (log2 p << TAG_STRIDE)
    p = comm.size
    ctx = comm.coll_ctx
    wr = comm.group.world_ranks
    base = seq * TAG_STRIDE
    isend = lib._isend_raw
    irecv = lib._irecv_raw
    wait = lib._wait
    for k in range(_ceil_log2(p)):
        d = 1 << k
        tag = base + k
        yield from isend(task, ctx, wr[(me + d) % p], tag, None)
        yield from wait(task, irecv(task, ctx, wr[(me - d) % p], tag))
    return None


# ----------------------------------------------------------------------
# bcast: binomial tree; root returns after injecting its sends
# ----------------------------------------------------------------------

def bcast(lib, task, comm: RealComm, me: int, data: Any, root: int, seq: int):
    # hot path: helpers inlined; a binomial bcast uses a single tag
    p = comm.size
    vr = (me - root) % p
    ctx = comm.coll_ctx
    wr = comm.group.world_ranks
    tag = seq * TAG_STRIDE
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            req = lib._irecv_raw(task, ctx, wr[parent], tag)
            data = yield from lib._wait(task, req)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < p:
            child = (vr + mask + root) % p
            yield from lib._isend_raw(task, ctx, wr[child], tag, data)
        mask >>= 1
    return data


# ----------------------------------------------------------------------
# reduce: binomial tree for commutative ops, gather+fold otherwise
# ----------------------------------------------------------------------

def reduce_(
    lib,
    task,
    comm: RealComm,
    me: int,
    data: Any,
    op: ReductionOp,
    root: int,
    seq: int,
):
    p = comm.size
    if not op.commutative:
        contribs = yield from gather(lib, task, comm, me, data, root, seq)
        if me == root:
            return op.reduce_seq(contribs)
        return None
    vr = (me - root) % p
    acc = data
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            yield from _send(lib, task, comm, parent, _tag(seq), acc)
            return None
        src_vr = vr + mask
        if src_vr < p:
            other = yield from _recv(
                lib, task, comm, (src_vr + root) % p, _tag(seq)
            )
            acc = op(acc, other)
        mask <<= 1
    return acc  # only the root reaches here


# ----------------------------------------------------------------------
# allreduce: fold-in extras + recursive doubling (commutative);
# reduce+bcast otherwise
# ----------------------------------------------------------------------

def allreduce(
    lib, task, comm: RealComm, me: int, data: Any, op: ReductionOp, seq: int
):
    p = comm.size
    if not op.commutative:
        acc = yield from reduce_(lib, task, comm, me, data, op, 0, seq)
        # chain a bcast on the same instance using a high round offset
        result = yield from _bcast_rounds(
            lib, task, comm, me, acc, 0, seq, round_base=TAG_STRIDE // 2
        )
        return result

    # hot path: helpers inlined (recursive doubling; rounds << stride)
    r = 1
    while r * 2 <= p:
        r *= 2
    extra = p - r
    acc = data
    ctx = comm.coll_ctx
    wr = comm.group.world_ranks
    base = seq * TAG_STRIDE
    isend = lib._isend_raw
    irecv = lib._irecv_raw
    wait = lib._wait
    if me >= r:
        yield from isend(task, ctx, wr[me - r], base, acc)
    else:
        if me < extra:
            other = yield from wait(task, irecv(task, ctx, wr[me + r], base))
            acc = op(acc, other)
        mask = 1
        rnd = 1
        while mask < r:
            partner = wr[me ^ mask]
            tag = base + rnd
            yield from isend(task, ctx, partner, tag, acc)
            other = yield from wait(task, irecv(task, ctx, partner, tag))
            acc = op(acc, other)
            mask <<= 1
            rnd += 1
        if me < extra:
            yield from isend(task, ctx, wr[me + r], base + 1, acc)
    if me >= r:
        acc = yield from wait(task, irecv(task, ctx, wr[me - r], base + 1))
    return acc


def _bcast_rounds(lib, task, comm, me, data, root, seq, round_base):
    """Binomial bcast using tags offset by ``round_base`` (for chaining)."""
    p = comm.size
    vr = (me - root) % p
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            data = yield from _recv(lib, task, comm, parent, _tag(seq, round_base))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < p:
            child = (vr + mask + root) % p
            yield from _send(lib, task, comm, child, _tag(seq, round_base), data)
        mask >>= 1
    return data


# ----------------------------------------------------------------------
# gather / scatter: binomial trees keyed by rank relative to root
# ----------------------------------------------------------------------

def gather(
    lib, task, comm: RealComm, me: int, data: Any, root: int, seq: int
) -> Any:
    p = comm.size
    vr = (me - root) % p
    contrib = {me: data}
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            yield from _send(lib, task, comm, parent, _tag(seq, 0), contrib)
            return None
        src_vr = vr + mask
        if src_vr < p:
            sub = yield from _recv(
                lib, task, comm, (src_vr + root) % p, _tag(seq, 0)
            )
            contrib.update(sub)
        mask <<= 1
    return [contrib[i] for i in range(p)]  # root only


def scatter(
    lib,
    task,
    comm: RealComm,
    me: int,
    data: Optional[List[Any]],
    root: int,
    seq: int,
):
    p = comm.size
    vr = (me - root) % p
    if vr == 0:
        if data is None or len(data) != p:
            raise MpiError(f"scatter root needs a list of {p} items")
        chunk = {v: data[(v + root) % p] for v in range(p)}
        low = 1
        while low < p:
            low <<= 1
    else:
        low = vr & (-vr)
        parent_vr = vr - low
        chunk = yield from _recv(
            lib, task, comm, (parent_vr + root) % p, _tag(seq, 0)
        )
    cm = low >> 1
    while cm:
        child_vr = vr + cm
        if child_vr < p:
            sub = {v: chunk[v] for v in range(child_vr, min(child_vr + cm, p))}
            yield from _send(
                lib, task, comm, (child_vr + root) % p, _tag(seq, 0), sub
            )
        cm >>= 1
    return chunk[vr]


# ----------------------------------------------------------------------
# allgather: Bruck (what MPICH runs for short blocks, any p)
# ----------------------------------------------------------------------

def allgather(lib, task, comm: RealComm, me: int, data: Any, seq: int):
    # hot path: helpers inlined (ceil(log2 p) rounds << TAG_STRIDE).
    # Entering round k a rank holds the blocks of ranks me .. me+2^k-1;
    # it ships the first min(2^k, p-2^k) of them to rank me-2^k and
    # appends what rank me+2^k ships.  Sizes ride along (SizedBlocks):
    # a block is measured once, by its owner, however often forwarded.
    p = comm.size
    blocks: List[Any] = [data]
    sizes: List[int] = [payload_nbytes(data)]
    ctx = comm.coll_ctx
    wr = comm.group.world_ranks
    tag = seq * TAG_STRIDE
    isend = lib._isend_raw
    irecv = lib._irecv_raw
    wait = lib._wait
    d = 1
    while d < p:
        n = min(d, p - d)
        yield from isend(task, ctx, wr[(me - d) % p], tag,
                         SizedBlocks(blocks[:n], sizes[:n]))
        got = yield from wait(task, irecv(task, ctx, wr[(me + d) % p], tag))
        blocks += got.blocks
        sizes += got.sizes
        d <<= 1
        tag += 1
    # blocks[i] is rank (me + i) % p's: rotate into rank order
    return blocks[p - me:] + blocks[:p - me]


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


def alltoall(lib, task, comm: RealComm, me: int, data: Any, seq: int):
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
    # hot path: helpers inlined (MANA's drain runs one of these over the
    # whole world per checkpoint round); tag offsets stay below p, so
    # one check covers every round of either algorithm
    p = comm.size
    if len(data) != p:
        raise MpiError(f"alltoall needs a list of {p} items, got {len(data)}")
    if p > TAG_STRIDE:
        raise MpiError(f"collective round {p - 1} exceeds tag stride")
    # held[i]: bound for rank me + i before Bruck's rounds, come from
    # rank me - i after them.  Sizes ride along (SizedBlocks): a block
    # is measured once, by its owner, however often it is forwarded.
    held = join_blocks((data[me:], data[:me]))
    sizes, longest = alltoall_row_sizes(held)
    ctx = comm.coll_ctx
    wr = comm.group.world_ranks
    tag = seq * TAG_STRIDE + 1
    isend = lib._isend_raw
    irecv = lib._irecv_raw
    wait = lib._wait

    if longest > ALLTOALL_SHORT_MSG:
        result: List[Any] = [None] * p
        result[me] = data[me]
        for i in range(1, p):
            dst = (me + i) % p
            src = (me - i) % p
            yield from isend(task, ctx, wr[dst], tag, data[dst])
            result[src] = yield from wait(task, irecv(task, ctx, wr[src], tag))
            tag += 1
        return result

    for d, cuts in bruck_alltoall_rounds(p):
        yield from isend(task, ctx, wr[(me + d) % p], tag,
                         bruck_pack(cuts, held, sizes))
        src = (me - d) % p
        got = yield from wait(task, irecv(task, ctx, wr[src], tag))
        bruck_unpack(cuts, held, sizes, got, me, src)
        tag += 1
    return join_blocks((held[me::-1], held[:me:-1]))


# ----------------------------------------------------------------------
# scan (inclusive) and reduce_scatter_block
# ----------------------------------------------------------------------

def scan(lib, task, comm: RealComm, me: int, data: Any, op: ReductionOp, seq: int):
    p = comm.size
    acc = data
    if me > 0:
        prefix = yield from _recv(lib, task, comm, me - 1, _tag(seq, 0))
        acc = op(prefix, data)
    if me < p - 1:
        yield from _send(lib, task, comm, me + 1, _tag(seq, 0), acc)
    return acc


def reduce_scatter_block(
    lib, task, comm: RealComm, me: int, data: List[Any], op: ReductionOp, seq: int
):
    p = comm.size
    if len(data) != p:
        raise MpiError(f"reduce_scatter needs a list of {p} items")
    # reduce the whole vector of blocks to rank 0 (combining slot-wise so
    # that e.g. SUM over Python lists doesn't concatenate), then scatter
    slotwise = ReductionOp(
        op.name + "_SLOTWISE",
        lambda a, b: [op(x, y) for x, y in zip(a, b)],
        commutative=op.commutative,
    )
    reduced = yield from reduce_(lib, task, comm, me, data, slotwise, 0, seq)
    my_block = yield from scatter(
        lib, task, comm, me, reduced if me == 0 else None, 0, seq
    )
    return my_block
