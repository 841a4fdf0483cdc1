"""Alternative point-to-point implementations of collectives
(paper Section III-E).

When MANA cannot risk entering a lower-half collective — either because
the barrier-insertion semantics would deadlock, or (PT2PT_ALWAYS mode)
because a checkpoint must be able to land anywhere — the wrapper runs
the collective *above* the lower half, as plain MANA-tracked sends and
receives.  Those messages go through the per-pair byte counters and the
drain, so a checkpoint in the middle of such a collective is safe: the
already-sent fraction is drained into upper-half buffers and the
coroutine resumes the remaining rounds after restart.

The message pattern mirrors the lower-half algorithms (binomial trees,
recursive doubling, dissemination, Bruck, and for ``alltoall`` the same
switch on block size) so costs are comparable; tags
live in a reserved range far above MPI_TAG_UB so they can never collide
with application tags.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import MpiError
from repro.simmpi.collectives import (
    ALLTOALL_SHORT_MSG,
    alltoall_row_sizes,
    bruck_alltoall_rounds,
    bruck_pack,
    bruck_unpack,
    join_blocks,
)
from repro.simmpi.ops import ReductionOp
from repro.util.serde import SizedBlocks, payload_nbytes

#: base of the reserved internal tag space (application tags are
#: validated against MPI_TAG_UB = 2^30 - 1)
RESERVED_TAG_BASE = 1 << 40
#: tag stride per collective instance
SEQ_STRIDE = 1 << 12


def _tag(seq: int, round_: int = 0) -> int:
    if not 0 <= round_ < SEQ_STRIDE:
        raise MpiError(f"alt-collective round {round_} exceeds stride")
    return RESERVED_TAG_BASE + seq * SEQ_STRIDE + round_


def _ceil_log2(p: int) -> int:
    n, r = 1, 0
    while n < p:
        n <<= 1
        r += 1
    return r


# Each algorithm takes the ManaApi, the virtual communicator id, this
# rank's local rank, the communicator size, and the MANA-level collective
# sequence number (upper-half state that survives restart).


def barrier(api, comm_vid: int, me: int, p: int, seq: int):
    for k in range(_ceil_log2(p)):
        dst = (me + (1 << k)) % p
        src = (me - (1 << k)) % p
        yield from api._internal_isend(comm_vid, dst, _tag(seq, k), None)
        yield from api._internal_recv(comm_vid, src, _tag(seq, k))
    return None


def bcast(api, comm_vid: int, me: int, p: int, data: Any, root: int, seq: int):
    vr = (me - root) % p
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            data, _st = yield from api._internal_recv(comm_vid, parent, _tag(seq))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < p:
            child = (vr + mask + root) % p
            yield from api._internal_isend(comm_vid, child, _tag(seq), data)
        mask >>= 1
    return data


def reduce_(api, comm_vid, me, p, data, op: ReductionOp, root, seq):
    if not op.commutative:
        contribs = yield from gather(api, comm_vid, me, p, data, root, seq)
        return op.reduce_seq(contribs) if me == root else None
    vr = (me - root) % p
    acc = data
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            yield from api._internal_isend(comm_vid, parent, _tag(seq), acc)
            return None
        src_vr = vr + mask
        if src_vr < p:
            other, _st = yield from api._internal_recv(
                comm_vid, (src_vr + root) % p, _tag(seq)
            )
            acc = op(acc, other)
        mask <<= 1
    return acc


def allreduce(api, comm_vid, me, p, data, op: ReductionOp, seq):
    if not op.commutative:
        acc = yield from reduce_(api, comm_vid, me, p, data, op, 0, seq)
        result = yield from _bcast_offset(
            api, comm_vid, me, p, acc, 0, seq, SEQ_STRIDE // 2
        )
        return result
    r = 1
    while r * 2 <= p:
        r *= 2
    extra = p - r
    acc = data
    if me >= r:
        yield from api._internal_isend(comm_vid, me - r, _tag(seq, 0), acc)
    else:
        if me < extra:
            other, _ = yield from api._internal_recv(comm_vid, me + r, _tag(seq, 0))
            acc = op(acc, other)
        mask, rnd = 1, 1
        while mask < r:
            partner = me ^ mask
            yield from api._internal_isend(comm_vid, partner, _tag(seq, rnd), acc)
            other, _ = yield from api._internal_recv(comm_vid, partner, _tag(seq, rnd))
            acc = op(acc, other)
            mask <<= 1
            rnd += 1
        if me < extra:
            yield from api._internal_isend(comm_vid, me + r, _tag(seq, 1), acc)
    if me >= r:
        acc, _ = yield from api._internal_recv(comm_vid, me - r, _tag(seq, 1))
    return acc


def _bcast_offset(api, comm_vid, me, p, data, root, seq, round_base):
    vr = (me - root) % p
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            data, _ = yield from api._internal_recv(
                comm_vid, parent, _tag(seq, round_base)
            )
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vr + mask < p:
            child = (vr + mask + root) % p
            yield from api._internal_isend(
                comm_vid, child, _tag(seq, round_base), data
            )
        mask >>= 1
    return data


def gather(api, comm_vid, me, p, data, root, seq):
    vr = (me - root) % p
    contrib = {me: data}
    mask = 1
    while mask < p:
        if vr & mask:
            parent = (vr - mask + root) % p
            yield from api._internal_isend(comm_vid, parent, _tag(seq), contrib)
            return None
        src_vr = vr + mask
        if src_vr < p:
            sub, _ = yield from api._internal_recv(
                comm_vid, (src_vr + root) % p, _tag(seq)
            )
            contrib.update(sub)
        mask <<= 1
    return [contrib[i] for i in range(p)]


def scatter(api, comm_vid, me, p, data: Optional[List[Any]], root, seq):
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
        chunk, _ = yield from api._internal_recv(
            comm_vid, (parent_vr + root) % p, _tag(seq)
        )
    cm = low >> 1
    while cm:
        child_vr = vr + cm
        if child_vr < p:
            sub = {v: chunk[v] for v in range(child_vr, min(child_vr + cm, p))}
            yield from api._internal_isend(
                comm_vid, (child_vr + root) % p, _tag(seq), sub
            )
        cm >>= 1
    return chunk[vr]


def allgather(api, comm_vid, me, p, data, seq):
    # Bruck, as in the lower half: round k ships the first
    # min(2^k, p-2^k) held blocks to me-2^k and appends me+2^k's; each
    # block's size is measured once by its owner (SizedBlocks)
    blocks: List[Any] = [data]
    sizes: List[int] = [payload_nbytes(data)]
    d, k = 1, 0
    while d < p:
        n = min(d, p - d)
        head = SizedBlocks(blocks[:n], sizes[:n])
        yield from api._internal_isend(comm_vid, (me - d) % p, _tag(seq, k), head)
        got, _ = yield from api._internal_recv(comm_vid, (me + d) % p, _tag(seq, k))
        blocks += got.blocks
        sizes += got.sizes
        d, k = d << 1, k + 1
    return blocks[p - me:] + blocks[:p - me]


def alltoall(api, comm_vid, me, p, data: Any, seq):
    # the lower half's size switch and round schedule, message for
    # message: Bruck while every block fits ALLTOALL_SHORT_MSG, the
    # pairwise exchange above it; both open on round tag 1 towards
    # me+1, where Bruck catches a row from the other side of the
    # threshold (or of the other kind: list against typed)
    if len(data) != p:
        raise MpiError(f"alltoall needs a list of {p} items")
    held = join_blocks((data[me:], data[:me]))
    sizes, longest = alltoall_row_sizes(held)
    if longest > ALLTOALL_SHORT_MSG:
        result: List[Any] = [None] * p
        result[me] = data[me]
        for i in range(1, p):
            dst = (me + i) % p
            src = (me - i) % p
            yield from api._internal_isend(comm_vid, dst, _tag(seq, i), data[dst])
            result[src], _ = yield from api._internal_recv(comm_vid, src, _tag(seq, i))
        return result
    k = 1
    for d, cuts in bruck_alltoall_rounds(p):
        part = bruck_pack(cuts, held, sizes)
        yield from api._internal_isend(comm_vid, (me + d) % p, _tag(seq, k), part)
        src = (me - d) % p
        got, _ = yield from api._internal_recv(comm_vid, src, _tag(seq, k))
        bruck_unpack(cuts, held, sizes, got, me, src)
        k += 1
    return join_blocks((held[me::-1], held[:me:-1]))


def scan(api, comm_vid, me, p, data, op: ReductionOp, seq):
    acc = data
    if me > 0:
        prefix, _ = yield from api._internal_recv(comm_vid, me - 1, _tag(seq))
        acc = op(prefix, data)
    if me < p - 1:
        yield from api._internal_isend(comm_vid, me + 1, _tag(seq), acc)
    return acc


def reduce_scatter_block(api, comm_vid, me, p, data: List[Any], op, seq):
    slotwise = ReductionOp(
        op.name + "_SLOTWISE",
        lambda a, b: [op(x, y) for x, y in zip(a, b)],
        commutative=op.commutative,
    )
    reduced = yield from reduce_(api, comm_vid, me, p, data, slotwise, 0, seq)
    my_block = yield from scatter(
        api, comm_vid, me, p, reduced if me == 0 else None, 0, seq
    )
    return my_block
