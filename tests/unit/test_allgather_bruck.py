"""The lower half's Bruck ``allgather`` and everything that rides on it
(``iallgather``, ``comm_split``, ``win_create``): right blocks in rank
order for awkward sizes and unequal per-rank payloads, on the world and
on a key-permuted sub-communicator, plus exact pins of its message
count and wire bytes."""

import numpy as np
import pytest

from repro.simmpi import COMM_NULL, UNDEFINED
from repro.simmpi.runner import run_native
from repro.util.serde import payload_nbytes

SIZES = [1, 2, 3, 5, 6, 7, 8, 12, 16, 33]


def ceil_log2(p):
    return (p - 1).bit_length()


def block(r):
    """Rank ``r``'s contribution: type and wire size both vary by rank."""
    return (None, r, "x" * r, np.arange(r, dtype=np.float64))[r % 4]


def same(a, b):
    if isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def sub_members(p):
    """Members of the sub-communicator in local-rank order: world ranks
    1..p of a p+2 world, evens descending then odds descending."""
    return sorted(range(1, p + 1), key=lambda w: ((w % 2) * 100 - w, w))


def on_comm(where, p, body):
    """Run ``body(lib, task, comm)`` on every member of the world
    (``where == "world"``) or of the permuted sub-communicator."""
    if where == "world":
        return run_native(p, lambda lib, task: body(lib, task, lib.comm_world))

    def prog(lib, task):
        w = task.world_rank
        member = 1 <= w <= p
        sub = yield from lib.comm_split(
            task, lib.comm_world, 7 if member else UNDEFINED,
            key=(w % 2) * 100 - w)
        if not member:
            assert sub is COMM_NULL
            return None
        assert list(sub.group.world_ranks) == sub_members(p)
        out = yield from body(lib, task, sub)
        return out

    return run_native(p + 2, prog)


def member_results(where, p, run):
    if where == "world":
        return run.results
    return [run.results[w] for w in sub_members(p)]


@pytest.mark.parametrize("where", ["world", "sub"])
@pytest.mark.parametrize("p", SIZES)
def test_allgather_and_iallgather_blocks_in_rank_order(p, where):
    def body(lib, task, comm):
        me = lib.comm_rank(task, comm)
        blocking = yield from lib.allgather(task, comm, block(me))
        req = yield from lib.iallgather(task, comm, block(p - 1 - me))
        nonblocking = yield from lib.wait(task, req)
        return blocking, nonblocking

    run = on_comm(where, p, body)
    for blocking, nonblocking in member_results(where, p, run):
        assert len(blocking) == len(nonblocking) == p
        for r in range(p):
            assert same(blocking[r], block(r)), (r, blocking[r])
            assert same(nonblocking[r], block(p - 1 - r)), (r, nonblocking[r])


@pytest.mark.parametrize("where", ["world", "sub"])
@pytest.mark.parametrize("p", SIZES)
def test_comm_split_groups_and_key_order(p, where):
    """Three colours plus one opted-out rank; keys reverse the order."""

    def body(lib, task, comm):
        me = lib.comm_rank(task, comm)
        color = UNDEFINED if me == p // 2 else me % 3
        new = yield from lib.comm_split(task, comm, color, key=-me)
        if new is COMM_NULL:
            return None
        return [comm.rank_of(w) for w in new.group.world_ranks]

    run = on_comm(where, p, body)
    for me, got in enumerate(member_results(where, p, run)):
        if me == p // 2:
            assert got is None
        else:
            assert got == [r for r in reversed(range(p))
                           if r % 3 == me % 3 and r != p // 2]


@pytest.mark.parametrize("where", ["world", "sub"])
@pytest.mark.parametrize("p", SIZES)
def test_win_create_gathers_per_rank_sizes(p, where):
    def body(lib, task, comm):
        me = lib.comm_rank(task, comm)
        win = yield from lib.win_create(task, comm, 2 * me + 1)
        return win

    wins = member_results(where, p, on_comm(where, p, body))
    assert all(w is wins[0] for w in wins)
    assert {r: len(b) for r, b in wins[0].buffers.items()} == {
        r: 2 * r + 1 for r in range(p)}


@pytest.mark.parametrize("p", SIZES)
def test_bruck_message_and_byte_pins(p):
    """ceil(log2 p) messages per rank; round k's message from rank r to
    r - 2^k carries the blocks of r .. r + min(2^k, p - 2^k) - 1 and
    costs exactly the sum of their sizes — no per-message header."""

    def prog(lib, task):
        out = yield from lib.allgather(task, lib.comm_world,
                                       block(task.world_rank))
        return out

    stats = run_native(p, prog).network.stats
    sizes = [payload_nbytes(block(r)) for r in range(p)]
    assert stats.messages == p * ceil_log2(p)
    assert stats.bytes == (p - 1) * sum(sizes)
    pairs = {}
    for k in range(ceil_log2(p)):
        d = 1 << k
        for r in range(p):
            pairs[(r, (r - d) % p)] = sum(
                sizes[(r + i) % p] for i in range(min(d, p - d)))
    assert dict(stats.pair_bytes) == pairs
    assert set(stats.pair_messages.values()) <= {1}


def test_two_world_splits_at_1024_ranks_cost_p_log_p():
    """The scaling guard: a ring allgather makes this 2 * 1024 * 1023
    messages (and half a minute of host time)."""

    def prog(lib, task):
        w = task.world_rank
        row = yield from lib.comm_split(task, lib.comm_world, w // 32, key=w)
        col = yield from lib.comm_split(task, lib.comm_world, w % 32, key=w)
        return row.size, col.size

    run = run_native(1024, prog)
    assert run.network.stats.messages == 2 * 1024 * 10
    assert set(run.results) == {(32, 32)}
