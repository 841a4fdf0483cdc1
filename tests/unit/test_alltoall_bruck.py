"""The lower half's size-switched ``alltoall`` (and ``ialltoall``):
Bruck's algorithm while every block is at most ``ALLTOALL_SHORT_MSG``
bytes, the pairwise exchange above it.  Results against the transpose
oracle on the world and on a key-permuted sub-communicator, exact
message and byte pins against a per-block reference of Bruck's rounds,
the threshold's two edges, and the typed error for rows that straddle
it — on both collective layers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import MpiProgram
from repro.errors import MpiError
from repro.hosts import TESTBOX
from repro.mana import ManaConfig, ManaSession
from repro.mana.config import CollectiveMode
from repro.simmpi.collectives import ALLTOALL_SHORT_MSG
from repro.simmpi.runner import run_native
from repro.util.serde import payload_nbytes

from test_allgather_bruck import SIZES, ceil_log2, member_results, on_comm, same


def block(r, j):
    """What rank ``r`` sends rank ``j``: type and wire size vary by pair,
    every size at most 64 bytes."""
    return (None, r * 100 + j, (r, j), "x" * (j % 7),
            np.arange((r + j) % 9, dtype=np.float64))[(r + 2 * j) % 5]


def bruck_reference(p, size):
    """Bruck's rounds one block at a time: ``{(src, dst): bytes}`` over
    all rounds, where ``size(r, j)`` is the wire size of the block rank
    ``r`` contributes for rank ``j``.  Also checks that every block ends
    up at its destination."""
    # held[r][i] = (origin, destination) of the block in rank r's slot i
    held = [[(r, (r + i) % p) for i in range(p)] for r in range(p)]
    pair_bytes = {}
    d = 1
    while d < p:
        after = [list(row) for row in held]
        for r in range(p):
            dst = (r + d) % p
            for i in range(p):
                if i & d:
                    after[dst][i] = held[r][i]
                    pair_bytes[(r, dst)] = (pair_bytes.get((r, dst), 0)
                                            + size(*held[r][i]))
        held = after
        d <<= 1
    for r in range(p):
        assert held[r] == [((r - i) % p, r) for i in range(p)]
    return pair_bytes


@pytest.mark.parametrize("where", ["world", "sub"])
@pytest.mark.parametrize("p", SIZES)
def test_alltoall_and_ialltoall_transpose(p, where):
    def body(lib, task, comm):
        me = lib.comm_rank(task, comm)
        blocking = yield from lib.alltoall(
            task, comm, [block(me, j) for j in range(p)])
        req = yield from lib.ialltoall(
            task, comm, [block(p - 1 - me, j) for j in range(p)])
        nonblocking = yield from lib.wait(task, req)
        return blocking, nonblocking

    run = on_comm(where, p, body)
    for me, (blocking, nonblocking) in enumerate(member_results(where, p, run)):
        assert len(blocking) == len(nonblocking) == p
        for r in range(p):
            assert same(blocking[r], block(r, me)), (r, blocking[r])
            assert same(nonblocking[r], block(p - 1 - r, me)), (r, nonblocking[r])


@pytest.mark.parametrize("p", SIZES)
def test_bruck_message_and_byte_pins(p):
    """ceil(log2 p) messages per rank, and each one costs exactly the
    sum of the blocks it forwards — no per-message header."""

    def prog(lib, task):
        out = yield from lib.alltoall(
            task, lib.comm_world, [block(task.world_rank, j) for j in range(p)])
        return out

    stats = run_native(p, prog).network.stats
    pairs = bruck_reference(p, lambda r, j: payload_nbytes(block(r, j)))
    assert stats.messages == p * ceil_log2(p)
    assert stats.bytes == sum(pairs.values())
    assert dict(stats.pair_bytes) == pairs
    assert set(stats.pair_messages.values()) <= {1}


@pytest.mark.parametrize("p", [2, 5, 8, 12])
def test_threshold_edges(p):
    """Blocks of exactly ALLTOALL_SHORT_MSG bytes still go by Bruck; one
    byte more and every pair exchanges directly."""

    def traffic(nbytes):
        def prog(lib, task):
            out = yield from lib.alltoall(
                task, lib.comm_world, [bytes(nbytes)] * p)
            assert out == [bytes(nbytes)] * p
            return None

        return run_native(p, prog).network.stats

    short = traffic(ALLTOALL_SHORT_MSG)
    assert short.messages == p * ceil_log2(p)
    assert short.bytes == ALLTOALL_SHORT_MSG * sum(
        bin(i).count("1") for i in range(p)) * p
    long_ = traffic(ALLTOALL_SHORT_MSG + 1)
    assert long_.messages == p * (p - 1)
    assert long_.bytes == (ALLTOALL_SHORT_MSG + 1) * p * (p - 1)


short_payloads = st.one_of(
    st.none(), st.integers(-2**40, 2**40), st.floats(allow_nan=False),
    st.text(max_size=20), st.binary(max_size=64),
    st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    st.lists(st.integers(0, 255), max_size=8),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20).flatmap(lambda p: st.lists(
    st.lists(short_payloads, min_size=p, max_size=p), min_size=p, max_size=p)))
def test_random_short_rows_against_the_transpose(rows):
    p = len(rows)

    def prog(lib, task):
        out = yield from lib.alltoall(task, lib.comm_world, rows[task.world_rank])
        return out

    run = run_native(p, prog)
    assert run.results == [[rows[r][me] for r in range(p)] for me in range(p)]
    assert run.network.stats.messages == p * ceil_log2(p)


def test_drain_shaped_alltoall_at_1024_ranks_costs_p_log_p():
    """The scaling guard: the pairwise exchange makes this 1024 * 1023
    messages (and half a minute of host time)."""
    p = 1024

    def prog(lib, task):
        w = task.world_rank
        got = yield from lib.alltoall(
            task, lib.comm_world, [(w + j, j) for j in range(p)])
        return got[(w + 1) % p]

    run = run_native(p, prog)
    assert run.network.stats.messages == p * 10
    assert run.results == [((w + 1) % p + w, w) for w in range(p)]


class OneLongRow(MpiProgram):
    """An alltoall whose rows break MPI's matching-signature rule: rank
    ``odd_one``'s row holds one block above the threshold."""

    def __init__(self, rank, odd_one):
        super().__init__(rank)
        self.odd_one = odd_one

    def main(self, api):
        me, p = api.rank, api.size
        row = [(me, j) for j in range(p)]
        if me == self.odd_one:
            row[(me + 2) % p] = "#" * (ALLTOALL_SHORT_MSG + 1)
        out = yield from api.alltoall(row)
        return out


@pytest.mark.parametrize("layer", ["native", "lower_half", "pt2pt_always"])
@pytest.mark.parametrize("p,odd_one", [(2, 0), (3, 2), (5, 0), (8, 3), (8, 7)])
def test_rows_straddling_the_threshold_raise_a_typed_error(p, odd_one, layer):
    """Never a hang and never a bare DeadlockError: some rank's first
    receive sees the other algorithm's message and names both sides."""
    if layer == "native":
        def prog(lib, task):
            row = [(task.world_rank, j) for j in range(p)]
            if task.world_rank == odd_one:
                row[(odd_one + 2) % p] = "#" * (ALLTOALL_SHORT_MSG + 1)
            out = yield from lib.alltoall(task, lib.comm_world, row)
            return out

        run = lambda: run_native(p, prog)
    else:
        cfg = ManaConfig.feature_2pc()
        if layer == "pt2pt_always":
            cfg = cfg.but(collective_mode=CollectiveMode.PT2PT_ALWAYS)
        run = ManaSession(p, lambda r: OneLongRow(r, odd_one), TESTBOX, cfg).run
    with pytest.raises(MpiError, match="straddle ALLTOALL_SHORT_MSG") as err:
        run()
    text = str(err.value)
    assert f"rank {odd_one}" in text  # one of the two ranks it names
    assert "24 bytes" in text         # the short side's largest block
