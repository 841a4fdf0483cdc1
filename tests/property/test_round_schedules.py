"""Collective round schedules pair up, and finish.

Every ``simmpi`` collective runs one rank's *round schedule* — rounds
``(dst, src, offset, x)`` from a plan in ``repro.simmpi.collectives`` —
through the one round executor.  Exhaustively over p = 1..17 and every
root: each send from rank a to rank b with tag offset t meets exactly
one receive by b from a with offset t, and replaying the schedules with
eager sends and blocking receives lets every rank finish (no cyclic
wait).  Round counts are the algorithms' own: ``ceil(log2 p)`` for the
dissemination barrier and both Bruck variants, ``p - 1`` for the
pairwise exchange.  And a library destroyed in the middle of a
collective still fails the rank that touches it next with
:class:`MpiInvalidHandle`, never a hang.
"""

import itertools
from collections import Counter

import pytest

from repro.errors import MpiInvalidHandle
from repro.hosts import TESTBOX
from repro.simmpi import collectives as coll
from repro.simmpi.ops import SUM
from repro.simmpi.runner import run_native

PLANS = (coll.dissemination, coll.binomial_down, coll.binomial_up,
         coll.recursive_doubling, coll.bruck_allgather, coll.bruck_alltoall,
         coll.pairwise, coll.chain)
SIZES = range(1, 18)


def rounds(plan, p, me, root):
    """Rank ``me``'s rounds in a world where local rank = world rank."""
    return list(plan(tuple(range(p)), me, root))


def replay(plan, p, root):
    """Run every rank's rounds with eager sends and blocking receives;
    returns the per-rank round counts once nobody can move, and the
    messages sent but never received."""
    todo = [rounds(plan, p, me, root) for me in range(p)]
    pos, sent_this_round = [0] * p, [False] * p
    wire = Counter()  # (src, dst, offset) -> messages not yet received
    moved = True
    while moved:
        moved = False
        for me in range(p):
            while pos[me] < len(todo[me]):
                dst, src, off, _x = todo[me][pos[me]]
                assert dst >= 0 or src >= 0, "a round with neither side"
                assert 0 <= off < coll.TAG_STRIDE
                if dst >= 0 and not sent_this_round[me]:
                    assert dst != me
                    wire[me, dst, off] += 1
                    sent_this_round[me] = True
                if src >= 0:
                    if not wire[src, me, off]:
                        break
                    wire[src, me, off] -= 1
                pos[me] += 1
                sent_this_round[me] = False
                moved = True
    return pos, +wire, [len(r) for r in todo]


@pytest.mark.parametrize("plan", PLANS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("p", SIZES)
def test_every_send_meets_one_receive_and_every_rank_finishes(plan, p):
    for root in range(p):
        done, unreceived, total = replay(plan, p, root)
        assert done == total, f"root {root}: ranks stuck at rounds {done}"
        assert not unreceived, f"root {root}: never received {unreceived}"


@pytest.mark.parametrize("p", SIZES)
def test_round_counts(p):
    log2p = (p - 1).bit_length()  # ceil(log2 p)
    for me in range(p):
        for plan in (coll.dissemination, coll.bruck_allgather,
                     coll.bruck_alltoall):
            assert len(rounds(plan, p, me, 0)) == log2p
        assert len(rounds(coll.pairwise, p, me, 0)) == p - 1


def test_schedules_live_on_the_communicator_and_are_built_once():
    p = 6
    seen = {}

    def prog(lib, task):
        for _ in range(3):
            yield from lib.allreduce(task, lib.comm_world, 1, SUM)
        seen[task.world_rank] = coll.schedule(
            lib.comm_world, coll.recursive_doubling, task.world_rank)
        return lib.comm_world

    run = run_native(p, prog, TESTBOX)
    world = run.results[0]
    assert set(world.schedules) == {
        (coll.recursive_doubling, me, 0) for me in range(p)}
    for me in range(p):
        assert world.schedules[coll.recursive_doubling, me, 0] is seen[me]
        assert list(seen[me]) == rounds(coll.recursive_doubling, p, me, 0)
    assert run.results == [world] * p


CALLS = {
    "barrier": lambda lib, t: lib.barrier(t, lib.comm_world),
    "bcast": lambda lib, t: lib.bcast(t, lib.comm_world, "x", 0),
    "allreduce": lambda lib, t: lib.allreduce(t, lib.comm_world, 1, SUM),
    "allgather": lambda lib, t: lib.allgather(t, lib.comm_world, 1),
    "alltoall": lambda lib, t: lib.alltoall(t, lib.comm_world, [1] * 5),
}


@pytest.mark.parametrize("name,nth", [
    # the n-th message on the fabric tears the library down under its
    # sender, who next posts a receive (or, for the bcast root, sends)
    ("barrier", 1), ("barrier", 7), ("bcast", 1), ("allreduce", 1),
    ("allreduce", 6), ("allgather", 4), ("alltoall", 1), ("alltoall", 9),
])
def test_destroyed_mid_collective_raises_invalid_handle(name, nth):
    p = 5

    def prog(lib, task):
        if task.world_rank == 0:
            count = itertools.count(1)

            def destroy_at_nth(_msg):
                if next(count) == nth:
                    lib.destroy()
                    return ("drop",)
                return None

            lib.network.set_fault_filter(destroy_at_nth)
        return (yield from CALLS[name](lib, task))

    with pytest.raises(MpiInvalidHandle, match="destroyed"):
        run_native(p, prog, TESTBOX)
