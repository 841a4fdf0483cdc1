"""The fabric's in-flight index against a brute-force recount.

``Network`` keeps one FIFO per (src, dst) pair *with traffic in flight*
and drops it when it empties; MANA's quiesce, teardown and deadlock
oracles read that index on every rank in every checkpoint round.  The
property drives random inject / deliver / fault-drop / fault-delay /
purge sequences and recounts every accessor from a plain list after
each step; the structural check pins that the index is sized by what is
in flight, not by the pairs that ever talked.
"""

from hypothesis import given, settings, strategies as st

from repro.des import Scheduler
from repro.hosts import TESTBOX_MN
from repro.simmpi.runner import run_native
from repro.simnet import Message, Network

NRANKS = 4
RANKS = st.integers(min_value=0, max_value=NRANKS - 1)

STEP = st.one_of(
    st.tuples(
        st.just("inject"), RANKS, RANKS,
        st.integers(min_value=0, max_value=5),        # context id
        st.integers(min_value=0, max_value=4096),     # nbytes
        st.one_of(
            st.none(),
            st.just(("drop",)),
            st.tuples(st.just("delay"),
                      st.floats(min_value=0.0, max_value=5e-5)),
        ),
    ),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=2e-5)),
    st.tuples(st.just("purge")),
)


def _recount(net, model):
    """Every accessor equals its definition over the plain list."""
    assert net.in_flight_count() == len(model)
    assert net.pending_messages() == model          # msg-id order
    for dst in (None, *range(NRANKS)):
        assert net.app_in_flight(dst) == [
            m for m in model
            if m.context_id % 2 == 0 and dst in (None, m.dst)
        ]
        for src in (None, *range(NRANKS)):
            assert net.in_flight_bytes(src, dst) == sum(
                m.nbytes for m in model
                if src in (None, m.src) and dst in (None, m.dst)
            )


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(STEP, max_size=40))
def test_index_matches_brute_force_recount(steps):
    sched = Scheduler()
    net = Network(sched, TESTBOX_MN, NRANKS)
    model = []          # in flight, in injection (= msg-id) order
    next_action = []
    net.set_fault_filter(lambda msg: next_action.pop())
    for r in range(NRANKS):
        # a purged or dropped message reaching an endpoint fails here
        net.attach_endpoint(r, model.remove)
    dropped = 0
    for step in steps:
        if step[0] == "inject":
            _, src, dst, ctx, nbytes, action = step
            msg = Message(src, dst, ctx, 0, None, nbytes)
            next_action.append(action)
            net.inject(msg)
            if action == ("drop",):
                dropped += 1
            else:
                model.append(msg)
        elif step[0] == "advance":
            sched.run(until=sched.now + step[1])
        else:
            assert net.purge_in_flight() == len(model)
            model.clear()
        _recount(net, model)
        assert net.dropped_messages == dropped
    sched.run()
    _recount(net, [])
    assert model == []
    net.assert_empty()


def test_index_is_sized_by_traffic_in_flight():
    """After a 64-rank all-pairs exchange (4032 pairs talked) drains,
    the index holds no per-pair entry at all.  The blocks are longer
    than ``ALLTOALL_SHORT_MSG``: shorter ones go by Bruck's algorithm,
    where only 6 peers per rank ever talk."""
    p = 64

    def prog(lib, task):
        row = [(task.world_rank, j, "#" * 300) for j in range(p)]
        out = yield from lib.alltoall(task, lib.comm_world, row)
        return out

    run = run_native(p, prog)
    net = run.network
    assert len(net.stats.pair_messages) == p * (p - 1)
    assert net.in_flight_peak > 0
    assert net.in_flight_count() == 0
    assert sum(len(queues) for queues in net._in_flight) == 0
    assert net.pending_messages() == [] and net.app_in_flight() == []
