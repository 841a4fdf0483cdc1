"""Unit tests for the network substrate."""

import pytest

from repro.des import Scheduler
from repro.errors import SimulationError
from repro.hosts import TESTBOX, CORI_HASWELL
from repro.simnet import Message, Network
from repro.simnet.oob import COORDINATOR_ID, OobChannel


def make_net(nranks=4, machine=TESTBOX):
    sched = Scheduler()
    net = Network(sched, machine, nranks)
    return sched, net


def attach_sink(net, rank, sink):
    net.attach_endpoint(rank, sink.append)


class TestDelivery:
    def test_message_arrives_with_latency(self):
        sched, net = make_net()
        got = []
        for r in range(4):
            attach_sink(net, r, got if r == 1 else [])
        msg = Message(src=0, dst=1, context_id=0, tag=7, payload=b"x", nbytes=1)
        net.inject(msg)
        assert net.in_flight_count() == 1
        sched.run()
        assert [m.tag for m in got] == [7]
        assert net.in_flight_count() == 0
        # same node (TESTBOX has 8 ranks/node) -> intranode latency
        assert sched.now >= TESTBOX.intranode_latency

    def test_internode_slower_than_intranode(self):
        # ranks 0 and 1 share a node; ranks 0 and 32 do not (Haswell: 32/node)
        t_intra = CORI_HASWELL.intranode_latency
        t_inter = CORI_HASWELL.net_latency
        assert t_inter > t_intra
        sched = Scheduler()
        net = Network(sched, CORI_HASWELL, 64)
        times = {}
        for r in range(64):
            net.attach_endpoint(r, lambda m, r=r: times.__setitem__(r, sched.now))
        net.inject(Message(src=0, dst=1, context_id=0, tag=0, payload=None, nbytes=0))
        net.inject(Message(src=0, dst=32, context_id=0, tag=0, payload=None, nbytes=0))
        sched.run()
        assert times[1] < times[32]

    def test_bandwidth_term_scales_with_size(self):
        sched, net = make_net(2)
        times = {}
        net.attach_endpoint(0, lambda m: None)
        net.attach_endpoint(1, lambda m: times.__setitem__(m.tag, sched.now))
        net.inject(Message(src=0, dst=1, context_id=0, tag=1, payload=None, nbytes=8))
        sched.run()
        t_small = times[1]
        big = 10_000_000
        net.inject(Message(src=0, dst=1, context_id=0, tag=2, payload=None, nbytes=big))
        sched.run()
        t_big = times[2] - t_small
        assert t_big > big / TESTBOX.intranode_bandwidth

    def test_fifo_per_pair(self):
        sched, net = make_net(2)
        got = []
        net.attach_endpoint(0, lambda m: None)
        net.attach_endpoint(1, got.append)
        # a big message injected first must still arrive first (non-overtaking)
        net.inject(Message(src=0, dst=1, context_id=0, tag=1, payload=None,
                           nbytes=50_000_000))
        net.inject(Message(src=0, dst=1, context_id=0, tag=2, payload=None, nbytes=0))
        sched.run()
        assert [m.tag for m in got] == [1, 2]

    def test_inject_requires_endpoint(self):
        sched, net = make_net(2)
        with pytest.raises(SimulationError, match="endpoint"):
            net.inject(Message(src=0, dst=1, context_id=0, tag=0,
                               payload=None, nbytes=0))

    @pytest.mark.parametrize("src,dst", [(0, -1), (0, 4), (-1, 0), (4, 0)])
    def test_inject_refuses_ranks_outside_the_fabric(self, src, dst):
        # dst -1 used to reach rank 3's endpoint and count as pair (0, -1);
        # dst 4 raised a bare IndexError; a pair's channel key would alias
        sched, net = make_net(4)
        got = {r: [] for r in range(4)}
        for r in range(4):
            attach_sink(net, r, got[r])
        with pytest.raises(SimulationError, match=r"outside \[0, 4\)"):
            net.inject(Message(src=src, dst=dst, context_id=0, tag=0,
                               payload=None, nbytes=8))
        sched.run()
        assert all(not msgs for msgs in got.values())
        assert net.in_flight_count() == 0
        assert net.stats.messages == 0 and net.stats.pair_messages == {}


class TestInFlightAccounting:
    def test_in_flight_bytes_by_pair(self):
        sched, net = make_net(3)
        for r in range(3):
            net.attach_endpoint(r, lambda m: None)
        net.inject(Message(src=0, dst=1, context_id=0, tag=0, payload=None, nbytes=10))
        net.inject(Message(src=0, dst=2, context_id=0, tag=0, payload=None, nbytes=20))
        assert net.in_flight_bytes() == 30
        assert net.in_flight_bytes(src=0, dst=1) == 10
        assert net.in_flight_bytes(dst=2) == 20
        sched.run()
        assert net.in_flight_bytes() == 0
        net.assert_empty()

    def test_assert_empty_raises_with_pending(self):
        sched, net = make_net(2)
        net.attach_endpoint(0, lambda m: None)
        net.attach_endpoint(1, lambda m: None)
        net.inject(Message(src=0, dst=1, context_id=0, tag=0, payload=None, nbytes=1))
        with pytest.raises(SimulationError, match="not empty"):
            net.assert_empty()

    def test_purge_drops_in_flight(self):
        sched, net = make_net(2)
        got = []
        net.attach_endpoint(0, lambda m: None)
        net.attach_endpoint(1, got.append)
        net.inject(Message(src=0, dst=1, context_id=0, tag=0, payload=None, nbytes=1))
        assert net.purge_in_flight() == 1
        sched.run()
        assert got == []
        net.assert_empty()

    def test_reset_endpoints_allows_reattach(self):
        sched, net = make_net(2)
        net.attach_endpoint(0, lambda m: None)
        with pytest.raises(SimulationError):
            net.attach_endpoint(0, lambda m: None)
        net.reset_endpoints()
        net.attach_endpoint(0, lambda m: None)  # no raise

    def test_stats_accumulate(self):
        sched, net = make_net(2)
        net.attach_endpoint(0, lambda m: None)
        net.attach_endpoint(1, lambda m: None)
        for i in range(5):
            net.inject(Message(src=0, dst=1, context_id=0, tag=i,
                               payload=None, nbytes=100))
        sched.run()
        assert net.stats.messages == 5
        assert net.stats.bytes == 500

    def test_channel_records_read_as_pair_dicts(self):
        sched, net = make_net(3)
        for r in range(3):
            net.attach_endpoint(r, lambda m: None)
        for src, dst, nbytes in [(0, 1, 10), (2, 0, 5), (0, 1, 7)]:
            net.inject(Message(src=src, dst=dst, context_id=0, tag=0,
                               payload=None, nbytes=nbytes))
        sched.run()
        assert net.stats.pair_messages == {(0, 1): 2, (2, 0): 1}
        assert net.stats.pair_bytes == {(0, 1): 17, (2, 0): 5}
        assert len(net.stats.channels) == 2


class TestOob:
    def test_coordinator_round_trip(self):
        sched = Scheduler()
        oob = OobChannel(sched)
        coord_box = oob.register(COORDINATOR_ID)
        rank_box = oob.register(0)

        def coordinator():
            proc = sched.procs[0]
            msg = yield from coord_box.get(proc)
            assert msg == ("hello", 0)
            oob.send(0, "ack")

        sched.spawn(coordinator(), "coord", daemon=True)
        got = []

        def rank():
            proc = sched.procs[1]
            oob.send(COORDINATOR_ID, ("hello", 0))
            reply = yield from rank_box.get(proc)
            got.append((sched.now, reply))

        sched.spawn(rank(), "rank0")
        sched.run()
        assert got[0][1] == "ack"
        # two OOB hops must cost at least twice the channel latency
        assert got[0][0] >= 2 * oob.latency

    def test_coordinator_serializes_incasts(self):
        sched = Scheduler()
        oob = OobChannel(sched)
        box = oob.register(COORDINATOR_ID)
        arrivals = []

        def coordinator():
            proc = sched.procs[0]
            for _ in range(10):
                yield from box.get(proc)
                arrivals.append(sched.now)

        sched.spawn(coordinator(), "coord")
        for i in range(10):
            oob.send(COORDINATOR_ID, i)
        sched.run()
        # service time spaces the arrivals out
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert all(g >= oob.coordinator_service_time * 0.99 for g in gaps)
