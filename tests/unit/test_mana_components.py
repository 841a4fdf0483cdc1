"""Unit tests for MANA's component modules: virtual tables, counters,
drain buffer, request manager, Fortran constants, GIDs, FS register."""

import math

import numpy as np
import pytest

from repro.errors import DrainError, ManaError, RestartError
from repro.hosts import CORI_HASWELL, CORI_KNL, TESTBOX
from repro.mana.buffers import BufferedMessage, DrainBuffer
from repro.mana.config import FsTier, ManaConfig, VtableBackend
from repro.mana.counters import PairwiseCounters
from repro.mana.fortran import (
    FortranAddr,
    FortranConstantResolver,
    FortranLinkage,
)
from repro.mana.binding import LowerHalfBinding
from repro.mana.fsreg import fs_switch_cost, lower_half_call_cost, resolve_fs_tier
from repro.mana.gid import comm_gid, comm_gid_from_world_ranks
from repro.mana.requests import NullMark, VirtualRequestManager, VReqKind
from repro.mana.vtables import VirtualTable
from repro.simmpi.comm import RealComm
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, Status
from repro.simmpi.group import Group
from repro.simmpi.request import RealRequest, RequestKind
from repro.util.serde import dumps

CFG = ManaConfig.feature_2pc()


class TestVirtualTable:
    def test_create_lookup_delete(self):
        t = VirtualTable("t", LowerHalfBinding(CFG, TESTBOX))
        vid, c1 = t.create("real-A")
        real, c2 = t.lookup(vid)
        assert real == "real-A"
        assert c1 > 0 and c2 > 0
        t.delete(vid)
        assert vid not in t

    def test_lookup_unmapped_raises(self):
        t = VirtualTable("t", LowerHalfBinding(CFG, TESTBOX))
        with pytest.raises(ManaError, match="not mapped"):
            t.lookup(99)

    def test_rebind_requires_existing(self):
        t = VirtualTable("t", LowerHalfBinding(CFG, TESTBOX))
        vid, _ = t.create("old")
        t.rebind(vid, "new")
        assert t.lookup(vid)[0] == "new"
        with pytest.raises(ManaError):
            t.rebind(12345, "x")

    def test_vids_never_reused(self):
        t = VirtualTable("t", LowerHalfBinding(CFG, TESTBOX))
        vid1, _ = t.create("a")
        t.delete(vid1)
        vid2, _ = t.create("b")
        assert vid2 != vid1

    def test_map_cost_grows_with_size_hash_does_not(self):
        map_cfg = CFG.but(vtable=VtableBackend.ORDERED_MAP)
        hash_cfg = CFG.but(vtable=VtableBackend.HASH)
        tm = VirtualTable("m", LowerHalfBinding(map_cfg, TESTBOX))
        th = VirtualTable("h", LowerHalfBinding(hash_cfg, TESTBOX))
        for _ in range(1024):
            tm.create("x")
            th.create("x")
        _, map_cost = tm.lookup(1)
        _, hash_cost = th.lookup(1)
        assert map_cost > hash_cost
        tm_small = VirtualTable("m2", LowerHalfBinding(map_cfg, TESTBOX))
        tm_small.create("x")
        _, small_cost = tm_small.lookup(1)
        assert map_cost > small_cost

    def test_hash_prices_every_operation_the_same(self):
        binding = LowerHalfBinding(CFG.but(vtable=VtableBackend.HASH), TESTBOX)
        want = binding.mana_sw_time(CFG.overheads.hash_lookup)
        t = VirtualTable("h", binding)
        costs = [t.create("x")[1] for _ in range(9)]
        costs += [t.lookup(3)[1], t.try_lookup(99)[1], t.delete(3)]
        assert costs == [want] * 12
        assert (t.inserts, t.lookups, t.deletes, t.peak_size) == (9, 2, 1, 9)

    def test_map_prices_the_table_as_each_operation_leaves_it(self):
        cfg = CFG.but(vtable=VtableBackend.ORDERED_MAP)
        binding = LowerHalfBinding(cfg, TESTBOX)

        def at(n):  # the modeled cost of one operation on n entries
            levels = max(1.0, math.log2(max(2, n)))
            return binding.mana_sw_time(
                cfg.overheads.map_lookup_per_level * levels)

        t = VirtualTable("m", binding)
        # an insert is priced *after* the entry went in
        assert [t.create("x")[1] for _ in range(5)] == [
            at(n) for n in (1, 2, 3, 4, 5)]
        assert t.lookup(2)[1] == at(5)
        # a delete is priced *after* the pop: 5 -> 4 entries
        assert t.delete(2) == at(4) != at(5)
        assert t.lookup(1)[1] == at(4)
        with pytest.raises(ManaError, match="delete of unmapped"):
            t.delete(2)
        assert (t.inserts, t.lookups, t.deletes, t.peak_size) == (5, 2, 2, 5)

    def test_peak_size_tracked(self):
        t = VirtualTable("t", LowerHalfBinding(CFG, TESTBOX))
        vids = [t.create("x")[0] for _ in range(5)]
        for v in vids:
            t.delete(v)
        assert t.peak_size == 5
        assert len(t) == 0


class TestPairwiseCounters:
    @pytest.mark.parametrize("peer", [-1, 4])
    def test_out_of_range_peer_is_a_typed_error_not_an_alias(self, peer):
        # numpy would fold key -1 onto world rank 3's row
        c = PairwiseCounters(4, rank=2)
        c.on_receive(peer, 0)
        with pytest.raises(DrainError, match=rf"rank 2: .*peer {peer} "):
            c.deficit_from(np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(DrainError, match="outside the world"):
            c.snapshot()

    def test_send_receive_accounting(self):
        c = PairwiseCounters(4)
        c.on_send(2, 100)
        c.on_send(2, 50)
        c.on_receive(1, 30)
        assert c.sent == {2: [150, 2]}
        assert c.received == {1: [30, 1]}
        assert c.total_sent() == (150, 2) and c.total_received() == (30, 1)

    def test_deficit_computation(self):
        c = PairwiseCounters(3)
        c.on_receive(0, 40)
        # what each peer claims it sent to me: (bytes, messages)
        expected = np.array([(100, 2), (0, 0), (25, 1)])
        assert c.deficit_from(expected) == {0: (60, 1), 2: (25, 1)}

    def test_zero_byte_messages_are_visible(self):
        # a barrier token has zero bytes but must still be drained
        c = PairwiseCounters(2)
        assert c.deficit_from(np.array([(0, 0), (0, 1)])) == {1: (0, 1)}

    def test_over_receive_is_an_error(self):
        c = PairwiseCounters(2)
        c.on_receive(1, 10)
        with pytest.raises(DrainError, match="more than"):
            c.deficit_from(np.array([(0, 0), (5, 1)]))

    def test_snapshot_restore_roundtrip(self):
        c = PairwiseCounters(3)
        c.on_send(1, 10)
        c.on_receive(2, 20)
        snap = c.snapshot()
        c2 = PairwiseCounters(3)
        c2.restore(snap)
        assert c2.sent == c.sent and c2.received == c.received

    def test_snapshot_keeps_its_dense_format_through_the_sparse_form(self):
        # the image format did not change: four dense per-rank lists of
        # plain ints, byte-identical after restore -> snapshot
        c = PairwiseCounters(5)
        c.on_send(3, 100)
        c.on_send(3, 28)
        c.on_send(1, 0)            # a zero-byte message: bytes 0, messages 1
        c.on_receive(4, 0)
        c.on_receive(0, 7)
        snap = c.snapshot()
        assert snap == {
            "sent": [0, 0, 0, 128, 0],
            "received": [7, 0, 0, 0, 0],
            "sent_msgs": [0, 1, 0, 2, 0],
            "received_msgs": [1, 0, 0, 0, 1],
        }
        assert list(snap) == ["sent", "received", "sent_msgs", "received_msgs"]
        assert all(type(v) is int for row in snap.values() for v in row)
        c2 = PairwiseCounters(5)
        c2.restore(snap)
        assert c2.sent == {1: [0, 1], 3: [128, 2]}
        assert c2.received == {0: [7, 1], 4: [0, 1]}
        assert dumps(c2.snapshot()) == dumps(snap)
        assert c2.sent_pairs().tolist() == c.sent_pairs().tolist()
        # the restored zero-byte message still has to be drained
        expected = np.zeros((5, 2), dtype=np.int64)
        expected[0], expected[4] = (7, 1), (0, 2)
        assert c2.deficit_from(expected) == {4: (0, 1)}

    def test_restore_rejects_another_world_size(self):
        # an image from a different job: a typed error, never a drain
        # that indexes or "balances" against the wrong peers
        snap = PairwiseCounters(3).snapshot()
        c = PairwiseCounters(4, rank=2)
        c.on_send(1, 10)
        with pytest.raises(RestartError, match=r"rank 2\b.* 3 ranks.* has 4\b"):
            c.restore(snap)
        assert c.sent == {1: [10, 1]}   # nothing half-adopted

    def test_sent_pairs_is_one_fresh_typed_row(self):
        c = PairwiseCounters(4)
        c.on_send(2, 100)
        row = c.sent_pairs()
        assert row.shape == (4, 2) and row.dtype == np.int64
        assert row.tolist() == [[0, 0], [0, 0], [100, 1], [0, 0]]
        row.fill(9)                     # the caller's to scribble on
        assert c.sent_pairs().tolist() == [[0, 0], [0, 0], [100, 1], [0, 0]]

    def test_an_idle_rank_costs_nothing_per_world_rank(self):
        import tracemalloc

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            c = PairwiseCounters(1_000_000)
            c.on_send(999_999, 8)
            c.on_receive(123_456, 8)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 4096
        assert c.total_sent() == (8, 1)


class TestDrainBuffer:
    def _msg(self, comm_vid=1, src=0, tag=5, payload="p", nbytes=1):
        return BufferedMessage(comm_vid, src, tag, payload, nbytes)

    def test_match_exact(self):
        b = DrainBuffer()
        b.put(self._msg())
        out = b.match(1, 0, 5)
        assert out is not None
        payload, st = out
        assert payload == "p" and st.source == 0 and st.count == 1
        assert b.match(1, 0, 5) is None  # consumed

    def test_wildcards(self):
        b = DrainBuffer()
        b.put(self._msg(src=3, tag=9))
        assert b.match(1, ANY_SOURCE, ANY_TAG) is not None

    def test_fifo_order_per_key(self):
        b = DrainBuffer()
        b.put(self._msg(payload="first"))
        b.put(self._msg(payload="second"))
        assert b.match(1, 0, 5)[0] == "first"
        assert b.match(1, 0, 5)[0] == "second"

    def test_no_cross_comm_match(self):
        b = DrainBuffer()
        b.put(self._msg(comm_vid=1))
        assert b.match(2, ANY_SOURCE, ANY_TAG) is None

    def test_nbytes_and_snapshot(self):
        b = DrainBuffer()
        b.put(self._msg(nbytes=10))
        b.put(self._msg(nbytes=20))
        assert b.nbytes() == 30
        b2 = DrainBuffer()
        b2.restore(b.snapshot())
        assert len(b2) == 2


class TestVirtualRequestManager:
    def test_two_step_retirement(self):
        """The Section III-A algorithm, step by step."""
        mgr = VirtualRequestManager(LowerHalfBinding(CFG, TESTBOX))
        real = RealRequest(RequestKind.RECV, 2, 0, 1)
        entry, _ = mgr.create(VReqKind.IRECV, comm_vid=1, real=real,
                              peer=0, tag=1)
        assert entry in [e for _v, e in mgr.table.items()]
        # step one: internal completion (e.g. discovered by the drain)
        mgr.complete_internally(entry, "data", Status(source=0, tag=1, count=4))
        assert isinstance(entry.real, NullMark)
        assert entry.vid in mgr.table
        # step two: the application's next Test/Wait retires it
        cost = mgr.retire(entry)
        assert cost > 0
        assert entry.vid not in mgr.table

    def test_double_internal_completion_rejected(self):
        mgr = VirtualRequestManager(LowerHalfBinding(CFG, TESTBOX))
        entry, _ = mgr.create(VReqKind.IRECV, 1, None)
        mgr.complete_internally(entry, "x", None)
        with pytest.raises(ManaError, match="twice"):
            mgr.complete_internally(entry, "y", None)

    def test_no_gc_keeps_entries(self):
        mgr = VirtualRequestManager(LowerHalfBinding(CFG.but(request_gc=False), TESTBOX))
        entry, _ = mgr.create(VReqKind.ISEND, 1, None)
        mgr.retire(entry)
        assert entry.vid in mgr.table  # the growth pathology
        assert entry.consumed

    def test_pending_irecvs_filter(self):
        mgr = VirtualRequestManager(LowerHalfBinding(CFG, TESTBOX))
        live = RealRequest(RequestKind.RECV, 2, 0, 1)
        e1, _ = mgr.create(VReqKind.IRECV, 1, real=live)
        e2, _ = mgr.create(VReqKind.IRECV, 1, real=None)
        mgr.complete_internally(e2, "done", None)
        e3, _ = mgr.create(VReqKind.ISEND, 1, real=live)
        pending = mgr.pending_irecvs()
        assert pending == [e1]

    def test_snapshot_restore(self):
        mgr = VirtualRequestManager(LowerHalfBinding(CFG, TESTBOX))
        live = RealRequest(RequestKind.RECV, 2, 3, 7)
        e1, _ = mgr.create(VReqKind.IRECV, 1, real=live, peer=3, tag=7)
        e2, _ = mgr.create(VReqKind.ICOLL, 1, real=live, icoll_index=0)
        mgr.complete_internally(e2, "payload", None)
        snap = mgr.snapshot()
        mgr2 = VirtualRequestManager(LowerHalfBinding(CFG, TESTBOX))
        mgr2.restore(snap)
        r1, _ = mgr2.lookup(e1.vid)
        r2, _ = mgr2.lookup(e2.vid)
        assert r1.peer == 3 and r1.tag == 7 and r1.real is None  # re-post me
        assert isinstance(r2.real, NullMark) and r2.real.payload == "payload"
        # new vids allocate past restored ones
        e3, _ = mgr2.create(VReqKind.ISEND, 1, None)
        assert e3.vid > max(e1.vid, e2.vid)


class TestFortranConstants:
    def test_resolution_of_named_constant(self):
        linkage = FortranLinkage(0)
        resolver = FortranConstantResolver(linkage)
        addr = linkage.address_of("MPI_IN_PLACE")
        from repro.simmpi.constants import IN_PLACE

        assert resolver.resolve(addr) is IN_PLACE
        assert resolver.translations == 1

    def test_ordinary_values_pass_through(self):
        resolver = FortranConstantResolver(FortranLinkage(0))
        assert resolver.resolve(42) == 42
        assert resolver.resolve("x") == "x"

    def test_stale_incarnation_address_detected(self):
        """The Section III-F corner case: after restart the constants
        live at new addresses; an unrebound resolver must not silently
        misinterpret them."""
        old = FortranLinkage(0)
        new = FortranLinkage(1)
        resolver = FortranConstantResolver(new)
        with pytest.raises(ManaError, match="stale"):
            resolver.resolve(old.address_of("MPI_STATUS_IGNORE"))

    def test_rebind_after_restart(self):
        old = FortranLinkage(0)
        resolver = FortranConstantResolver(old)
        new = FortranLinkage(1)
        resolver.rebind(new)
        from repro.simmpi.constants import STATUS_IGNORE

        assert resolver.resolve(new.address_of("MPI_STATUS_IGNORE")) is STATUS_IGNORE

    def test_addresses_unique_per_incarnation(self):
        a = FortranLinkage(0).address_of("MPI_IN_PLACE")
        b = FortranLinkage(1).address_of("MPI_IN_PLACE")
        assert a.addr != b.addr


class TestGid:
    def test_all_members_agree_locally(self):
        world = Group(range(8))
        comm = RealComm(10, 11, Group([5, 1, 7]))
        # every member computes the same gid with no communication
        assert comm_gid(comm, world) == comm_gid_from_world_ranks((5, 1, 7))

    def test_distinct_memberships_distinct_gids(self):
        a = comm_gid_from_world_ranks((0, 1))
        b = comm_gid_from_world_ranks((0, 2))
        c = comm_gid_from_world_ranks((1, 0))  # order matters (rank order)
        assert len({a, b, c}) == 3

    def test_gid_stable_across_processes(self):
        # must be deterministic (no interpreter hash salt)
        assert comm_gid_from_world_ranks((3, 4, 5)) == comm_gid_from_world_ranks(
            (3, 4, 5)
        )


class TestFsRegister:
    def test_auto_tier_resolves_from_kernel(self):
        cfg = ManaConfig.feature_2pc().but(fs_tier=FsTier.AUTO)
        assert resolve_fs_tier(cfg, CORI_HASWELL) is FsTier.SYSCALL  # 4.12
        assert resolve_fs_tier(cfg, TESTBOX) is FsTier.FSGSBASE     # 5.15

    def test_tier_ordering(self):
        base = ManaConfig.feature_2pc()
        costs = [
            fs_switch_cost(LowerHalfBinding(base.but(fs_tier=t), CORI_HASWELL))
            for t in (FsTier.SYSCALL, FsTier.WORKAROUND, FsTier.FSGSBASE)
        ]
        assert costs[0] > costs[1] > costs[2]

    def test_knl_switch_costs_more_than_haswell(self):
        cfg = ManaConfig.master()
        # KNL's slow cores dominate Haswell's contention factor
        assert fs_switch_cost(LowerHalfBinding(cfg, CORI_KNL)) > fs_switch_cost(
            LowerHalfBinding(cfg, CORI_HASWELL)
        )

    def test_lower_half_call_is_two_switches(self):
        b = LowerHalfBinding(ManaConfig.feature_2pc(), TESTBOX)
        assert lower_half_call_cost(b, 1) == pytest.approx(2 * fs_switch_cost(b))
        assert lower_half_call_cost(b, 3) == pytest.approx(6 * fs_switch_cost(b))

    def test_binding_resolves_tier_once(self):
        cfg = ManaConfig.feature_2pc().but(fs_tier=FsTier.AUTO)
        assert LowerHalfBinding(cfg, CORI_HASWELL).fs_tier is FsTier.SYSCALL
        assert LowerHalfBinding(cfg, TESTBOX).fs_tier is FsTier.FSGSBASE

    def test_binding_describe_names_the_machine(self):
        cfg = ManaConfig.feature_2pc()
        b = LowerHalfBinding(cfg, CORI_HASWELL)
        d = b.describe()
        assert d["machine"] == CORI_HASWELL.name
        assert d["kernel"] == CORI_HASWELL.linux_kernel
        assert d["fs_tier"] == resolve_fs_tier(cfg, CORI_HASWELL).value


class TestConfigPresets:
    def test_presets_match_paper_branch_descriptions(self):
        from repro.mana.config import (
            CollectiveMode,
            CommReconstruction,
            DrainAlgorithm,
        )

        orig = ManaConfig.original()
        assert orig.collective_mode is CollectiveMode.BARRIER_ALWAYS
        assert orig.drain is DrainAlgorithm.COORDINATOR
        assert not orig.virtualize_requests
        assert orig.comm_reconstruction is CommReconstruction.REPLAY_LOG

        master = ManaConfig.master()
        assert master.collective_mode is CollectiveMode.BARRIER_ALWAYS
        assert master.drain is DrainAlgorithm.ALLTOALL
        assert master.virtualize_requests and master.request_gc
        assert master.lambda_frames

        two_pc = ManaConfig.feature_2pc()
        assert two_pc.collective_mode is CollectiveMode.HYBRID
        assert not two_pc.lambda_frames
        assert not two_pc.multi_call_rank_helper

    def test_but_returns_modified_copy(self):
        a = ManaConfig.master()
        b = a.but(request_gc=False)
        assert a.request_gc and not b.request_gc
        assert a.name == b.name
