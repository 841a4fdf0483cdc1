"""Unit tests for the tiered checkpoint store (repro.storage)."""

import pytest

from repro.hosts import TESTBOX, TESTBOX_MN
from repro.storage import (
    TIERS,
    CheckpointStore,
    StoragePolicy,
    policy_by_name,
)
from repro.storage.store import BB_NODE
from repro.util.hashing import stable_hash


def _blob(rank: int, n: int = 64) -> bytes:
    return bytes((rank * 7 + i) % 256 for i in range(n))


def _filled_store(policy, nranks=4, epoch=1, machine=TESTBOX_MN):
    store = CheckpointStore(machine, nranks, policy)
    for r in range(nranks):
        store.put(r, epoch, _blob(r), nbytes=1 << 20,
                  meta={"taken_at": 0.5 + r})
    store.commit_epoch(epoch, now=1.0)
    return store


# ----------------------------------------------------------------------
# policy validation and presets
# ----------------------------------------------------------------------
class TestStoragePolicy:
    def test_presets_by_name(self):
        for name in ("bb_only", "local_only", "partner", "xor4", "ladder"):
            assert policy_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="bb_only"):
            policy_by_name("raid6")

    def test_needs_at_least_one_tier(self):
        with pytest.raises(ValueError, match="no tier"):
            StoragePolicy(name="none", burst_buffer=False)

    def test_parity_requires_node_local(self):
        with pytest.raises(ValueError, match="node_local"):
            StoragePolicy(name="bad", node_local=False, parity_group=4)

    def test_partner_requires_node_local(self):
        with pytest.raises(ValueError, match="node_local"):
            StoragePolicy(name="bad", node_local=False, partner_replica=True,
                          burst_buffer=False)

    def test_parity_group_of_one_rejected(self):
        with pytest.raises(ValueError, match="parity_group"):
            StoragePolicy(name="bad", node_local=True, parity_group=1)

    def test_keep_epochs_floor(self):
        with pytest.raises(ValueError, match="keep_epochs"):
            StoragePolicy(name="bad", keep_epochs=0)

    def test_redundancy_flag(self):
        assert StoragePolicy.bb_only().redundant
        assert StoragePolicy.partner().redundant
        assert StoragePolicy.xor().redundant
        assert not StoragePolicy.local_only().redundant


# ----------------------------------------------------------------------
# write-path cost model
# ----------------------------------------------------------------------
class TestPlanWrite:
    def test_bb_only_reproduces_legacy_cost(self):
        # the golden-timing contract: pre part exactly 0.0, BB part the
        # historical latency + nbytes * sharers / write_bw
        store = CheckpointStore(TESTBOX, 8, StoragePolicy.bb_only())
        nbytes = 3 << 20
        pre, bb = store.plan_write(0, nbytes)
        assert pre == 0.0
        legacy = (TESTBOX.burst_buffer.latency
                  + nbytes * store.sharers / TESTBOX.burst_buffer.write_bw)
        assert bb == legacy

    def test_local_writes_are_cheaper_than_bb(self):
        nbytes = 8 << 20
        local = CheckpointStore(TESTBOX_MN, 4, StoragePolicy.local_only())
        bb = CheckpointStore(TESTBOX_MN, 4, StoragePolicy.bb_only())
        assert sum(local.plan_write(0, nbytes)) < sum(bb.plan_write(0, nbytes))

    def test_partner_costs_more_than_local(self):
        nbytes = 8 << 20
        local = CheckpointStore(TESTBOX_MN, 4, StoragePolicy.local_only())
        partner = CheckpointStore(TESTBOX_MN, 4, StoragePolicy.partner())
        assert (sum(partner.plan_write(0, nbytes))
                > sum(local.plan_write(0, nbytes)))

    def test_ladder_pays_both_parts(self):
        store = CheckpointStore(TESTBOX_MN, 4, StoragePolicy.ladder())
        pre, bb = store.plan_write(0, 1 << 20)
        assert pre > 0.0 and bb > 0.0


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_partner_is_next_node_wrapping(self):
        store = CheckpointStore(TESTBOX_MN, 4, StoragePolicy.partner())
        assert store.partner_node(0) == 1
        assert store.partner_node(3) == 0

    def test_parity_node_outside_group(self):
        store = CheckpointStore(TESTBOX_MN, 8, StoragePolicy.xor(4))
        # group 0 = ranks 0..3 on nodes 0..3; parity lands on node 4
        assert store.parity_node(0) == 4
        members = store.group_members(0)
        assert store.parity_node(0) not in [store.node_of(r) for r in members]

    def test_bb_copies_live_off_node(self):
        store = _filled_store(StoragePolicy.bb_only())
        assert store._copies[(1, 0, "bb")].node == BB_NODE


# ----------------------------------------------------------------------
# manifests, commit, GC
# ----------------------------------------------------------------------
class TestManifests:
    def test_epoch_not_durable_until_committed(self):
        store = CheckpointStore(TESTBOX_MN, 2, StoragePolicy.partner())
        store.put(0, 1, _blob(0), nbytes=100)
        store.put(1, 1, _blob(1), nbytes=100)
        assert store.committed_epochs() == []
        assert not store.recover(0, 1).ok
        store.commit_epoch(1, now=2.5)
        assert store.committed_epochs() == [1]
        assert store.manifest(1).sealed_at == 2.5

    def test_manifest_records_real_checksums(self):
        store = _filled_store(StoragePolicy.partner())
        entry = store.manifest(1).entries[2]
        assert entry.checksum == stable_hash(_blob(2))
        assert entry.blob_len == 64
        assert entry.tiers == ("local", "partner")
        assert entry.meta["taken_at"] == 2.5

    def test_discard_drops_everything(self):
        store = CheckpointStore(TESTBOX_MN, 2, StoragePolicy.ladder())
        store.put(0, 1, _blob(0), nbytes=100)
        store.discard_epoch(1)
        assert store.manifest(1) is None
        assert not any(k[0] == 1 for k in store._copies)
        assert store.counters["epochs_discarded"] == 1

    def test_gc_keeps_newest_epochs(self):
        store = CheckpointStore(TESTBOX_MN, 2, StoragePolicy.partner())
        for epoch in (1, 2, 3):
            for r in range(2):
                store.put(r, epoch, _blob(r + epoch), nbytes=100)
            store.commit_epoch(epoch, now=float(epoch))
        # keep_epochs=2: epoch 1 superseded and collected
        assert store.committed_epochs() == [3, 2]
        assert store.manifest(1) is None
        assert store.counters["epochs_gced"] == 1

    def test_gc_never_touches_inflight_epoch(self):
        store = CheckpointStore(TESTBOX_MN, 2, StoragePolicy.partner())
        for epoch in (1, 2):
            for r in range(2):
                store.put(r, epoch, _blob(r), nbytes=100)
            store.commit_epoch(epoch, now=float(epoch))
        store.put(0, 3, _blob(0), nbytes=100)  # in flight, not sealed
        store.commit_epoch(4, now=4.0)
        assert store.manifest(3) is not None
        assert not store.manifest(3).sealed

    def test_torn_manifest_excluded_from_durable_set(self):
        store = CheckpointStore(TESTBOX_MN, 2, StoragePolicy.partner())
        for r in range(2):
            store.put(r, 1, _blob(r), nbytes=100)
        store.commit_epoch(1, now=1.0)
        store.arm_manifest_tear(2)
        for r in range(2):
            store.put(r, 2, _blob(r + 1), nbytes=100)
        store.commit_epoch(2, now=2.0)
        assert store.manifest(2).torn
        assert store.committed_epochs() == [1]
        assert not store.recover(0, 2).ok
        assert store.recover(0, 1).ok


# ----------------------------------------------------------------------
# recovery ladder
# ----------------------------------------------------------------------
class TestRecovery:
    def test_round_trip_bit_identical(self):
        store = _filled_store(StoragePolicy.ladder())
        for r in range(4):
            res = store.recover(r, 1)
            assert res.ok and res.blob == _blob(r)
            assert res.source == "local"
            assert res.read_time > 0.0

    def test_ladder_order_local_partner_bb(self):
        store = _filled_store(StoragePolicy.ladder())
        t_local = store.recover(0, 1).read_time
        store.drop_tier("local", rank=0)
        res = store.recover(0, 1)
        assert res.source == "partner" and res.read_time > t_local
        store.drop_tier("partner", rank=0)
        res = store.recover(0, 1)
        assert res.source == "bb"
        store.drop_tier("bb", rank=0)
        assert not store.recover(0, 1).ok

    def test_failed_attempts_still_charged(self):
        store = _filled_store(StoragePolicy.ladder())
        clean = store.recover(0, 1).read_time
        store.corrupt_copy(0, tier="local")
        res = store.recover(0, 1)
        assert res.ok and res.source == "partner"
        assert ("local", "verify_failed") in res.attempts
        assert res.read_time > clean

    def test_xor_parity_rebuild_is_real_xor(self):
        store = _filled_store(StoragePolicy.xor(4))
        store.drop_tier("local", rank=2)
        res = store.recover(2, 1)
        assert res.ok and res.source == "parity"
        assert res.blob == _blob(2)
        assert store.counters["parity_rebuilds"] == 1

    def test_xor_cannot_rebuild_two_losses(self):
        store = _filled_store(StoragePolicy.xor(4))
        store.drop_tier("local", rank=1)
        store.drop_tier("local", rank=2)
        assert not store.recover(1, 1).ok

    def test_corrupt_survivor_blocks_rebuild(self):
        store = _filled_store(StoragePolicy.xor(4))
        store.drop_tier("local", rank=2)
        assert store.corrupt_copy(3, tier="local")
        res = store.recover(2, 1)
        assert not res.ok
        assert store.counters["verify_failed"] >= 1


# ----------------------------------------------------------------------
# fault surface
# ----------------------------------------------------------------------
class TestFaultSurface:
    def test_drop_tier_scoping(self):
        store = _filled_store(StoragePolicy.ladder())
        assert store.drop_tier("local", rank=1) == 1
        assert not store.has_copy(1, 1, "local")
        assert store.has_copy(1, 0, "local")
        assert store.has_copy(1, 1, "partner")

    def test_drop_unknown_tier_rejected(self):
        store = _filled_store(StoragePolicy.ladder())
        with pytest.raises(ValueError, match="unknown tier"):
            store.drop_tier("tape")

    def test_drop_node_takes_hosted_replicas_but_not_bb(self):
        store = _filled_store(StoragePolicy.ladder())
        # node 1 hosts rank 1's local copy AND rank 0's partner replica
        store.drop_node(1)
        assert not store.has_copy(1, 1, "local")
        assert not store.has_copy(1, 0, "partner")
        assert store.has_copy(1, 1, "bb")
        assert store.has_copy(1, 0, "local")

    def test_corrupt_is_silent_and_real(self):
        store = _filled_store(StoragePolicy.local_only())
        good = bytes(store._copies[(1, 0, "local")].blob)
        assert store.corrupt_copy(0)
        bad = bytes(store._copies[(1, 0, "local")].blob)
        assert bad != good and len(bad) == len(good)
        assert store.counters["copies_corrupted"] == 1
        # detection happens on the read path, not at injection time
        assert store.counters["verify_failed"] == 0
        assert not store.recover(0, 1).ok
        assert store.counters["verify_failed"] == 1

    def test_tiers_share_the_blob_they_were_handed(self):
        store = CheckpointStore(TESTBOX_MN, 4, StoragePolicy.ladder())
        blob = _blob(0)
        store.put(0, 1, blob, nbytes=1 << 20, checksum=stable_hash(blob))
        assert all(store._copies[(1, 0, t)].blob is blob
                   for t in ("local", "partner", "bb"))
        assert store.manifest(1).entries[0].checksum == stable_hash(blob)

    @pytest.mark.parametrize("policy,tier,attempts", [
        ("ladder", "local", (("local", "verify_failed"), ("partner", "ok"))),
        ("ladder", "partner", (("local", "ok"),)),
        ("ladder", "bb", (("local", "ok"),)),
        ("xor4", "local", (("local", "verify_failed"), ("parity", "ok"))),
        ("xor4", "parity", (("local", "ok"),)),
    ])
    def test_corruption_replaces_one_copy_and_never_writes_through(
            self, policy, tier, attempts):
        """The tiers of an image share one blob, so damage must land on
        the targeted copy alone: the others stay checksum-valid and
        ``recover`` falls through to them in ladder order."""
        store = _filled_store(policy_by_name(policy))
        handed = {r: store._copies[(1, r, "local")].blob for r in range(4)}
        assert store.corrupt_copy(0, tier=tier)
        for (epoch, rank, t), copy in store._copies.items():
            intact = stable_hash(copy.blob) == store.manifest(1).entries[rank].checksum
            assert intact == ((rank, t) != (0, tier)), (rank, t)
        assert all(handed[r] == _blob(r) for r in range(4))
        res = store.recover(0, 1)
        assert res.ok and res.blob == _blob(0)
        assert res.attempts == attempts
        assert res.source == attempts[-1][0]
        assert store.counters["verify_failed"] == len(attempts) - 1
        # the other members' copies still rebuild / read cleanly
        for r in range(1, 4):
            assert store.recover(r, 1).source == "local"

    def test_summary_shape(self):
        store = _filled_store(StoragePolicy.partner())
        s = store.summary()
        assert s["policy"] == "partner"
        assert s["epochs"] == [1]
        assert s["copies_written"] == 8
        assert set(TIERS) >= set(
            t for e in store.manifest(1).entries.values() for t in e.tiers
        )
