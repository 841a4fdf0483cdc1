"""The tiered checkpoint store: copies, manifests, costs, and damage.

One :class:`CheckpointStore` per job models every physical copy of every
rank's serialized checkpoint image:

* **local** — node-local scratch on the rank's own node (dies with it),
* **partner** — a replica pushed to the next node over the network,
* **parity** — one XOR block per group of ranks (diskless-checkpointing
  style: any single lost member is rebuildable from the survivors),
* **bb** — the shared burst buffer (off-node, survives node loss).

Copies are real bytes: the XOR parity block is the actual XOR of the
blobs, corruption flips a real byte, and every read on the recovery path
is verified against the BLAKE2 content checksum recorded in the epoch's
manifest.  Costs come from the machine model (``repro.hosts``) and are
returned as plain floats; the *protocol* layer charges them in virtual
time (this module never touches the scheduler, so fault-free timing stays
bit-identical for the legacy ``bb_only`` policy).

Checksum verification itself is charged zero extra virtual time: the
hash pipelines with the streaming read (the blob passes through the CPU
anyway), so its cost is hidden under the tier's bandwidth term.

Durability protocol: ranks :meth:`~CheckpointStore.put` their blobs
during phase 2 of the checkpoint; the coordinator's commit point calls
:meth:`~CheckpointStore.commit_epoch`, which seals the manifest (or marks
it torn, if a torn-write fault was armed) and garbage-collects superseded
epochs.  An aborted cycle calls :meth:`~CheckpointStore.discard_epoch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.hosts.machine import MachineSpec
from repro.util.hashing import stable_hash

#: tier names in recovery-ladder order (cheapest/fastest first)
TIERS = ("local", "partner", "bb", "parity")

#: pseudo-node hosting burst-buffer copies (never hit by drop_node)
BB_NODE = -1


@dataclass
class StoredCopy:
    """One physical copy of one rank's blob on one tier."""

    rank: int
    epoch: int
    tier: str
    node: int                 # hosting node, BB_NODE for the burst buffer
    # real bytes.  The tiers of one image share one immutable ``bytes``
    # (only the parity accumulator is a private ``bytearray``), so damage
    # to a copy replaces its blob and never writes through it
    blob: Union[bytes, bytearray]


@dataclass
class ManifestEntry:
    """What the manifest records about one rank's image in one epoch."""

    checksum: int             # BLAKE2 over the serialized blob
    blob_len: int             # genuine serialized length, bytes
    nbytes: int               # modeled on-disk size (blob + declared + base)
    tiers: Tuple[str, ...]    # tiers holding a copy at write time
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Manifest:
    """Per-epoch versioned manifest: the unit of durability."""

    epoch: int
    entries: Dict[int, ManifestEntry] = field(default_factory=dict)
    sealed_at: Optional[float] = None   # virtual time of the commit point
    torn: bool = False                  # torn write: manifest unreadable

    @property
    def sealed(self) -> bool:
        return self.sealed_at is not None

    @property
    def usable(self) -> bool:
        return self.sealed and not self.torn


@dataclass
class RecoverResult:
    """Outcome of one rank's image recovery attempt at one epoch."""

    ok: bool
    rank: int
    epoch: int
    blob: Optional[bytes] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    nbytes: int = 0
    read_time: float = 0.0    # virtual seconds spent, failed attempts included
    source: Optional[str] = None            # tier that yielded good bytes
    attempts: Tuple[Tuple[str, str], ...] = ()   # (tier, outcome) in order


class CheckpointStore:
    """All checkpoint copies of one job, across tiers and epochs."""

    def __init__(
        self,
        machine: MachineSpec,
        nranks: int,
        policy,
        tracer=None,
    ):
        self.machine = machine
        self.nranks = nranks
        self.policy = policy
        self.tracer = tracer
        self.nnodes = (nranks + machine.ranks_per_node - 1) // machine.ranks_per_node
        #: ranks streaming concurrently per node (shared tier bandwidth)
        self.sharers = min(machine.ranks_per_node, nranks)
        #: (epoch, rank, tier) -> StoredCopy   (parity copies live separately)
        self._copies: Dict[Tuple[int, int, str], StoredCopy] = {}
        #: (epoch, group) -> StoredCopy  (rank field = group id)
        self._parity: Dict[Tuple[int, int], StoredCopy] = {}
        self._manifests: Dict[int, Manifest] = {}
        self._armed_tears: Set[int] = set()
        self.counters: Dict[str, int] = {
            "copies_written": 0,
            "epochs_committed": 0,
            "epochs_discarded": 0,
            "epochs_gced": 0,
            "verify_failed": 0,
            "parity_rebuilds": 0,
            "copies_dropped": 0,
            "copies_corrupted": 0,
            "manifests_torn": 0,
        }

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def node_of(self, rank: int) -> int:
        return self.machine.node_of(rank)

    def partner_node(self, node: int) -> int:
        """Replicas go to the next node over (wrapping)."""
        return (node + 1) % self.nnodes

    def group_of(self, rank: int) -> int:
        return rank // self.policy.parity_group

    def group_members(self, group: int) -> List[int]:
        g = self.policy.parity_group
        return list(range(group * g, min((group + 1) * g, self.nranks)))

    def parity_node(self, group: int) -> int:
        """The parity block lives on the node after the group's last
        member, so a node loss inside the group never takes the parity."""
        last = self.group_members(group)[-1]
        return (self.node_of(last) + 1) % self.nnodes

    # ------------------------------------------------------------------
    # write path (costs returned, charged by the caller)
    # ------------------------------------------------------------------
    def plan_write(self, rank: int, nbytes: int) -> Tuple[float, float]:
        """(pre-BB seconds, BB seconds) to place one rank's ``nbytes``
        on every configured tier.

        Split so the caller can apply burst-buffer fault fractions to the
        BB portion only.  For the legacy ``bb_only`` policy the pre-BB
        part is exactly 0.0 and the BB part reproduces the historical
        ``latency + nbytes * sharers / write_bw`` bit-for-bit.
        """
        m = self.machine
        pol = self.policy
        pre = 0.0
        if pol.node_local:
            pre += m.local_scratch.write_time(nbytes, self.sharers)
        if pol.partner_replica:
            # push over the network, then the partner's scratch absorbs it
            pre += (m.net_latency + nbytes / m.net_bandwidth
                    + m.local_scratch.write_time(nbytes, self.sharers))
        if pol.parity_group:
            g = len(self.group_members(self.group_of(rank)))
            # streaming XOR accumulate + ship to the parity node + this
            # rank's 1/g share of writing the parity block
            pre += (nbytes / m.parity_xor_bw
                    + m.net_latency + nbytes / m.net_bandwidth
                    + m.local_scratch.write_time(nbytes, self.sharers) / g)
        bb = m.burst_buffer.write_time(nbytes, self.sharers) if pol.burst_buffer else 0.0
        return pre, bb

    def put(
        self,
        rank: int,
        epoch: int,
        blob: bytes,
        nbytes: int,
        meta: Optional[Dict[str, Any]] = None,
        now: float = 0.0,
        checksum: Optional[int] = None,
    ) -> None:
        """Register one rank's fully-written blob on every configured
        tier and record it in the epoch's (unsealed) manifest.

        The tiers hold ``blob`` itself, not copies of it.  ``checksum``
        is its :func:`stable_hash` when the caller already has it."""
        pol = self.policy
        tiers: List[str] = []
        if pol.node_local:
            self._copies[(epoch, rank, "local")] = StoredCopy(
                rank=rank, epoch=epoch, tier="local",
                node=self.node_of(rank), blob=blob)
            tiers.append("local")
        if pol.partner_replica:
            self._copies[(epoch, rank, "partner")] = StoredCopy(
                rank=rank, epoch=epoch, tier="partner",
                node=self.partner_node(self.node_of(rank)), blob=blob)
            tiers.append("partner")
        if pol.burst_buffer:
            self._copies[(epoch, rank, "bb")] = StoredCopy(
                rank=rank, epoch=epoch, tier="bb",
                node=BB_NODE, blob=blob)
            tiers.append("bb")
        if pol.parity_group:
            group = self.group_of(rank)
            key = (epoch, group)
            acc = self._parity.get(key)
            if acc is None:
                self._parity[key] = StoredCopy(
                    rank=group, epoch=epoch, tier="parity",
                    node=self.parity_node(group), blob=bytearray(blob))
            else:
                acc.blob = _xor_blobs(acc.blob, blob)
            tiers.append("parity")

        manifest = self._manifests.setdefault(epoch, Manifest(epoch=epoch))
        manifest.entries[rank] = ManifestEntry(
            checksum=stable_hash(blob) if checksum is None else checksum,
            blob_len=len(blob),
            nbytes=nbytes,
            tiers=tuple(tiers),
            meta=dict(meta or {}),
        )
        self.counters["copies_written"] += len(tiers)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("storage", "put", rank=rank, epoch=epoch,
                             tiers=tiers, nbytes=nbytes)

    # ------------------------------------------------------------------
    # durability protocol
    # ------------------------------------------------------------------
    def commit_epoch(self, epoch: int, now: float = 0.0) -> Manifest:
        """Seal the epoch's manifest at the coordinator's commit point
        (honouring an armed torn-write fault), then GC old epochs."""
        manifest = self._manifests.setdefault(epoch, Manifest(epoch=epoch))
        manifest.sealed_at = now
        if epoch in self._armed_tears:
            self._armed_tears.discard(epoch)
            manifest.torn = True
            self.counters["manifests_torn"] += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit("storage", "manifest_torn", epoch=epoch)
        else:
            self.counters["epochs_committed"] += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit("storage", "epoch_sealed", epoch=epoch,
                                 ranks=len(manifest.entries))
        self._gc()
        return manifest

    def discard_epoch(self, epoch: int) -> None:
        """Drop an aborted (never-committed) epoch's copies and manifest."""
        self._drop_epoch(epoch)
        self.counters["epochs_discarded"] += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("storage", "epoch_discarded", epoch=epoch)

    def _gc(self) -> None:
        """Keep the newest ``keep_epochs`` usable epochs; drop the rest
        of the *sealed* epochs.  In-flight epochs are never collected,
        and neither are torn ones: their copies are orphans a
        manifest-driven sweep cannot attribute, so they linger as junk."""
        usable = sorted(
            (m.epoch for m in self._manifests.values() if m.usable),
            reverse=True,
        )
        keep = set(usable[: self.policy.keep_epochs])
        doomed = [
            m.epoch for m in self._manifests.values()
            if m.sealed and not m.torn and m.epoch not in keep
        ]
        for epoch in doomed:
            self._drop_epoch(epoch)
            self.counters["epochs_gced"] += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit("storage", "epoch_gced", epoch=epoch)

    def _drop_epoch(self, epoch: int) -> None:
        for key in [k for k in self._copies if k[0] == epoch]:
            del self._copies[key]
        for key in [k for k in self._parity if k[0] == epoch]:
            del self._parity[key]
        self._manifests.pop(epoch, None)

    def committed_epochs(self) -> List[int]:
        """Usable (sealed, non-torn) epochs, newest first."""
        return sorted(
            (m.epoch for m in self._manifests.values() if m.usable),
            reverse=True,
        )

    def manifest(self, epoch: int) -> Optional[Manifest]:
        return self._manifests.get(epoch)

    def has_copy(self, epoch: int, rank: int, tier: str) -> bool:
        if tier == "parity":
            return (epoch, self.group_of(rank)) in self._parity \
                if self.policy.parity_group else False
        return (epoch, rank, tier) in self._copies

    # ------------------------------------------------------------------
    # recovery ladder
    # ------------------------------------------------------------------
    def recover(self, rank: int, epoch: int) -> RecoverResult:
        """Walk the tier ladder for one rank's image at one epoch.

        Every attempted read is charged (failed attempts included) and
        checksum-verified against the manifest; parity reconstruction is
        tried last.  ``ok=False`` means this epoch cannot produce good
        bytes for this rank — the caller falls back to an older epoch.
        """
        manifest = self._manifests.get(epoch)
        if manifest is None or not manifest.usable or rank not in manifest.entries:
            return RecoverResult(ok=False, rank=rank, epoch=epoch)
        entry = manifest.entries[rank]
        read_time = 0.0
        attempts: List[Tuple[str, str]] = []

        for tier in ("local", "partner", "bb"):
            copy = self._copies.get((epoch, rank, tier))
            if copy is None:
                if tier in entry.tiers:
                    attempts.append((tier, "missing"))
                continue
            read_time += self._read_cost(tier, entry.nbytes)
            blob = copy.blob
            if stable_hash(blob) == entry.checksum:
                attempts.append((tier, "ok"))
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.emit("storage", "image_read", rank=rank,
                                     epoch=epoch, tier=tier,
                                     nbytes=entry.nbytes)
                return RecoverResult(
                    ok=True, rank=rank, epoch=epoch, blob=blob,
                    meta=dict(entry.meta), nbytes=entry.nbytes,
                    read_time=read_time, source=tier,
                    attempts=tuple(attempts))
            attempts.append((tier, "verify_failed"))
            self.counters["verify_failed"] += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit("storage", "verify_failed", rank=rank,
                                 epoch=epoch, tier=tier,
                                 expected=entry.checksum)

        if self.policy.parity_group:
            rebuilt, cost = self._rebuild_from_parity(rank, epoch, entry)
            read_time += cost
            if rebuilt is not None:
                attempts.append(("parity", "ok"))
                self.counters["parity_rebuilds"] += 1
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.emit("storage", "parity_rebuilt", rank=rank,
                                     epoch=epoch,
                                     group=self.group_of(rank))
                return RecoverResult(
                    ok=True, rank=rank, epoch=epoch, blob=rebuilt,
                    meta=dict(entry.meta), nbytes=entry.nbytes,
                    read_time=read_time, source="parity",
                    attempts=tuple(attempts))
            attempts.append(("parity", "failed"))

        return RecoverResult(ok=False, rank=rank, epoch=epoch,
                             read_time=read_time, attempts=tuple(attempts))

    def _read_cost(self, tier: str, nbytes: int) -> float:
        m = self.machine
        if tier == "local":
            return m.local_scratch.read_time(nbytes, self.sharers)
        if tier == "partner":
            return (m.net_latency + nbytes / m.net_bandwidth
                    + m.local_scratch.read_time(nbytes, self.sharers))
        if tier == "bb":
            return m.burst_buffer.read_time(nbytes, self.sharers)
        raise ValueError(f"unknown tier {tier!r}")

    def _rebuild_from_parity(
        self, rank: int, epoch: int, entry: ManifestEntry
    ) -> Tuple[Optional[bytes], float]:
        """XOR the surviving members' local copies with the parity block.

        Returns ``(blob, cost)``; blob is None when a survivor's copy is
        missing or fails its own verification, or when the rebuilt bytes
        don't match the target's checksum (e.g. corrupt parity block).
        The cost of reads performed before the failure is still charged.
        """
        m = self.machine
        manifest = self._manifests[epoch]
        group = self.group_of(rank)
        parity = self._parity.get((epoch, group))
        cost = 0.0
        if parity is None:
            return None, cost
        # read the parity block from its hosting node over the network
        cost += (m.net_latency + entry.nbytes / m.net_bandwidth
                 + m.local_scratch.read_time(entry.nbytes, self.sharers))
        acc = bytearray(parity.blob)
        for member in self.group_members(group):
            if member == rank:
                continue
            mcopy = self._copies.get((epoch, member, "local"))
            mentry = manifest.entries.get(member)
            if mcopy is None or mentry is None:
                return None, cost
            cost += (m.net_latency + mentry.nbytes / m.net_bandwidth
                     + m.local_scratch.read_time(mentry.nbytes, self.sharers))
            mblob = mcopy.blob
            if stable_hash(mblob) != mentry.checksum:
                self.counters["verify_failed"] += 1
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.emit("storage", "verify_failed", rank=member,
                                     epoch=epoch, tier="local",
                                     during="parity_rebuild")
                return None, cost
            acc = _xor_blobs(acc, mblob)
        # streaming XOR decode over the whole group's bytes
        cost += len(self.group_members(group)) * entry.nbytes / m.parity_xor_bw
        rebuilt = bytes(acc[: entry.blob_len])
        if stable_hash(rebuilt) != entry.checksum:
            self.counters["verify_failed"] += 1
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit("storage", "verify_failed", rank=rank,
                                 epoch=epoch, tier="parity")
            return None, cost
        return rebuilt, cost

    # ------------------------------------------------------------------
    # fault surface (called by repro.faults, never the reverse)
    # ------------------------------------------------------------------
    def drop_tier(
        self,
        tier: str,
        rank: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> int:
        """Destroy copies on one tier (a device/partition loss).  Scope
        narrows to one rank and/or one epoch when given.  Returns the
        number of copies destroyed."""
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; known: {TIERS}")
        dropped = 0
        if tier == "parity":
            for key in list(self._parity):
                e, group = key
                if epoch is not None and e != epoch:
                    continue
                if rank is not None and self.policy.parity_group \
                        and group != self.group_of(rank):
                    continue
                del self._parity[key]
                dropped += 1
        else:
            for key in list(self._copies):
                e, r, t = key
                if t != tier:
                    continue
                if rank is not None and r != rank:
                    continue
                if epoch is not None and e != epoch:
                    continue
                del self._copies[key]
                dropped += 1
        self.counters["copies_dropped"] += dropped
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("storage", "tier_lost", rank=rank, tier=tier,
                             epoch=epoch, copies=dropped)
        return dropped

    def drop_node(self, node: int) -> int:
        """A node dies: every copy it hosts goes with it — local copies
        of its resident ranks, partner replicas it hosts for others, and
        parity blocks placed there.  Burst-buffer copies survive."""
        dropped = 0
        for key, copy in list(self._copies.items()):
            if copy.node == node:
                del self._copies[key]
                dropped += 1
        for key, copy in list(self._parity.items()):
            if copy.node == node:
                del self._parity[key]
                dropped += 1
        self.counters["copies_dropped"] += dropped
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("storage", "node_storage_lost", node=node,
                             copies=dropped)
        return dropped

    def corrupt_copy(
        self,
        rank: int,
        tier: Optional[str] = None,
        epoch: Optional[int] = None,
    ) -> bool:
        """Silently flip one byte in one stored copy (bit rot / torn
        block).  Nothing is traced here — silent corruption is only
        discovered by checksum verification on the read path."""
        if epoch is None:
            epochs = sorted(
                {e for (e, r, _t) in self._copies if r == rank}
                | ({e for (e, g) in self._parity
                    if self.policy.parity_group
                    and g == self.group_of(rank)}),
                reverse=True,
            )
            if not epochs:
                return False
            epoch = epochs[0]
        if tier == "parity" or (tier is None and self.policy.parity_group
                                and not any(
                                    (epoch, rank, t) in self._copies
                                    for t in ("local", "partner", "bb"))):
            target = self._parity.get((epoch, self.group_of(rank)))
        else:
            target = None
            order = (tier,) if tier else ("local", "partner", "bb")
            for t in order:
                target = self._copies.get((epoch, rank, t))
                if target is not None:
                    break
        if target is None or not target.blob:
            return False
        damaged = bytearray(target.blob)
        damaged[0] ^= 0xFF
        target.blob = bytes(damaged)
        self.counters["copies_corrupted"] += 1
        return True

    def arm_manifest_tear(self, epoch: int) -> None:
        """The *next* commit of this epoch writes a torn manifest: the
        epoch's copies exist but are undiscoverable, so recovery must
        fall back past it."""
        self._armed_tears.add(epoch)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "policy": self.policy.name,
            "epochs": self.committed_epochs(),
            "copies": len(self._copies) + len(self._parity),
            **self.counters,
        }


def _xor_blobs(a: bytearray, b: bytes) -> bytearray:
    """XOR two byte strings, zero-padding the shorter to the longer."""
    n = max(len(a), len(b))
    x = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return bytearray(x.to_bytes(n, "little"))
