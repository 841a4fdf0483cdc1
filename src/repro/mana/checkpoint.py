"""Checkpoint images and the per-rank checkpoint cycle.

Only the *upper half* is saved (paper Section II-A): the application's
memory and MANA's own tables.  The lower half — the MPI library, its
context IDs, requests, unexpected queues, and the network state — is
deliberately not in the image; restart rebuilds it and MANA rebinds the
virtual objects.

The image is real bytes (framed pickle), so the REEXEC restart mode can
reload it in a fresh process.  Its size drives the modeled burst-buffer
write time (Figure 3); ``resident_bytes`` lets a scaled-down proxy
application declare the memory footprint its full-size counterpart would
have, which is recorded separately from the genuinely serialized bytes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Optional

from repro.des.syscalls import Advance
from repro.errors import CheckpointError
from repro.mana.config import DrainAlgorithm
from repro.mana.drain import drain_alltoall, drain_coordinator
from repro.mana.portable import gather_portable
from repro.mana.runtime import ManaRank, RankPhase
from repro.simnet.oob import COORDINATOR_ID
from repro.util import serde
from repro.util.hashing import stable_hash

#: memory-serialization speed for image construction, bytes/second
SERIALIZE_BW = 2.0e9

#: frame magic for a serialized CheckpointImage (header + blob)
_IMAGE_MAGIC = b"MANA2IMG"


@dataclass
class CheckpointImage:
    """One rank's checkpoint image."""

    rank: int
    epoch: int
    blob: bytes              # genuinely serialized upper-half state
    declared_app_bytes: int  # modeled full-size application footprint
    taken_at: float

    #: fixed per-process overhead (code, libraries, heap) — set from the
    #: machine model at build time
    base_bytes: int = 96 << 20
    #: image written with compression (DMTCP --gzip analog)
    compressed: bool = False
    #: BLAKE2 content checksum over ``blob``, recorded at build time;
    #: None only for hand-built images that predate verification
    checksum: Optional[int] = None
    #: machine provenance: where this image was taken.  Lives in the
    #: frame *header*, outside the blob, so stamping it changes neither
    #: the blob bytes nor the modeled image size — a cross-machine
    #: restore reads it to warn (and re-derive the lower half), nothing
    #: machine-derived is in the image itself.
    machine: str = ""
    kernel: str = ""

    @property
    def nbytes(self) -> int:
        """Modeled on-disk size: real state + declared app memory +
        fixed process overhead.  Compression shrinks the modeled parts
        by typical ratios (fp-heavy app data ~0.6, code/heap ~0.5)."""
        if self.compressed:
            return int(
                len(self.blob)
                + self.declared_app_bytes * 0.6
                + self.base_bytes * 0.5
            )
        return len(self.blob) + self.declared_app_bytes + self.base_bytes

    def verify(self) -> None:
        """Checksum the blob against the value recorded at build time.

        Raises :class:`CheckpointError` naming the rank and epoch — never
        a raw serde/pickle error — so a corrupt image is attributable.
        """
        if self.checksum is not None and stable_hash(self.blob) != self.checksum:
            raise CheckpointError(
                f"rank {self.rank} epoch {self.epoch}: checkpoint image "
                f"blob failed checksum verification "
                f"(expected {self.checksum:#018x})"
            )

    def payload(self) -> dict:
        self.verify()
        return serde.loads(self.blob)

    # ------------------------------------------------------------------
    # byte-level serialization: header outside the checksummed blob (so
    # blob corruption is caught by verification, not by pickle), with
    # its own checksum (so header corruption is caught before any field
    # is trusted — a flipped byte in still-valid JSON must not silently
    # alter metadata)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        header = json.dumps(
            {
                "rank": self.rank,
                "epoch": self.epoch,
                "declared_app_bytes": self.declared_app_bytes,
                "taken_at": self.taken_at,
                "base_bytes": self.base_bytes,
                "compressed": self.compressed,
                "checksum": (self.checksum if self.checksum is not None
                             else stable_hash(self.blob)),
                "blob_len": len(self.blob),
                "machine": self.machine,
                "kernel": self.kernel,
            },
            sort_keys=True,
        ).encode("utf-8")
        return (_IMAGE_MAGIC + struct.pack("<IQ", len(header),
                                           stable_hash(header))
                + header + self.blob)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CheckpointImage":
        if len(raw) < len(_IMAGE_MAGIC) + 12 or not raw.startswith(_IMAGE_MAGIC):
            raise CheckpointError("not a checkpoint image frame (bad magic)")
        off = len(_IMAGE_MAGIC)
        hlen, hsum = struct.unpack_from("<IQ", raw, off)
        off += 12
        header_bytes = raw[off:off + hlen]
        if stable_hash(header_bytes) != hsum:
            raise CheckpointError(
                "checkpoint image header failed checksum verification "
                f"(expected {hsum:#018x})"
            )
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint image header unreadable: {exc}"
            ) from None
        blob = raw[off + hlen:]
        if len(blob) != header["blob_len"]:
            raise CheckpointError(
                f"rank {header['rank']} epoch {header['epoch']}: checkpoint "
                f"image truncated ({len(blob)} of {header['blob_len']} "
                "blob bytes)"
            )
        image = cls(
            rank=header["rank"],
            epoch=header["epoch"],
            blob=blob,
            declared_app_bytes=header["declared_app_bytes"],
            taken_at=header["taken_at"],
            base_bytes=header["base_bytes"],
            compressed=header["compressed"],
            checksum=header["checksum"],
            # pre-provenance frames lack these fields; default to
            # "unknown origin" rather than refusing to load
            machine=header.get("machine", ""),
            kernel=header.get("kernel", ""),
        )
        image.verify()
        return image


def build_image(mrank: ManaRank) -> CheckpointImage:
    """Serialize one rank's upper half (the portable state only)."""
    program = mrank.program
    state = gather_portable(mrank)
    compress = mrank.rt.cfg.compress_images
    blob = serde.dumps(state, compress=compress)
    declared = program.resident_bytes() if program is not None else 0
    binding = mrank.rt.binding
    return CheckpointImage(
        rank=mrank.rank,
        epoch=mrank.intent_epoch,
        blob=blob,
        declared_app_bytes=declared,
        taken_at=mrank.rt.sched.now,
        base_bytes=binding.base_image_bytes,
        compressed=compress,
        checksum=stable_hash(blob),
        machine=binding.machine.name,
        kernel=binding.machine.linux_kernel,
    )


def bb_write_time(mrank: ManaRank, nbytes: int) -> float:
    """Burst-buffer write time, priced through the session's lower-half
    binding (which supplies the node-sharing factor)."""
    return mrank.rt.binding.bb_write_time(nbytes, mrank.rt.nranks)


def bb_read_time(mrank: ManaRank, nbytes: int) -> float:
    return mrank.rt.binding.bb_read_time(nbytes, mrank.rt.nranks)


def _materialize_done_irecvs(mrank: ManaRank) -> None:
    """Request_get_status mode: completed-but-unconsumed receives were
    left live in the lower half during the drain; the lower half is about
    to be discarded, so capture their payloads into upper-half NullMarks
    now (their bytes are already counted)."""
    from repro.mana.requests import VReqKind

    lib = mrank.rt.lib
    for entry in mrank.vreqs.pending_irecvs():
        req = entry.recv_request()
        if not req.done:
            continue
        flag, payload = lib.test(mrank.task, req)
        assert flag
        real_comm, _ = mrank.vcomms.lookup(entry.comm_vid)
        user_status = lib.status_for_user(real_comm, req.status)
        if entry.kind is VReqKind.PRECV:
            entry.p_staged = (payload, user_status)
        else:
            mrank.vreqs.complete_internally(entry, payload, user_status)


def run_checkpoint_cycle(mrank: ManaRank):
    """Main-thread checkpoint participation: drain, snapshot, write,
    then obey the post-checkpoint directive (resume or restart)."""
    from repro.mana.restart import perform_restart  # cycle at runtime

    rt = mrank.rt
    tracer = rt.sched.tracer
    mrank.phase = RankPhase.IN_CKPT

    if rt.cfg.drain is DrainAlgorithm.ALLTOALL:
        yield from drain_alltoall(mrank)
    else:
        yield from drain_coordinator(mrank)
    if tracer.enabled:
        tracer.emit("checkpoint", "drain_done", rank=mrank.rank,
                    epoch=mrank.intent_epoch)

    if rt.cfg.request_get_status:
        _materialize_done_irecvs(mrank)
    image = build_image(mrank)
    if tracer.enabled:
        tracer.emit("checkpoint", "image_built", rank=mrank.rank,
                    epoch=image.epoch, nbytes=image.nbytes)
    serialize_bw = SERIALIZE_BW / (3.0 if rt.cfg.compress_images else 1.0)
    serialize_time = rt.binding.sw_time(
        (len(image.blob) + image.declared_app_bytes) / serialize_bw
    )
    # tier placement plan: pre-burst-buffer tiers (local scratch, partner
    # replica, XOR parity) and the burst-buffer stream itself.  For the
    # legacy bb_only policy the pre-BB part is exactly 0.0 and the BB
    # part reproduces the historical write time bit-for-bit.
    pre_time, bb_time = rt.store.plan_write(mrank.rank, image.nbytes)

    # burst-buffer write: the fault layer may declare the device failed
    # after some fraction of the bytes landed
    fail_frac = rt.bb_fault_hook(mrank, image) if rt.bb_fault_hook else None
    if fail_frac is None:
        yield Advance(serialize_time + pre_time + bb_time)
        # only a *fully written* image is a restart candidate; register
        # every tier copy with the store (the epoch stays non-durable
        # until the coordinator's commit point seals its manifest)
        mrank.last_image = image
        rt.store.put(
            mrank.rank, image.epoch, image.blob, image.nbytes,
            meta={
                "taken_at": image.taken_at,
                "declared_app_bytes": image.declared_app_bytes,
                "base_bytes": image.base_bytes,
                "compressed": image.compressed,
                "machine": image.machine,
                "kernel": image.kernel,
            },
            now=rt.sched.now,
            checksum=image.checksum,
        )
        mrank.ckpt_done_info = {"nbytes": image.nbytes}
        if tracer.enabled:
            tracer.emit("checkpoint", "bb_write_ok", rank=mrank.rank,
                        epoch=image.epoch, nbytes=image.nbytes)
        rt.oob.send(
            COORDINATOR_ID,
            ("ckpt_done", mrank.rank, dict(mrank.ckpt_done_info)),
        )
    else:
        # partial write, then the device error surfaces; the bytes on
        # storage are garbage, nothing is registered with the store, and
        # last_image stays untouched
        yield Advance(serialize_time + pre_time + bb_time * fail_frac)
        if tracer.enabled:
            tracer.emit("checkpoint", "bb_write_failed", rank=mrank.rank,
                        epoch=image.epoch, frac=fail_frac)
        rt.oob.send(
            COORDINATOR_ID,
            ("ckpt_failed", mrank.rank,
             {"nbytes": image.nbytes, "frac": fail_frac}),
        )

    directive = yield from mrank.park_for_directive(
        f"awaiting post-checkpoint directive rank {mrank.rank}"
    )
    if directive[0] != "post_ckpt":
        raise CheckpointError(
            f"rank {mrank.rank}: expected post_ckpt, got {directive!r}"
        )
    action = directive[1]
    mrank.ckpt_done_info = None
    if tracer.enabled:
        tracer.emit("checkpoint", "post_directive", rank=mrank.rank,
                    epoch=mrank.intent_epoch, action=action)
    if action == "halt":
        from repro.errors import HaltSignal

        raise HaltSignal(f"rank {mrank.rank} halted after checkpoint")
    if action == "abort":
        # 2PC abort: some rank's write failed.  This epoch must never be
        # restarted from, so roll back to the last *durable* epoch and
        # resume as if no checkpoint had been requested.
        mrank.last_image = mrank.durable_image
    elif action == "restart":
        yield from perform_restart(mrank)
    elif action != "resume":
        raise CheckpointError(f"unknown post-checkpoint action {action!r}")

    mrank.intent = False
    mrank.release_mode = None
    mrank.horizons = {}
    rt.oob.send(COORDINATOR_ID, ("resumed", mrank.rank))
