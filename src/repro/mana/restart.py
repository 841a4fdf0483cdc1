"""Restart: rebuild the lower half and rebind the virtual world.

The sequence every rank executes after the lower half is replaced
(RECONNECT restart — the in-process analog of MANA's restart, which
starts a fresh lower-half program and maps the saved upper half over it):

1. rendezvous (the last rank swaps the lower half for a new incarnation);
2. read the checkpoint image back from the burst buffer (modeled time);
3. rebind MPI_COMM_WORLD and rediscover the Fortran constant addresses
   (their link-time locations moved with the new lower half,
   Section III-F);
4. reconstruct communicators — from the active list and group
   membership (MANA-2.0, Section III-C) or by replaying the full
   creation log (original MANA);
5. re-post pending point-to-point receives from MANA's records;
6. replay the non-blocking-collective log in issue order, rebinding the
   still-pending virtual requests to the fresh real requests
   (Section III-I item 4 — completed ones are replayed too).
"""

from __future__ import annotations

from typing import Dict, List

from repro.des.syscalls import Advance
from repro.errors import RestartError
from repro.mana.config import CommReconstruction
from repro.mana.pipeline.registry import ICOLL_DESCS
from repro.mana.runtime import ManaRank
from repro.simmpi.constants import COMM_NULL
from repro.simmpi.group import Group
from repro.simmpi.ops import _op_by_name
from repro.simmpi.request import RealRequest


def _reconstruct_active_list(mrank: ManaRank):
    """MANA-2.0: rebuild only live communicators from group membership.

    Iteration is in creation (vid) order, which is consistent across
    members for communicators with overlapping membership — the same
    argument that makes their original creation deadlock-free.
    """
    rt = mrank.rt
    lib, task = rt.lib, mrank.task
    rebuilt = 0
    for meta in mrank.vcomms.active_metas():
        if meta.vid == mrank.vcomms.world_vid:
            mrank.vcomms.rebind(meta.vid, lib.comm_world)
            continue
        group = Group(meta.world_ranks)
        key = ("reconstruct", rt.incarnation, meta.gid, meta.name)
        real = lib._get_or_create_comm(key, group, meta.name)
        # synchronize the members on the fresh communicator (the analog
        # of MPI_Comm_create_group's internal agreement)
        yield from lib.barrier(task, real)
        mrank.vcomms.rebind(meta.vid, real)
        rebuilt += 1
    return rebuilt


def _reconstruct_replay_log(mrank: ManaRank):
    """Original MANA: replay every communicator-creating call ever made,
    including ones for communicators that are long dead (Section III-C's
    complaint: wasted time and an ever-growing table)."""
    rt = mrank.rt
    lib, task = rt.lib, mrank.task
    replay_map: Dict[int, object] = {mrank.vcomms.world_vid: lib.comm_world}
    mrank.vcomms.rebind(mrank.vcomms.world_vid, lib.comm_world)
    rebuilt = 0
    for rec in mrank.vcomms.creation_log:
        parent = replay_map.get(rec.parent_vid)
        if parent is None or parent is COMM_NULL:
            raise RestartError(
                f"rank {mrank.rank}: creation log references parent vcomm "
                f"{rec.parent_vid} that was never replayed"
            )
        if rec.op == "dup":
            real = yield from lib.comm_dup(task, parent)
        elif rec.op == "split":
            real = yield from lib.comm_split(
                task, parent, rec.args["color"], rec.args["key"]
            )
        elif rec.op == "create":
            real = yield from lib.comm_create(
                task, parent, Group(rec.args["group"])
            )
        else:
            raise RestartError(f"unknown creation-log op {rec.op!r}")
        replay_map[rec.result_vid] = real
        if real is not COMM_NULL:
            mrank.vcomms.rebind(rec.result_vid, real)
        rebuilt += 1
    return rebuilt


def _repost_pending_irecvs(mrank: ManaRank) -> int:
    """Pending receives were posted in the dead lower half; post them
    again in the new one from MANA's records."""
    from repro.mana.requests import NullMark, VReqKind

    lib, task = mrank.rt.lib, mrank.task
    reposted = 0
    for _vid, entry in mrank.vreqs.table.items():
        if entry.kind is not VReqKind.IRECV:
            continue  # persistent entries: _recreate_persistent below
        if entry.consumed or isinstance(entry.real, NullMark):
            continue  # already delivered (possibly via the drain)
        # entry.real is either a stale request from the dead lower half
        # (RECONNECT) or None (restored from an image): re-post either way
        real_comm, _ = mrank.vcomms.lookup(entry.comm_vid)
        entry.real = lib.irecv(task, real_comm, entry.peer, entry.tag)
        reposted += 1
    return reposted


def _recreate_persistent(mrank: ManaRank):
    """Persistent requests are lower-half objects; rebuild each from
    MANA's record, and restart the cycle of any receive that was active
    (an active persistent *send* already injected its message, which the
    drain accounted for; its completion is staged)."""
    from repro.mana.requests import VReqKind

    lib, task = mrank.rt.lib, mrank.task
    recreated = 0
    for entry in mrank.vreqs.persistent_entries():
        real_comm, _ = mrank.vcomms.lookup(entry.comm_vid)
        if entry.kind is VReqKind.PSEND:
            entry.real = lib.send_init(
                task, real_comm, entry.peer, entry.tag, buf=entry.p_buf
            )
            if entry.p_active and entry.p_staged is None:
                # the eager send completed before the checkpoint; stage
                # its completion for the app's next Test/Wait
                entry.p_staged = (None, None)
        else:
            entry.real = lib.recv_init(task, real_comm, entry.peer, entry.tag)
            if entry.p_active and entry.p_staged is None:
                yield from lib.start(task, entry.real)
        recreated += 1
    return recreated


def _replay_icolls(mrank: ManaRank):
    """Re-issue the whole non-blocking-collective log, in issue order.

    Every rank replays its full log, so partially-progressed collectives
    pair up again across ranks, and sequence numbers on the fresh
    communicators realign automatically.  Requests whose virtual IDs
    were already retired complete into the void (the paper's noted
    inefficiency); pending ones are rebound.
    """
    rt = mrank.rt
    lib, task = rt.lib, mrank.task
    new_reqs: List[RealRequest] = []
    for rec in mrank.icoll_log.records:
        desc = ICOLL_DESCS.get(rec.op)
        if desc is None:
            raise RestartError(f"unknown icoll op {rec.op!r} in replay log")
        real_comm, _ = mrank.vcomms.lookup(rec.comm_vid)
        # the issue-time args, rebuilt from what the record kept of them
        args = {"data": rec.payload, "root": rec.root,
                "op": None if rec.red_op is None else _op_by_name(rec.red_op)}
        req = yield from desc.issue(lib, task, real_comm, args)
        new_reqs.append(req)
        mrank.icoll_log.replays += 1
    for entry in mrank.vreqs.pending_icolls():
        if entry.icoll_index is None or entry.icoll_index >= len(new_reqs):
            raise RestartError(
                f"rank {mrank.rank}: pending icoll vreq {entry.vid} has no "
                f"replay record (index {entry.icoll_index})"
            )
        entry.real = new_reqs[entry.icoll_index]
    return len(new_reqs)


def perform_restart(mrank: ManaRank):
    """The full per-rank restart procedure (RECONNECT mode)."""
    rt = mrank.rt
    tracer = rt.sched.tracer
    started = rt.sched.now
    if tracer.enabled:
        tracer.emit("restart", "rendezvous", rank=mrank.rank,
                    incarnation=rt.incarnation)
    yield from rt.restart_rendezvous(mrank)

    image = mrank.last_image
    if image is not None:
        # checksum-verified read through the tier ladder: the store
        # charges every attempted tier (failed verifications included)
        # and never hands back unverified bytes
        result = rt.store.recover(mrank.rank, image.epoch)
        if not result.ok:
            raise RestartError(
                f"rank {mrank.rank}: no verifiable copy of epoch "
                f"{image.epoch} on any storage tier "
                f"(attempts: {result.attempts})"
            )
        yield Advance(result.read_time)
        if tracer.enabled:
            tracer.emit("restart", "image_read", rank=mrank.rank,
                        epoch=image.epoch, nbytes=image.nbytes,
                        tier=result.source)

    mrank.fortran.rebind(rt.fortran_linkage)

    if rt.cfg.comm_reconstruction is CommReconstruction.ACTIVE_LIST:
        rebuilt = yield from _reconstruct_active_list(mrank)
    else:
        rebuilt = yield from _reconstruct_replay_log(mrank)
    if tracer.enabled:
        tracer.emit("restart", "comms_rebuilt", rank=mrank.rank,
                    count=rebuilt, incarnation=rt.incarnation)

    reposted = _repost_pending_irecvs(mrank)
    persistent = yield from _recreate_persistent(mrank)
    replayed = yield from _replay_icolls(mrank)

    mrank.stats.wrapper_calls["__restart__"] = (
        mrank.stats.wrapper_calls.get("__restart__", 0) + 1
    )
    if tracer.enabled:
        tracer.emit("restart", "restart_done", rank=mrank.rank,
                    seconds=rt.sched.now - started,
                    irecvs_reposted=reposted,
                    persistent_recreated=persistent,
                    icolls_replayed=replayed)
    rt.restart_records[-1].setdefault("per_rank", {})[mrank.rank] = {
        "comms_rebuilt": rebuilt,
        "irecvs_reposted": reposted,
        "persistent_recreated": persistent,
        "icolls_replayed": replayed,
        "restart_seconds": rt.sched.now - started,
    }


def record_reexec_restart(mrank: ManaRank, info: dict) -> None:
    """Append one rank's replay-to-live transition record.

    REEXEC restarts happen per rank in a fresh session (no shared
    restart round like RECONNECT), so each transition appends its own
    record: which replay interpreter ran (``replay_compile`` mode),
    how many recorded calls were replayed, and the transition timing.
    Telemetry only — never consulted by the protocol.
    """
    mrank.rt.reexec_records.append(info)
