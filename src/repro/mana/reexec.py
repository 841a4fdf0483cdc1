"""REEXEC wiring: the recording API and the replay-to-live transition.

See :mod:`repro.mana.replay` for the design.  This module builds the
per-rank recording API (wrapper methods that record results, or replay
them in a restarted process) and performs the transition at log
exhaustion: restore the upper-half MANA state from the image, convert
orphaned requests, and rebuild the lower-half bindings using the same
machinery as a RECONNECT restart.
"""

from __future__ import annotations

import functools
import time as _time
from typing import Any, Optional

from repro.des.syscalls import Advance
from repro.errors import ReplayExhausted, RestartError
from repro.mana.buffers import BufferedMessage
from repro.mana.checkpoint import bb_read_time
from repro.mana.config import CollectiveMode, CommReconstruction
from repro.mana.portable import restore_portable
from repro.mana.replay import RECORDED_OPS, ReplayLog, _materialize_id
from repro.mana.requests import NullMark, VReqKind
from repro.mana.runtime import ManaRank
from repro.mana.wrappers import ManaApi
from repro.simnet.oob import RECOVERY_ID


class RecordingApi(ManaApi):
    """A ManaApi whose public methods record (or replay) their results:
    one recording method per entry of ``RECORDED_OPS``, bound to the
    class once, at the bottom of this module."""

    replay_cursor = None

    def compute(self, seconds: Optional[float] = None,
                flops: Optional[float] = None):
        if self.replay_log.replaying:
            # pre-checkpoint compute already happened: re-execution is
            # free, and the caller's ``yield from`` over an empty tuple
            # makes no scheduler interaction
            return ()
        return ManaApi.compute(self, seconds=seconds, flops=flops)


def build_recording_api(mrank: ManaRank, log: ReplayLog) -> ManaApi:
    """A :class:`RecordingApi` for ``mrank`` over ``log``.

    When the config selects a compiled replay (``replay_compile`` of
    ``"noop"`` or ``"opt"``) and the log is staged for replaying, the
    log is lowered to an IR program and the wrappers drive a
    :class:`~repro.ir.interp.ReplayCursor` instead of walking the raw
    log (see ``repro.mana.ir_bridge``).
    """
    if mrank.rt.cfg.collective_mode is CollectiveMode.PT2PT_ALWAYS:
        raise RestartError(
            "record_replay (REEXEC) cannot be combined with PT2PT_ALWAYS "
            "collectives: a checkpoint inside an alternative-implementation "
            "collective cannot be re-executed consistently"
        )
    api = RecordingApi(mrank)
    api.replay_log = log
    if log.replaying and mrank.rt.cfg.replay_compile != "off":
        from repro.ir import ReplayCursor
        from repro.mana.ir_bridge import compile_replay

        # a precompiled program for this rank (compile_image: one
        # compilation per saved image, shared across restart rounds)
        # skips the per-restart lowering and pass pipeline entirely;
        # only the cursor position is per-resume state
        precompiled = getattr(mrank.rt, "_ir_compiled", None)
        program = None if precompiled is None else precompiled.get(mrank.rank)
        if program is not None:
            if program.source_calls != len(log.entries):
                raise RestartError(
                    f"rank {mrank.rank}: precompiled program serves "
                    f"{program.source_calls} calls but the image log has "
                    f"{len(log.entries)} — compiled against a different "
                    "image?"
                )
            api.replay_cursor = ReplayCursor(program)
        else:
            api.replay_cursor = compile_replay(mrank, log)
    return api


def _recording(name: str, extract, materialize):
    base = getattr(ManaApi, name)
    if materialize is _materialize_id:
        materialize = None  # the recorded value is the result

    @functools.wraps(base)
    def method(self, *args, **kwargs):
        log = self.replay_log
        if log.replaying:
            # a replayed call costs no virtual time: serve its recorded
            # value with no scheduler interaction, so a rank replays its
            # whole log inside one scheduler step
            cursor = self.replay_cursor
            try:
                if cursor is None:
                    value = log.next(name)
                    needs_mat, dt = materialize is not None, None
                else:
                    # compiled replay: the IR interpreter serves the call
                    value, needs_mat, dt = cursor.step(name)
            except ReplayExhausted:
                pass
            else:
                if needs_mat:
                    value = materialize(self, value, args, kwargs)
                if dt:
                    yield Advance(dt)
                return value
            yield from reexec_transition(self)
            # fall through: this is the call that was in progress at
            # checkpoint time; it now runs live
        self._call_seq += 1
        result = yield from base(self, *args, **kwargs)
        log.record(name, extract(self, result, args, kwargs))
        return result

    return method


# ----------------------------------------------------------------------
# extract/materialize for communicator creation must carry membership so
# local queries (comm_rank/comm_size) work during replay
# ----------------------------------------------------------------------

def extract_comm_handle(api: ManaApi, result: Any, args, kwargs) -> Any:
    from repro.simmpi.constants import COMM_NULL

    if result is COMM_NULL:
        return ("null",)
    meta = api.mrank.vcomms.meta[result]
    return ("comm", result, tuple(meta.world_ranks), meta.name)


def materialize_comm_handle(api: ManaApi, value: Any, args, kwargs) -> Any:
    from repro.simmpi.constants import COMM_NULL
    from repro.mana.comms import CommMeta
    from repro.mana.gid import comm_gid_from_world_ranks

    if value[0] == "null":
        return COMM_NULL
    _tag, vid, world_ranks, name = value
    vc = api.mrank.vcomms
    if vid not in vc.meta:
        vc.meta[vid] = CommMeta(
            vid=vid,
            world_ranks=tuple(world_ranks),
            gid=comm_gid_from_world_ranks(tuple(world_ranks)),
            name=name,
            me=tuple(world_ranks).index(api.mrank.rank),
        )
    return vid


# ----------------------------------------------------------------------
# the transition: replayed history has reproduced the application state;
# now restore MANA state and rebuild the lower half bindings
# ----------------------------------------------------------------------

def reexec_transition(api: ManaApi):
    from repro.mana.restart import (
        _reconstruct_active_list,
        _reconstruct_replay_log,
        _recreate_persistent,
        _replay_icolls,
        _repost_pending_irecvs,
        record_reexec_restart,
    )

    mrank = api.mrank
    rt = mrank.rt
    tracer = rt.sched.tracer
    started = rt.sched.now
    payload = getattr(mrank, "_reexec_image", None)
    if payload is None:
        raise RestartError(
            f"rank {mrank.rank}: replay log exhausted but no image staged"
        )
    mrank._reexec_image = None

    nbytes = getattr(mrank, "_reexec_nbytes", 0)
    # crash recovery threads the tier-accurate (and already verified)
    # read time through the reexec payload; the save/resume file path
    # has no store and models a plain burst-buffer read
    read_time = getattr(mrank, "_reexec_read_time", None)
    if read_time is None:
        read_time = bb_read_time(mrank, nbytes)
    yield Advance(read_time)
    if tracer.enabled:
        tracer.emit("restart", "image_read", rank=mrank.rank,
                    nbytes=nbytes, mode="reexec")

    restore_portable(mrank, payload)
    mrank.fortran.rebind(rt.fortran_linkage)

    # orphaned requests: created by the wrapper call that was in progress
    # at checkpoint time (it has no log entry and will re-execute live)
    completed = api.replay_log.completed_calls
    for vid, entry in list(mrank.vreqs.table.items()):
        if entry.created_call <= completed:
            continue
        if entry.kind is VReqKind.IRECV and isinstance(entry.real, NullMark):
            # its message was drained pre-checkpoint; feed it back so the
            # re-executed receive finds it
            st = entry.real.status
            meta = mrank.vcomms.meta[entry.comm_vid]
            mrank.drain_buffer.put(
                BufferedMessage(
                    comm_vid=entry.comm_vid,
                    src_world=meta.world_ranks[st.source],
                    tag=st.tag,
                    payload=entry.real.payload,
                    nbytes=st.count,
                )
            )
        mrank.vreqs.table._table.pop(vid)

    # rebuild the lower-half bindings (fresh library of this session)
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
    if tracer.enabled:
        tracer.emit("restart", "restart_done", rank=mrank.rank,
                    seconds=rt.sched.now - started, mode="reexec",
                    irecvs_reposted=reposted,
                    persistent_recreated=persistent,
                    icolls_replayed=replayed)

    cursor = api.replay_cursor
    record_reexec_restart(mrank, {
        "rank": mrank.rank,
        "replay_compile": rt.cfg.replay_compile,
        "replayed_calls": api.replay_log.completed_calls,
        "compiled_ops": len(cursor.program.ops) if cursor is not None else None,
        "read_time": read_time,
        "transition_seconds": rt.sched.now - started,
        # wall-clock stamp so harnesses can isolate the replay phase
        # (resume start .. last transition) from the live remainder
        "wall_stamp": _time.perf_counter(),
    })
    api.replay_log.replaying = False
    if getattr(mrank, "_notify_recovery", False):
        # crash recovery is waiting on this transition: tell the
        # orchestrator this incarnation of the rank is back and live
        mrank._notify_recovery = False
        rt.oob.send(RECOVERY_ID, ("replay_done", mrank.rank, rt.incarnation))


# register the communicator-handle codec into the op table (deferred to
# break the import cycle between replay.py and this module)
from repro.mana.replay import _register_comm_ops as _rco  # noqa: E402

_rco()
for _name, (_extract, _materialize) in RECORDED_OPS.items():
    setattr(RecordingApi, _name, _recording(_name, _extract, _materialize))
