"""SemanticLowering: the MPI→MANA semantic-conversion stage.

The conversions of Section III item 1 live here: ``MPI_Send`` becomes
``MPI_Isend`` + test, ``MPI_Recv``/``MPI_Wait`` become ``MPI_Test``
polling loops (so the process is never parked inside the lower half on
a point-to-point operation), ``MPI_Probe`` becomes an ``Iprobe`` loop,
``MPI_Alloc_mem`` becomes an upper-half allocation, and the blocking /
non-blocking collective and communicator-management families share one
skeleton each, parameterized by the registry descriptors.

This stage never touches 2PC flags, ID tables, cost knobs, or drain
counters directly — it speaks to them through the sibling stages
(:class:`TwoPhaseGate`, :class:`Virtualization`,
:class:`LowerHalfCosting`, :class:`DrainAccounting`) handed to it by the
:class:`~repro.mana.pipeline.core.Pipeline`.
"""

from __future__ import annotations

import copy
from typing import Any, List, Optional, Sequence

from repro.des.syscalls import Advance, Park
from repro.errors import ManaError, MpiError, UnsupportedMpiFeature
from repro.mana import collective_impl as upper
from repro.mana.api import validate_tag
from repro.mana.config import CollectiveMode
from repro.mana.handles import RequestSlot
from repro.mana.icoll_log import IcollRecord
from repro.mana.requests import NullMark, VReqEntry, VReqKind
from repro.mana.runtime import RankPhase
from repro.simmpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    COMM_NULL,
    PROC_NULL,
    REQUEST_NULL,
)
from repro.simmpi.request import RealPersistentRequest, RealRequest, RequestKind

from .accounting import DrainAccounting
from .costing import LowerHalfCosting
from .gate import TwoPhaseGate
from .registry import CollectiveDesc, CommMgmtDesc, IcollDesc
from .virtualization import Virtualization

from repro.util.serde import payload_nbytes


class SemanticLowering:
    """Per-rank lowering stage (the wrapper bodies of Fig. 1)."""

    def __init__(self, api, gate: TwoPhaseGate, virt: Virtualization,
                 cost: LowerHalfCosting, acct: DrainAccounting):
        self.api = api
        # the library and the task are read at use, through ``rt`` and
        # ``mrank``: ``rt.lib`` is replaced by every restart, and
        # ``mrank.task`` is assigned only after the pipeline is built
        self.mrank = api.mrank
        self.rt = api.rt
        self.cfg = api.cfg
        self.gate = gate
        self.virt = virt
        self.cost = cost
        self.acct = acct
        #: Fortran named-constant translation (Section III-F)
        self._resolve = api.mrank.fortran.resolve
        #: the pause between two fruitless polls of a wait loop
        self._poll_gap = Advance(
            api.binding.mana_sw_time(api.cfg.overheads.wait_poll_gap))

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, data, dest, tag: int = 0, comm: Optional[int] = None):
        return self.isend_impl(data, self._resolve(dest), self._resolve(tag),
                               comm)

    def isend_impl(self, data, dest, tag, comm: Optional[int],
                   internal: bool = False):
        """The send body ``isend``, ``send``, ``sendrecv`` and the
        alternative collectives share (callers resolve Fortran
        constants; the application tag is validated here, once)."""
        if not internal:
            validate_tag(tag)
        vid, real, lc = self.virt.lookup_comm(comm)
        virtualize = self.cfg.virtualize_requests
        yield self.cost.wrapper_advance(1, lc, 1 if virtualize else 0, True)
        req = yield from self.rt.lib.isend(self.mrank.task, real, dest, tag,
                                           data)
        if dest is not PROC_NULL:
            # the bytes the lower half just sized
            self.acct.sent(real.world_rank(dest), req.nbytes)
        if virtualize:
            entry, _c = self.virt.create_request(
                VReqKind.ISEND, vid, req, dest, tag, None,
                self.api._call_seq,
            )
            return RequestSlot(entry.vid)
        return RequestSlot(req)

    def send(self, data, dest, tag: int = 0, comm: Optional[int] = None):
        """MPI_Send, decomposed into Isend + Test (Section III item 1).

        The eager lower half completes sends locally, so one test
        suffices; the request is retired immediately."""
        slot = yield from self.isend_impl(
            data, self._resolve(dest), self._resolve(tag), comm)
        flag, _payload, _st = yield from self.test(slot)
        if not flag:
            raise ManaError("eager send did not complete locally")
        return None

    def irecv(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None,
              internal: bool = False):
        source = self._resolve(source)
        tag = self._resolve(tag)
        if not internal:
            validate_tag(tag)
        vid, real, lc = self.virt.lookup_comm(comm)
        if not self.cfg.virtualize_requests:
            yield self.cost.wrapper_advance(1, lc, 0, True)
            req = self.rt.lib.irecv(self.mrank.task, real, source, tag)
            return RequestSlot(req)
        yield self.cost.wrapper_advance(1, lc, 1, True)
        # consult the drained-message buffer first: bytes drained at the
        # last checkpoint must be delivered before fresh lower-half ones
        src_world = (
            source if source in (ANY_SOURCE, PROC_NULL)
            else real.world_rank(source)
        )
        hit = (
            None if source is PROC_NULL
            else self.mrank.drain_buffer.match(vid, src_world, tag)
        )
        entry, _c = self.virt.create_request(
            VReqKind.IRECV, vid, None, source, tag, None, self.api._call_seq,
        )
        lib = self.rt.lib
        if hit is not None:
            payload, st = hit
            entry.real = NullMark(payload, lib.status_for_user(real, st))
        else:
            entry.real = lib.irecv(self.mrank.task, real, source, tag)
        return RequestSlot(entry.vid)

    def recv(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None):
        """MPI_Recv as Irecv + Test polling (never blocks in the lower
        half, so a checkpoint can interpose between polls)."""
        slot = yield from self.irecv(source, tag, comm)
        payload, status = yield from self.wait(slot, "recv")
        return payload, status

    # ------------------------------------------------------------------
    def test(self, slot: RequestSlot):
        """One MPI_Test through the tables; no check-in, no polling.

        A completed receive is counted for the drain unless its peer is
        ``MPI_PROC_NULL``: nobody sent it, so no peer's send counter
        will ever balance it."""
        if slot.value is REQUEST_NULL:
            yield Advance(0.0)
            return True, None, None
        if not self.cfg.virtualize_requests:
            # original MANA: the application's slot holds the raw
            # lower-half request — which is why a restart with pending
            # requests cannot work without virtualization (Section III-A)
            req = slot.value
            yield self.cost.wrapper_advance(1)
            flag, payload = self.rt.lib.test(self.mrank.task, req)
            if flag:
                st = req.status
                if (req.kind.value == "recv" and st is not None
                        and req.source is not PROC_NULL):
                    self.acct.received(st.source, st.count)
                slot.value = REQUEST_NULL
                return True, payload, st
            return False, None, None

        entry, lc = self.virt.lookup_request(slot.value)
        yield self.cost.wrapper_advance(1, lc)
        kind = entry.kind
        if kind is VReqKind.PSEND or kind is VReqKind.PRECV:
            result = yield from self.test_persistent(entry)
            return result
        req = entry.real
        if req.__class__ is NullMark:
            # two-step retirement, step two (Section III-A): the request
            # completed internally; now that the application handed us
            # its slot, finish the retirement
            self.virt.retire_request(entry)
            slot.value = REQUEST_NULL
            return True, req.payload, req.status
        if req is None:
            raise ManaError(f"vreq {entry.vid} has no lower-half request bound")
        lib = self.rt.lib
        flag, payload = lib.test(self.mrank.task, req)
        if not flag:
            return False, None, None
        st = req.status
        if kind is VReqKind.IRECV and st is not None:
            if not entry.drain_counted and entry.peer is not PROC_NULL:
                self.acct.received(st.source, st.count)
            _vid, real_comm, _lc = self.virt.lookup_comm(entry.comm_vid)
            st = lib.status_for_user(real_comm, st)
        self.virt.retire_request(entry)
        slot.value = REQUEST_NULL
        return True, payload, st

    def test_persistent(self, entry: VReqEntry):
        """Test a persistent entry: the slot is never nulled (the request
        is reusable until MPI_Request_free)."""
        if entry.p_staged is not None:
            payload, st = entry.p_staged
            entry.p_staged = None
            entry.p_active = False
            entry.real.active = False
            entry.drain_counted = False  # next cycle counts afresh
            yield Advance(0.0)
            return True, payload, st
        if not entry.p_active:
            yield Advance(0.0)
            return True, None, None  # inactive persistent: MPI says done
        lib = self.rt.lib
        flag, payload = lib.test(self.mrank.task, entry.real)
        if not flag:
            return False, None, None
        st = entry.real.current.status
        if entry.kind is VReqKind.PRECV and st is not None:
            if not entry.drain_counted and entry.peer is not PROC_NULL:
                self.acct.received(st.source, st.count)
            _vid, real_comm, _lc = self.virt.lookup_comm(entry.comm_vid)
            st = lib.status_for_user(real_comm, st)
        entry.p_active = False
        entry.drain_counted = False
        return True, payload, st

    def wait(self, slot: RequestSlot, opname: str = "wait"):
        """MPI_Wait as a loop around MPI_Test (Section III item 1).

        After a few fruitless polls the process parks until either the
        request completes (the endpoint nudges it) or a checkpoint
        intent arrives (the checkpoint thread nudges it) — modeling
        MANA's test loop without simulating every idle poll, and keeping
        application deadlocks detectable as deadlocks.
        """
        mrank = self.mrank
        gate = self.gate
        polls = 0
        if self.cfg.virtualize_requests and slot.value is not REQUEST_NULL:
            entry, _c = self.virt.lookup_request(slot.value)
            mrank.current_wait = ("request", entry)
        try:
            while True:
                flag, payload, st = yield from self.test(slot)
                if flag:
                    return payload, st
                polls += 1
                if gate.intent_pending:
                    if gate.must_checkin_blocked(polls):
                        yield from gate.blocked(opname)
                        polls = 0
                        continue
                    # while a checkpoint is pending, keep polling (never
                    # idle-park): the blocked-checkin budget must be
                    # reached so the coordinator hears from us
                    yield self._poll_gap
                    continue
                if polls < gate.idle_poll_limit:
                    yield self._poll_gap
                    continue
                # idle-park until completion or a checkpoint-intent nudge
                req = self.pending_real_request(slot)
                if req is None or req.done:
                    yield self._poll_gap
                    continue
                proc = mrank.task.proc
                req.waiter = proc
                if req.kind is RequestKind.COLL:
                    sched = self.rt.sched
                    req.on_complete(lambda _r, p=proc: sched.try_wake(p))
                mrank.idle_wait_parked = True
                yield Park(f"MPI_Wait({opname}) poll-idle rank {mrank.rank}")
                mrank.idle_wait_parked = False
                req.waiter = None
        finally:
            mrank.current_wait = None

    def pending_real_request(self, slot: RequestSlot):
        """The lower-half request behind a slot, if it is still pending."""
        if slot.is_null:
            return None
        if not self.cfg.virtualize_requests:
            return slot.value if isinstance(slot.value, RealRequest) else None
        entry, _cost = self.virt.lookup_request(slot.value)
        if entry.kind in (VReqKind.PSEND, VReqKind.PRECV):
            if entry.p_active and entry.p_staged is None and isinstance(
                entry.real, RealPersistentRequest
            ):
                return entry.real.current
            return None
        return entry.real if isinstance(entry.real, RealRequest) else None

    def waitall(self, slots: Sequence[RequestSlot]):
        out = []
        for slot in slots:
            result = yield from self.wait(slot, "waitall")
            out.append(result)
        return out

    def iprobe(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None):
        source = self._resolve(source)
        tag = self._resolve(tag)
        vid, real, lc = self.virt.lookup_comm(comm)
        yield self.cost.wrapper_advance(1, lc)
        # drained messages are as probe-able as unexpected-queue ones
        for m in self.mrank.drain_buffer.snapshot():
            if m.comm_vid != vid:
                continue
            if source is not ANY_SOURCE and real.world_rank(source) != m.src_world:
                continue
            if tag is not ANY_TAG and tag != m.tag:
                continue
            from repro.simmpi.constants import Status
            st = self.rt.lib.status_for_user(
                real, Status(source=m.src_world, tag=m.tag, count=m.nbytes)
            )
            return True, st
        flag, st = self.rt.lib.iprobe(self.mrank.task, real, source, tag)
        return flag, st

    def peek_done(self, slot: RequestSlot) -> bool:
        """Non-consuming completion check (MPI_Request_get_status-like)."""
        if slot.is_null:
            return True
        if not self.cfg.virtualize_requests:
            return slot.value.done
        entry, _c = self.virt.lookup_request(slot.value)
        if entry.kind in (VReqKind.PSEND, VReqKind.PRECV):
            if entry.p_staged is not None or not entry.p_active:
                return True
            cur = entry.real.current if isinstance(
                entry.real, RealPersistentRequest) else None
            return cur is not None and cur.done
        if isinstance(entry.real, NullMark):
            return True
        return isinstance(entry.real, RealRequest) and entry.real.done

    def sendrecv(self, senddata, dest, sendtag: int = 0, source=ANY_SOURCE,
                 recvtag=ANY_TAG, comm: Optional[int] = None):
        """MPI_Sendrecv: the send is non-blocking-converted first, so the
        pair can never deadlock (Section III item 1 applies to both)."""
        dest = self._resolve(dest)
        send_slot = yield from self.isend_impl(senddata, dest, sendtag, comm)
        recv_slot = yield from self.irecv(source, recvtag, comm)
        data, status = yield from self.wait(recv_slot, "sendrecv")
        flag, _p, _s = yield from self.test(send_slot)
        if not flag:
            raise ManaError("eager sendrecv send did not complete locally")
        return data, status

    def probe(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None):
        """Blocking probe, converted to an Iprobe polling loop (so the
        process is never parked inside the lower half)."""
        polls = 0
        while True:
            # the *public* iprobe: each poll counts and checks in
            flag, status = yield from self.api.iprobe(source, tag, comm)
            if flag:
                return status
            polls += 1
            if self.gate.intent_pending:
                if self.gate.must_checkin_blocked(polls):
                    yield from self.gate.blocked("probe")
                    polls = 0
                    continue
            yield self._poll_gap

    def waitany(self, slots: Sequence[RequestSlot]):
        """MPI_Waitany as a Test polling loop over the whole set."""
        mrank = self.mrank
        gate = self.gate
        polls = 0
        if self.cfg.virtualize_requests:
            entries = []
            for slot_ in slots:
                if not slot_.is_null:
                    e, _c = self.virt.lookup_request(slot_.value)
                    entries.append(e)
            mrank.current_wait = ("requests", entries)
        try:
            while True:
                if all(s.is_null for s in slots):
                    yield Advance(0.0)
                    return None, None, None
                for i, slot in enumerate(slots):
                    if not slot.is_null and self.peek_done(slot):
                        flag, payload, st = yield from self.test(slot)
                        if flag:
                            return i, payload, st
                polls += 1
                if gate.intent_pending:
                    if gate.must_checkin_blocked(polls):
                        yield from gate.blocked("waitany")
                        polls = 0
                        continue
                    yield self._poll_gap
                    continue
                if polls < gate.idle_poll_limit:
                    yield self._poll_gap
                    continue
                # idle-park on every still-pending lower-half request
                reqs = []
                proc = mrank.task.proc
                sched = self.rt.sched
                for slot in slots:
                    req = self.pending_real_request(slot)
                    if req is not None and not req.done:
                        req.waiter = proc
                        if req.kind is RequestKind.COLL:
                            req.on_complete(
                                lambda _r, p=proc: sched.try_wake(p))
                        reqs.append(req)
                if not reqs:
                    yield self._poll_gap
                    continue
                mrank.idle_wait_parked = True
                yield Park(f"MPI_Waitany poll-idle rank {mrank.rank}")
                mrank.idle_wait_parked = False
                for req in reqs:
                    req.waiter = None
        finally:
            mrank.current_wait = None

    def testany(self, slots: Sequence[RequestSlot]):
        """MPI_Testany: consume one completed request if any."""
        for i, slot in enumerate(slots):
            if not slot.is_null and self.peek_done(slot):
                flag, payload, st = yield from self.test(slot)
                if flag:
                    return True, i, payload, st
        yield self.cost.wrapper_advance(1)
        return False, None, None, None

    def testall(self, slots: Sequence[RequestSlot]):
        """MPI_Testall: all-or-nothing consumption, as the standard
        requires — nothing is freed unless every request is complete."""
        if not all(self.peek_done(s) for s in slots):
            yield self.cost.wrapper_advance(1)
            return False, None
        out = []
        for slot in slots:
            if slot.is_null:
                out.append((None, None))
                continue
            flag, payload, st = yield from self.test(slot)
            assert flag
            out.append((payload, st))
        return True, out

    # ------------------------------------------------------------------
    # persistent point-to-point (MPI_Send_init / MPI_Recv_init / Start)
    # ------------------------------------------------------------------
    def send_init(self, data, dest, tag: int = 0, comm: Optional[int] = None):
        """MPI_Send_init: a virtualized *persistent* request.  Exempt
        from two-step retirement until MPI_Request_free; recreated on the
        fresh lower half at restart from MANA's record."""
        dest = self._resolve(dest)
        tag = self._resolve(tag)
        validate_tag(tag)
        vid, real_comm, lc = self.virt.lookup_comm(comm)
        yield self.cost.wrapper_advance(1, lc, vreq_ops=1, pt2pt=True)
        preq = self.rt.lib.send_init(self.mrank.task, real_comm, dest, tag,
                                       buf=data)
        entry, _c = self.virt.create_request(
            VReqKind.PSEND, vid, real=preq, peer=dest, tag=tag,
            created_call=self.api._call_seq,
        )
        entry.p_buf = data
        return RequestSlot(entry.vid)

    def recv_init(self, source=ANY_SOURCE, tag=ANY_TAG,
                  comm: Optional[int] = None):
        source = self._resolve(source)
        tag = self._resolve(tag)
        validate_tag(tag)
        vid, real_comm, lc = self.virt.lookup_comm(comm)
        yield self.cost.wrapper_advance(1, lc, vreq_ops=1, pt2pt=True)
        preq = self.rt.lib.recv_init(self.mrank.task, real_comm, source, tag)
        entry, _c = self.virt.create_request(
            VReqKind.PRECV, vid, real=preq, peer=source, tag=tag,
            created_call=self.api._call_seq,
        )
        return RequestSlot(entry.vid)

    def start(self, slot: RequestSlot, data=None):
        """MPI_Start: launch one cycle of a persistent request."""
        entry, lc = self.virt.lookup_request(slot.value)
        if entry.kind not in (VReqKind.PSEND, VReqKind.PRECV):
            raise MpiError("MPI_Start on a non-persistent request")
        yield self.cost.wrapper_advance(1, lc, pt2pt=True)
        _vid, real_comm, _lc = self.virt.lookup_comm(entry.comm_vid)
        if entry.kind is VReqKind.PRECV:
            # a previously drained message for this (comm, source, tag)
            # satisfies the new cycle immediately
            src_world = (
                entry.peer if entry.peer is ANY_SOURCE
                else real_comm.world_rank(entry.peer)
            )
            hit = self.mrank.drain_buffer.match(
                entry.comm_vid, src_world, entry.tag
            )
            if hit is not None:
                payload, st = hit
                entry.p_staged = (
                    payload, self.rt.lib.status_for_user(real_comm, st)
                )
                entry.p_active = True
                entry.drain_counted = True  # counted when drained
                return None
        if data is not None:
            entry.p_buf = data
        yield from self.rt.lib.start(self.mrank.task, entry.real, data)
        entry.p_active = True
        if entry.kind is VReqKind.PSEND and entry.peer is not PROC_NULL:
            payload = data if data is not None else entry.p_buf
            dst_world = real_comm.world_rank(entry.peer)
            self.acct.sent(dst_world, payload_nbytes(payload))
        return None

    def request_free(self, slot: RequestSlot):
        """MPI_Request_free: the only retirement point for persistent
        requests (Section III-A's GC question does not apply to them)."""
        entry, lc = self.virt.lookup_request(slot.value)
        yield self.cost.wrapper_advance(1, lc, vreq_ops=1)
        if isinstance(entry.real, RealPersistentRequest):
            self.rt.lib.request_free(self.mrank.task, entry.real)
        self.virt.retire_request(entry)
        slot.value = REQUEST_NULL

    # ------------------------------------------------------------------
    # internal pt2pt for the alternative collective implementation
    # (reserved tag space, full MANA accounting, check-ins allowed)
    # ------------------------------------------------------------------
    def internal_isend(self, comm_vid: int, dest: int, tag: int, data):
        slot = yield from self.isend_impl(data, dest, tag, comm_vid,
                                          internal=True)
        flag, _p, _s = yield from self.test(slot)
        if not flag:
            raise ManaError("internal eager send did not complete")

    def internal_recv(self, comm_vid: int, source: int, tag: int):
        slot = yield from self.irecv(source, tag, comm_vid, internal=True)
        payload, st = yield from self.wait(slot, "alt-collective recv")
        return payload, st

    # ------------------------------------------------------------------
    # blocking collectives
    # ------------------------------------------------------------------
    def blocking_collective(self, desc: CollectiveDesc, comm: Optional[int],
                            args: dict):
        """Shared two-phase-commit skeleton for blocking collectives."""
        opname = desc.name
        vid, real, lc = self.virt.lookup_comm(comm)
        meta = self.virt.comm_meta(vid)
        mode = self.cfg.collective_mode

        if mode is CollectiveMode.PT2PT_ALWAYS and desc.alt is not None:
            # Section III-E alternative: run above the lower half; a
            # checkpoint may land mid-collective and the drain captures it
            me = meta.me
            p = len(meta.world_ranks)
            seq = meta.mana_coll_seq
            meta.mana_coll_seq += 1
            yield self.cost.wrapper_advance(0, lc)
            result = yield from desc.alt(upper.run_rounds,
                                         (self.api, vid, p, seq), me, p, args)
            return result

        gid = meta.gid
        mrank = self.mrank
        # inline no-op guard: the prologue loop condition, hoisted so a
        # fault-free call never enters the gate generator
        if mrank.intent and mrank.phase is not RankPhase.IN_CKPT:
            yield from self.gate.collective(gid, opname)
        # re-translate AFTER the prologue: a checkpoint/restart may have
        # parked us there and replaced the lower half, rebinding the
        # virtual communicator to a brand-new real one
        _vid, real, lc = self.virt.lookup_comm(comm)
        yield self.cost.wrapper_advance(1, lc)
        inst = mrank.blocking_counts.get(gid, 0)
        mrank.in_lower = (gid, inst)
        if mrank.intent:
            mrank.report_state("in_lower", gid=gid, instance=inst)
        try:
            if mode is CollectiveMode.BARRIER_ALWAYS:
                # the original MANA's two-phase commit: a real barrier in
                # front of every collective (Sections III-D/III-E)
                yield from self.rt.lib.barrier(self.mrank.task, real)
            result = yield from desc.lib(self.rt.lib, self.mrank.task, real, args)
        finally:
            mrank.in_lower = None
        mrank.blocking_counts[gid] = inst + 1
        if mrank.intent:
            mrank.report_state("running")
        return result

    # ------------------------------------------------------------------
    # non-blocking collectives: log-and-replay (Section III-I item 4)
    # ------------------------------------------------------------------
    def icoll(self, desc: IcollDesc, count, comm: Optional[int], args: dict):
        """``count`` is the compiled row's counter: the call is counted
        only once the virtualization check has let it through."""
        opname = desc.name
        if not self.cfg.virtualize_requests:
            raise UnsupportedMpiFeature(
                "the original MANA does not virtualize MPI_Request and "
                "cannot support non-blocking collectives (Section III-A)"
            )
        count()
        if self.mrank.intent and self.mrank.phase is not RankPhase.IN_CKPT:
            yield from self.gate.entry(opname)
        vid, real, lc = self.virt.lookup_comm(comm)
        yield self.cost.wrapper_advance(1, lc, vreq_ops=1)
        rec = IcollRecord(op=opname, comm_vid=vid, **desc.record(args))
        # snapshot the payload: replay after restart must resend the
        # value as of issue time even if the app reused its buffer
        rec.payload = copy.deepcopy(rec.payload)
        idx = self.mrank.icoll_log.append(rec)
        req = yield from desc.issue(self.rt.lib, self.mrank.task, real, args)
        entry, _c = self.virt.create_request(
            VReqKind.ICOLL, vid, real=req, icoll_index=idx,
            created_call=self.api._call_seq,
        )
        rec.vid = entry.vid
        return RequestSlot(entry.vid)

    # ------------------------------------------------------------------
    # communicator management (collective on the parent)
    # ------------------------------------------------------------------
    def comm_mgmt(self, desc: CommMgmtDesc, comm: Optional[int], args: dict):
        """Shared skeleton for communicator-creating collectives."""
        vid, real, lc = self.virt.lookup_comm(comm)
        meta = self.virt.comm_meta(vid)
        gid = meta.gid
        if desc.prepare is not None:
            desc.prepare(self.api, real, args)
        if self.mrank.intent and self.mrank.phase is not RankPhase.IN_CKPT:
            yield from self.gate.collective(gid, desc.name)
        _vid, real, lc = self.virt.lookup_comm(comm)  # may be rebound by restart
        yield self.cost.wrapper_advance(1, lc)
        inst = self.mrank.blocking_counts.get(gid, 0)
        self.mrank.in_lower = (gid, inst)
        if self.mrank.intent:
            self.mrank.report_state("in_lower", gid=gid, instance=inst)
        try:
            if self.cfg.collective_mode is CollectiveMode.BARRIER_ALWAYS:
                yield from self.rt.lib.barrier(self.mrank.task, real)
            new_real = yield from desc.call(self.rt.lib, self.mrank.task,
                                            real, args)
        finally:
            self.mrank.in_lower = None
        self.mrank.blocking_counts[gid] = inst + 1
        if self.mrank.intent:
            self.mrank.report_state("running")
        record = desc.record(vid, args)
        if desc.nullable and new_real is COMM_NULL:
            self.virt.log_null_creation(record)
            return COMM_NULL
        new_vid, _c = self.virt.register_comm(new_real, new_real.name, record)
        return new_vid

    def comm_free(self, comm: int):
        vid, real, lc = self.virt.lookup_comm(comm)
        gid = self.virt.comm_meta(vid).gid
        # MPI_Comm_free is collective on the communicator, so it must be
        # equalized like one (Section III-K): if a checkpoint could cut
        # between members' frees, the images would disagree about the
        # active-communicator list and the restart reconstruction
        # barrier would hang waiting for members that already freed.
        yield from self.gate.collective(gid, "comm_free")
        _vid, real, lc = self.virt.lookup_comm(comm)  # rebound by a restart
        yield self.cost.wrapper_advance(1, lc)
        self.rt.lib.comm_free(self.mrank.task, real)
        self.virt.free_comm(vid)
        self.mrank.blocking_counts[gid] = (
            self.mrank.blocking_counts.get(gid, 0) + 1
        )
        if self.mrank.intent:
            self.mrank.report_state("running")
        # freeing is collective and implies all operations on the comm
        # completed everywhere: its replay records can be pruned safely
        dropped = self.mrank.icoll_log.drop_comm(vid)
        if dropped:
            index = self.mrank.icoll_log.reindex()
            for _v, entry in self.mrank.vreqs.table.items():
                if entry.kind is VReqKind.ICOLL:
                    entry.icoll_index = index.get(entry.vid)

    # ------------------------------------------------------------------
    # memory: MPI_Alloc_mem -> upper-half malloc (Section III item 1)
    # ------------------------------------------------------------------
    def alloc_mem(self, nbytes: int):
        from repro.mana.wrappers import UpperHalfMemory
        yield self.cost.wrapper_advance(0)
        mem = UpperHalfMemory(nbytes)
        self.api._uh_mem[mem.mem_id] = mem
        return mem

    def free_mem(self, mem):
        yield self.cost.wrapper_advance(0)
        if self.api._uh_mem.pop(mem.mem_id, None) is None:
            raise MpiError(f"free_mem of unknown {mem!r}")
