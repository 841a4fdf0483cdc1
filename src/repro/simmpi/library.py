"""The MpiLibrary facade — everything a rank (or MANA) calls.

One instance of :class:`MpiLibrary` is one *incarnation* of the lower
half.  At restart, MANA destroys the instance and creates a fresh one:
context IDs, communicators, and requests all change identity, which is
the entire reason MANA virtualizes them.

Blocking calls return generator coroutines (the caller parks inside the
library, the state MANA's algorithms exist to avoid at checkpoint time);
purely local calls (``test``, ``iprobe``, group operations, rank/size
queries) are plain methods.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import MpiError, MpiInvalidHandle, SimulationError
from repro.des.process import Proc
from repro.des.scheduler import Scheduler
from repro.des.syscalls import Advance, Park
from repro.hosts.machine import MachineSpec
from repro.simmpi import collectives as coll, request
from repro.simmpi.collectives import run_rounds
from repro.simmpi.comm import RealComm
from repro.simmpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    COMM_NULL,
    PROC_NULL,
    Status,
    UNDEFINED,
)
from repro.simmpi.group import Group
from repro.simmpi.ops import ReductionOp
from repro.simmpi.pt2pt import Endpoint
from repro.simmpi.request import RealPersistentRequest, RealRequest, RequestKind
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.util.serde import payload_nbytes

# hot-path enum hoists (attribute loads on RequestKind are measurable at
# millions of events per second)
_SEND = RequestKind.SEND
_RECV = RequestKind.RECV
_COLL = RequestKind.COLL

#: shared Park used when tracing is off: the detailed per-wait reason
#: string (request repr + rank) is only worth building when it lands in
#: a trace or a deadlock report with tracing armed
_PARK_WAIT = Park("MPI_Wait")


@dataclass(slots=True)
class RankTask:
    """Identity of a caller: which process, which world rank.

    The kernel has no implicit current-process notion, so every blocking
    library call takes the caller's task explicitly.  Non-blocking
    collective helpers get their own task bound to the same world rank.
    """

    proc: Proc
    world_rank: int


class LhMemory:
    """Memory allocated by MPI_Alloc_mem — it lives in the *lower half*.

    Its contents do not survive a restart (the lower half is discarded),
    which is why MANA converts MPI_Alloc_mem to an upper-half malloc
    (paper Section III, item 2).
    """

    _ids = itertools.count(1)

    def __init__(self, nbytes: int):
        self.mem_id = next(self._ids)
        self.nbytes = nbytes
        self.data = bytearray(min(nbytes, 1 << 20))  # cap backing store

    def __repr__(self) -> str:
        return f"<LhMemory #{self.mem_id} {self.nbytes}B>"


class MpiLibrary:
    """One incarnation of the simulated MPI library."""

    def __init__(
        self,
        sched: Scheduler,
        network: Network,
        machine: MachineSpec,
        incarnation: int = 0,
    ):
        self.sched = sched
        self.network = network
        self.machine = machine
        self.incarnation = incarnation
        self.nranks = network.nranks
        self.destroyed = False

        # hot-path hoists: Advance syscalls are immutable, so the two
        # fixed-overhead instances are shared across every send/recv
        self._adv_send = Advance(machine.send_overhead)
        self._adv_recv = Advance(machine.recv_overhead)
        self._tracer = sched.tracer

        self.endpoints: List[Endpoint] = []
        for r in range(self.nranks):
            ep = Endpoint(r)
            ep._wake = sched.try_wake
            self.endpoints.append(ep)
            network.attach_endpoint(r, ep.deliver)

        # context IDs: even = pt2pt, odd = collective-internal.  A fresh
        # incarnation starts from a different base so stale handles can
        # never accidentally alias new ones.
        self._next_ctx = 2 + incarnation * 1_000_000
        world_group = Group(range(self.nranks))
        self.comm_world = RealComm(
            self._next_ctx, self._next_ctx + 1, world_group, name="MPI_COMM_WORLD"
        )
        self._next_ctx += 2
        self._comms: Dict[int, RealComm] = {self.comm_world.pt2pt_ctx: self.comm_world}

        # deterministic agreement for collective comm creation
        self._creation_memo: Dict[tuple, RealComm] = {}
        self._mgmt_seq: Dict[Tuple[int, int], int] = {}
        self._free_calls: Dict[int, set] = {}

        self._lh_mem: Dict[int, LhMemory] = {}
        self._helpers: List[Proc] = []

        # telemetry
        self.calls: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        calls = self.calls
        calls[name] = calls.get(name, 0) + 1
        tr = self._tracer
        if tr.enabled:
            tr.emit("mpi_library", "call", call=name, incarnation=self.incarnation)

    def _check(self) -> None:
        if self.destroyed:
            raise MpiInvalidHandle(
                "call into a destroyed MPI library incarnation (stale lower half)"
            )

    def make_task(self, proc: Proc, world_rank: int) -> RankTask:
        if not 0 <= world_rank < self.nranks:
            raise MpiError(f"world rank {world_rank} out of range")
        return RankTask(proc=proc, world_rank=world_rank)

    # ------------------------------------------------------------------
    # raw point-to-point primitives (world-rank addressed)
    # ------------------------------------------------------------------
    def _isend_raw(self, task: RankTask, ctx: int, dst_world: int, tag: int, payload: Any):
        """Eager injection: the send completes locally at injection."""
        if self.destroyed:
            self._check()
        yield self._adv_send
        nbytes, req_id = self._eager_send(task, ctx, dst_world, tag, payload)
        req = RealRequest(_SEND, ctx, task.world_rank, tag, req_id)
        req.nbytes = nbytes
        # equivalent to req.complete(payload=None, status=None): no
        # status, no callback registered yet, payload already None
        req.done = True
        return req

    # the send and receive halves around the yields, shared by the
    # primitives here and the collectives' round executor
    def _eager_send(self, task: RankTask, ctx: int, dst_world: int, tag: int,
                    payload: Any) -> Tuple[int, int]:
        """An eager send once its overhead is paid: the message enters
        the fabric, then the send's request id is drawn, whether or not
        the caller builds the request.  Returns ``(nbytes, req_id)``.
        The id comes through the module attribute: ``tools/
        capture_goldens.py`` rebinds the counter between cases."""
        nbytes = payload_nbytes(payload)
        self.network.inject(
            Message(task.world_rank, dst_world, ctx, tag, payload, nbytes))
        return nbytes, next(request._req_ids)

    def _irecv_raw(self, task: RankTask, ctx: int, src_world, tag) -> RealRequest:
        if self.destroyed:
            self._check()
        req = RealRequest(_RECV, ctx, src_world, tag)
        self.endpoints[task.world_rank].post_recv(req)
        return req

    def _park(self, task: RankTask, req: RealRequest) -> Park:
        """Make ``task`` the waiter of pending ``req``: the Park to yield
        until it completes."""
        req.waiter = task.proc
        if self._tracer.enabled:
            return Park(f"MPI_Wait({req!r}) rank {task.world_rank}")
        return _PARK_WAIT

    def _wait(self, task: RankTask, req):
        """Native blocking wait: parks until the request completes."""
        if self.destroyed:
            self._check()
        if req.__class__ is RealPersistentRequest:
            if not req.active:
                return None
            payload = yield from self._wait(task, req.current)
            req.active = False
            return payload
        if not req.done:
            if req.kind is _COLL:
                req.on_complete(lambda _r, p=task.proc: self.sched.try_wake(p))
            yield self._park(task, req)
            req.waiter = None
        if req.kind is _RECV:
            yield self._adv_recv
        req.consumed = True
        return req.payload

    # ------------------------------------------------------------------
    # application-facing point-to-point (comm-local addressing)
    # ------------------------------------------------------------------
    def isend(self, task: RankTask, comm: RealComm, dest: int, tag: int, payload: Any):
        self._check()
        self._count("isend")
        comm.check_alive()
        if dest is PROC_NULL:
            req = RealRequest(RequestKind.SEND, comm.pt2pt_ctx, task.world_rank, tag)
            req.complete()
            return req
        dst_world = comm.world_rank(dest)
        req = yield from self._isend_raw(task, comm.pt2pt_ctx, dst_world, tag, payload)
        return req

    def irecv(self, task: RankTask, comm: RealComm, source, tag) -> RealRequest:
        self._check()
        self._count("irecv")
        comm.check_alive()
        if source is PROC_NULL:
            req = RealRequest(RequestKind.RECV, comm.pt2pt_ctx, source, tag)
            req.complete(payload=None, status=Status(source=-1, tag=-1, count=0))
            return req
        src_world = source if source is ANY_SOURCE else comm.world_rank(source)
        return self._irecv_raw(task, comm.pt2pt_ctx, src_world, tag)

    def send(self, task: RankTask, comm: RealComm, dest: int, tag: int, payload: Any):
        self._count("send")
        yield from self.isend(task, comm, dest, tag, payload)
        return None

    def recv(self, task: RankTask, comm: RealComm, source, tag):
        self._count("recv")
        req = self.irecv(task, comm, source, tag)
        payload = yield from self._wait(task, req)
        return payload, self.status_for_user(comm, req.status)

    def test(self, task: RankTask, req) -> Tuple[bool, Any]:
        """Local-completion test; never blocks, charges no time.

        Accepts plain and persistent requests; testing an *inactive*
        persistent request succeeds immediately (MPI semantics)."""
        self._check()
        self._count("test")
        if isinstance(req, RealPersistentRequest):
            if req.freed:
                raise MpiInvalidHandle("test on a freed persistent request")
            if not req.active:
                return True, None
            if req.current.done:
                req.active = False
                return True, req.current.payload
            return False, None
        if req.done:
            req.consumed = True
            return True, req.payload
        return False, None

    def wait(self, task: RankTask, req: RealRequest):
        self._count("wait")
        payload = yield from self._wait(task, req)
        return payload

    def request_get_status(
        self, task: RankTask, req: RealRequest
    ) -> Tuple[bool, Any, Optional[Status]]:
        """MPI_Request_get_status: non-destructive completion query —
        the request is NOT consumed (a later Test/Wait still works)."""
        self._check()
        self._count("request_get_status")
        if req.done:
            return True, req.payload, req.status
        return False, None, None

    # ------------------------------------------------------------------
    # persistent point-to-point (MPI_Send_init / MPI_Recv_init / MPI_Start)
    # ------------------------------------------------------------------
    def send_init(self, task: RankTask, comm: RealComm, dest: int, tag: int,
                  buf=None) -> RealPersistentRequest:
        self._check()
        self._count("send_init")
        comm.check_alive()
        return RealPersistentRequest(RequestKind.SEND, comm, dest, tag, buf)

    def recv_init(self, task: RankTask, comm: RealComm, source, tag
                  ) -> RealPersistentRequest:
        self._check()
        self._count("recv_init")
        comm.check_alive()
        return RealPersistentRequest(RequestKind.RECV, comm, source, tag)

    def start(self, task: RankTask, preq: RealPersistentRequest, data=None):
        """Launch one transfer cycle; for sends, ``data`` overrides the
        bound buffer (our value-semantics variant of buffer reuse)."""
        self._check()
        self._count("start")
        if preq.freed:
            raise MpiInvalidHandle("start on a freed persistent request")
        if preq.active:
            raise MpiError("MPI_Start on an already-active persistent request")
        if preq.kind is RequestKind.SEND:
            payload = data if data is not None else preq.buf
            if payload is None:
                raise MpiError("persistent send has no bound buffer or data")
            if hasattr(payload, "copy"):
                payload = payload.copy()  # the transfer reads it at Start
            preq.current = yield from self.isend(
                task, preq.comm, preq.peer, preq.tag, payload
            )
        else:
            preq.current = self.irecv(task, preq.comm, preq.peer, preq.tag)
        preq.active = True
        preq.starts += 1
        return None

    def request_free(self, task: RankTask, preq: RealPersistentRequest) -> None:
        self._count("request_free")
        if preq.active and not preq.current.done:
            raise MpiError("MPI_Request_free on an active persistent request")
        preq.freed = True

    def iprobe(
        self, task: RankTask, comm: RealComm, source, tag
    ) -> Tuple[bool, Optional[Status]]:
        self._check()
        self._count("iprobe")
        comm.check_alive()
        src_world = source if source is ANY_SOURCE else comm.world_rank(source)
        flag, status = self.endpoints[task.world_rank].iprobe(
            comm.pt2pt_ctx, src_world, tag
        )
        if flag:
            status = self.status_for_user(comm, status)
        return flag, status

    def status_for_user(self, comm: RealComm, status: Optional[Status]) -> Optional[Status]:
        """Translate a Status's world-rank source to the comm-local rank."""
        if status is None:
            return None
        src = status.source
        if isinstance(src, int) and src >= 0:
            src = comm.rank_of(src)
        return Status(source=src, tag=status.tag, count=status.count)

    # ------------------------------------------------------------------
    # blocking collectives: each entry point runs the prologue and
    # returns the algorithm's own generator (no forwarding frame), run
    # by the lower half's executor on ``(lib, task, comm, seq)``
    # ------------------------------------------------------------------
    def _coll_prologue(self, task: RankTask, comm: RealComm, name: str):
        if self.destroyed:
            self._check()
        self._count(name)
        if comm.freed:
            comm.check_alive()
        me = comm.rank_of(task.world_rank)
        seq = comm.next_coll_seq(task.world_rank)
        return me, seq

    def barrier(self, task: RankTask, comm: RealComm):
        me, seq = self._coll_prologue(task, comm, "barrier")
        return coll.barrier(run_rounds, (self, task, comm, seq), me)

    def bcast(self, task: RankTask, comm: RealComm, data: Any, root: int):
        me, seq = self._coll_prologue(task, comm, "bcast")
        return coll.bcast(run_rounds, (self, task, comm, seq), me, data, root)

    def reduce(self, task: RankTask, comm: RealComm, data: Any, op: ReductionOp, root: int):
        me, seq = self._coll_prologue(task, comm, "reduce")
        return coll.reduce_(run_rounds, (self, task, comm, seq), me, data, op,
                            root)

    def allreduce(self, task: RankTask, comm: RealComm, data: Any, op: ReductionOp):
        me, seq = self._coll_prologue(task, comm, "allreduce")
        return coll.allreduce(run_rounds, (self, task, comm, seq), me, data, op)

    def gather(self, task: RankTask, comm: RealComm, data: Any, root: int):
        me, seq = self._coll_prologue(task, comm, "gather")
        return coll.gather(run_rounds, (self, task, comm, seq), me, data, root)

    def scatter(self, task: RankTask, comm: RealComm, data: Optional[List[Any]], root: int):
        me, seq = self._coll_prologue(task, comm, "scatter")
        return coll.scatter(run_rounds, (self, task, comm, seq), me, comm.size,
                            data, root)

    def allgather(self, task: RankTask, comm: RealComm, data: Any):
        me, seq = self._coll_prologue(task, comm, "allgather")
        return coll.allgather(run_rounds, (self, task, comm, seq), me, data)

    def alltoall(self, task: RankTask, comm: RealComm, data: List[Any]):
        me, seq = self._coll_prologue(task, comm, "alltoall")
        return coll.alltoall(run_rounds, (self, task, comm, seq), me, comm.size,
                             data)

    def scan(self, task: RankTask, comm: RealComm, data: Any, op: ReductionOp):
        me, seq = self._coll_prologue(task, comm, "scan")
        return coll.scan(run_rounds, (self, task, comm, seq), me, data, op)

    def reduce_scatter_block(
        self, task: RankTask, comm: RealComm, data: List[Any], op: ReductionOp
    ):
        me, seq = self._coll_prologue(task, comm, "reduce_scatter")
        return coll.reduce_scatter_block(
            run_rounds, (self, task, comm, seq), me, comm.size, data, op)

    # ------------------------------------------------------------------
    # non-blocking collectives: the algorithm runs in a helper process
    # ------------------------------------------------------------------
    def _spawn_icoll(
        self, task: RankTask, comm: RealComm, name: str, make_gen, req: RealRequest
    ) -> None:
        task_box: dict = {}

        def body():
            result = yield from make_gen(task_box["task"])
            req.complete(result)

        proc = self.sched.spawn(
            body(), f"{name}-r{task.world_rank}-#{req.req_id}", daemon=True
        )
        task_box["task"] = RankTask(proc=proc, world_rank=task.world_rank)
        self._helpers.append(proc)

    def _icoll(self, task: RankTask, comm: RealComm, name: str, make_gen):
        """``make_gen(at, me)``: the algorithm, run by the helper with
        its own task"""
        me, seq = self._coll_prologue(task, comm, name)
        req = RealRequest(RequestKind.COLL, comm.coll_ctx)
        self._spawn_icoll(task, comm, name,
                          lambda t: make_gen((self, t, comm, seq), me), req)
        yield Advance(self.machine.send_overhead)
        return req

    def ibarrier(self, task: RankTask, comm: RealComm):
        req = yield from self._icoll(
            task, comm, "ibarrier",
            lambda at, me: coll.barrier(run_rounds, at, me),
        )
        return req

    def ibcast(self, task: RankTask, comm: RealComm, data: Any, root: int):
        req = yield from self._icoll(
            task, comm, "ibcast",
            lambda at, me: coll.bcast(run_rounds, at, me, data, root),
        )
        return req

    def ireduce(self, task: RankTask, comm: RealComm, data: Any, op: ReductionOp, root: int):
        req = yield from self._icoll(
            task, comm, "ireduce",
            lambda at, me: coll.reduce_(run_rounds, at, me, data, op, root),
        )
        return req

    def iallreduce(self, task: RankTask, comm: RealComm, data: Any, op: ReductionOp):
        req = yield from self._icoll(
            task, comm, "iallreduce",
            lambda at, me: coll.allreduce(run_rounds, at, me, data, op),
        )
        return req

    def ialltoall(self, task: RankTask, comm: RealComm, data: List[Any]):
        req = yield from self._icoll(
            task, comm, "ialltoall",
            lambda at, me: coll.alltoall(run_rounds, at, me, comm.size, data),
        )
        return req

    def iallgather(self, task: RankTask, comm: RealComm, data: Any):
        req = yield from self._icoll(
            task, comm, "iallgather",
            lambda at, me: coll.allgather(run_rounds, at, me, data),
        )
        return req

    # ------------------------------------------------------------------
    # communicator management (collective; context IDs agreed via memo)
    # ------------------------------------------------------------------
    def _next_mgmt_seq(self, comm: RealComm, task: RankTask) -> int:
        key = (comm.pt2pt_ctx, task.world_rank)
        seq = self._mgmt_seq.get(key, 0)
        self._mgmt_seq[key] = seq + 1
        return seq

    def _get_or_create_comm(self, key: tuple, group: Group, name: str) -> RealComm:
        existing = self._creation_memo.get(key)
        if existing is not None:
            return existing
        new = RealComm(self._next_ctx, self._next_ctx + 1, group, name=name)
        self._next_ctx += 2
        self._creation_memo[key] = new
        self._comms[new.pt2pt_ctx] = new
        return new

    def comm_dup(self, task: RankTask, comm: RealComm):
        self._count("comm_dup")
        comm.check_alive()
        seq = self._next_mgmt_seq(comm, task)
        yield from self.barrier(task, comm)  # dup synchronizes members
        return self._get_or_create_comm(
            ("dup", comm.pt2pt_ctx, seq), comm.group, f"{comm.name}.dup{seq}"
        )

    def comm_split(self, task: RankTask, comm: RealComm, color, key: int = 0):
        self._count("comm_split")
        comm.check_alive()
        me = comm.rank_of(task.world_rank)
        seq = self._next_mgmt_seq(comm, task)
        entries = yield from self.allgather(task, comm, (color, key, me))
        if color is UNDEFINED or color is None:
            return COMM_NULL
        # the colour's first member to get here builds its group; the
        # rest find the communicator and skip the filter + sort
        memo_key = ("split", comm.pt2pt_ctx, seq, color)
        existing = self._creation_memo.get(memo_key)
        if existing is not None:
            return existing
        members = sorted(
            (k, r) for (c, k, r) in entries if c == color
        )
        world = [comm.world_rank(r) for (_k, r) in members]
        return self._get_or_create_comm(
            memo_key, Group(world), f"{comm.name}.split{seq}c{color}"
        )

    def comm_create(self, task: RankTask, comm: RealComm, group: Group):
        self._count("comm_create")
        comm.check_alive()
        for wr in group.world_ranks:
            if not comm.group.contains(wr):
                raise MpiError(f"comm_create group member {wr} not in {comm.name}")
        seq = self._next_mgmt_seq(comm, task)
        yield from self.barrier(task, comm)
        if not group.contains(task.world_rank):
            return COMM_NULL
        return self._get_or_create_comm(
            ("create", comm.pt2pt_ctx, seq, group.world_ranks),
            group,
            f"{comm.name}.create{seq}",
        )

    def comm_free(self, task: RankTask, comm: RealComm) -> None:
        self._count("comm_free")
        comm.check_alive()
        callers = self._free_calls.setdefault(comm.pt2pt_ctx, set())
        callers.add(task.world_rank)
        if callers >= set(comm.group.world_ranks):
            comm.freed = True
            self._comms.pop(comm.pt2pt_ctx, None)

    # ------------------------------------------------------------------
    # local queries
    # ------------------------------------------------------------------
    def comm_rank(self, task: RankTask, comm: RealComm) -> int:
        comm.check_alive()
        return comm.rank_of(task.world_rank)

    def comm_size(self, comm: RealComm) -> int:
        comm.check_alive()
        return comm.size

    def translate_group_ranks(
        self, group: Group, ranks: Sequence[int], other: Group
    ) -> List:
        """MPI_Group_translate_ranks — purely local (Section III-K)."""
        self._count("translate_group_ranks")
        return group.translate_ranks(ranks, other)

    # ------------------------------------------------------------------
    # memory (lower-half allocations are lost at restart)
    # ------------------------------------------------------------------
    def alloc_mem(self, nbytes: int) -> LhMemory:
        self._check()
        self._count("alloc_mem")
        mem = LhMemory(nbytes)
        self._lh_mem[mem.mem_id] = mem
        return mem

    def free_mem(self, mem: LhMemory) -> None:
        self._count("free_mem")
        if self._lh_mem.pop(mem.mem_id, None) is None:
            raise MpiInvalidHandle(f"free_mem of unknown {mem!r}")

    # ------------------------------------------------------------------
    # one-sided communication (fence-synchronized active target).
    # The *library* supports it; MANA's wrappers refuse it (Section II-B)
    # ------------------------------------------------------------------
    def win_create(self, task: RankTask, comm: RealComm, size: int):
        """Collective window creation; all members contribute ``size``
        float64 slots (allgathered, as real MPI_Win_create's size
        argument is per-process)."""
        from repro.simmpi.window import Window

        self._count("win_create")
        comm.check_alive()
        me = comm.rank_of(task.world_rank)
        sizes = yield from self.allgather(task, comm, int(size))
        key = ("win", comm.pt2pt_ctx, self._next_mgmt_seq(comm, task))
        existing = self._creation_memo.get(key)
        if existing is None:
            win = Window(comm, {r: n for r, n in enumerate(sizes)})
            self._creation_memo[key] = win
        else:
            win = existing
        return win

    def win_fence(self, task: RankTask, win):
        """Fence: synchronize members and flip the access epoch."""
        self._count("win_fence")
        me = win.comm.rank_of(task.world_rank)
        fence_seq = win.next_fence_seq(me)
        seq = win.comm.next_coll_seq(task.world_rank)
        yield from coll.barrier(run_rounds, (self, task, win.comm, seq), me)
        # exactly one member flips the epoch per fence instance; the
        # barrier guarantees the flip is ordered w.r.t. everyone's ops
        flip_key = ("win_fence", win.win_id, fence_seq)
        if self._creation_memo.get(flip_key) is None:
            self._creation_memo[flip_key] = True
            if win.in_epoch:
                win.close_epoch()
            else:
                win.open_epoch()
        yield Advance(self.machine.send_overhead)

    def win_put(self, task: RankTask, win, target: int, offset: int, data):
        self._count("win_put")
        yield Advance(
            self.machine.send_overhead
            + self.network.transit_time(
                task.world_rank, win.comm.world_rank(target),
                payload_nbytes(data),
            )
        )
        win.queue_put(target, offset, data)

    def win_get(self, task: RankTask, win, target: int, offset: int, count: int):
        self._count("win_get")
        yield Advance(
            self.machine.recv_overhead
            + self.network.transit_time(
                win.comm.world_rank(target), task.world_rank, count * 8
            )
        )
        return win.read(target, offset, count)

    def win_accumulate(self, task: RankTask, win, target: int, offset: int, data):
        self._count("win_accumulate")
        yield Advance(
            self.machine.send_overhead
            + self.network.transit_time(
                task.world_rank, win.comm.world_rank(target),
                payload_nbytes(data),
            )
        )
        win.queue_accumulate(target, offset, data)

    def win_free(self, task: RankTask, win) -> None:
        self._count("win_free")
        win.freed = True

    # ------------------------------------------------------------------
    # teardown (restart)
    # ------------------------------------------------------------------
    def destroy(self) -> Tuple[int, int]:
        """Kill this incarnation: helpers die, in-flight messages drop,
        endpoints detach.  Returns (helpers_killed, messages_purged)."""
        if self.destroyed:
            raise SimulationError("library destroyed twice")
        self.destroyed = True
        killed = 0
        for proc in self._helpers:
            if proc.alive:
                proc.kill()
                killed += 1
        purged = self.network.purge_in_flight()
        self.network.reset_endpoints()
        return killed, purged

    def pending_app_unexpected(self) -> int:
        """Count unexpected messages on application pt2pt contexts
        (the drain invariant: zero after a correct drain)."""
        app_ctxs = {c.pt2pt_ctx for c in self._comms.values()}
        return sum(
            len(ep.unexpected_in_contexts(app_ctxs)) for ep in self.endpoints
        )
