"""The MANA wrapper library — the "stub MPI library" of the upper half.

Every public method is one MPI entry point of the paper's Figure 1
wrapper.  The per-call logic lives in the layered interposition
pipeline (:mod:`repro.mana.pipeline`): a declarative registry row per
call, lowered through five composable stages —

* :class:`~repro.mana.pipeline.gate.TwoPhaseGate` — the two-phase-commit
  prologue (``maybe_checkin`` safe points, the horizon gate of Section
  III-K, blocked-wait check-in policy),
* :class:`~repro.mana.pipeline.virtualization.Virtualization` — virtual
  to real translation through the costed ID tables (Section III-A),
* :class:`~repro.mana.pipeline.costing.LowerHalfCosting` — the costed
  context switch into the lower half (FS register, Section III-G) plus
  the per-call overhead knobs of Sections III-H/III-I,
* :class:`~repro.mana.pipeline.accounting.DrainAccounting` — per-pair
  byte counting for the drain (Section III-B),
* :class:`~repro.mana.pipeline.lowering.SemanticLowering` — the
  semantic conversions of Section III item 1 (``MPI_Send`` becomes
  ``MPI_Isend`` + test, ``MPI_Recv``/``MPI_Wait`` become ``MPI_Test``
  polling loops, ``MPI_Alloc_mem`` becomes an upper-half allocation)
  and the non-blocking-collective log (Section III-I item 4).

The wrapper methods are deliberately *plain functions*: each calls the
rank's compiled row (``pipeline.rows[name]``) with positional arguments
and returns the generator it hands back — the lowering handler's own,
unless the tracer or a pending checkpoint intent needs the full stage
chain (callers ``yield from`` the result either way).  No frame of this
module sits in a call's resume chain, which the event loop pays on
every Advance/Park.

This module deliberately imports neither ``fsreg`` nor ``counters``:
costing and drain accounting are reachable only through their stages
(``tools/check_layering.py`` enforces this).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.des.syscalls import Advance
from repro.errors import UnsupportedMpiFeature
from repro.mana.config import ManaConfig
from repro.mana.handles import RequestSlot
from repro.mana.pipeline import Pipeline
from repro.mana.runtime import ManaRank, RankPhase
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG
from repro.simmpi.ops import SUM, ReductionOp


class UpperHalfMemory:
    """MANA's replacement for MPI_Alloc_mem: plain upper-half memory that
    survives restart (the MPI_Alloc_mem -> malloc conversion)."""

    _ids = 0

    def __init__(self, nbytes: int):
        UpperHalfMemory._ids += 1
        self.mem_id = UpperHalfMemory._ids
        self.nbytes = nbytes
        self.data = bytearray(min(nbytes, 1 << 20))

    def __repr__(self) -> str:
        return f"<UpperHalfMemory #{self.mem_id} {self.nbytes}B>"


class ManaApi:
    """The wrapper MPI API for one rank (the upper-half stub library)."""

    def __init__(self, mrank: ManaRank):
        self.mrank = mrank
        self.rt = mrank.rt
        self.cfg: ManaConfig = mrank.rt.cfg
        #: the session's lower-half binding — the only machine the
        #: wrappers ever price against (rebuilt per restart target)
        self.binding = mrank.rt.binding
        self.COMM_WORLD = mrank.vcomms.world_vid
        self.replay_log = None  # REEXEC recording, attached by the session
        self._call_seq = 0      # public wrapper-call counter (REEXEC)
        self._uh_mem: Dict[int, UpperHalfMemory] = {}
        self._pipe = Pipeline(self)
        #: the rank's compiled rows; every entry point below is one
        #: ``rows[name](positional args)``
        self._rows = self._pipe.rows

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.mrank.rank

    @property
    def size(self) -> int:
        return self.rt.nranks

    def comm_rank(self, comm: Optional[int] = None) -> int:
        if comm is None:
            comm = self.COMM_WORLD
        return self.mrank.vcomms.meta[comm].me

    def comm_size(self, comm: Optional[int] = None) -> int:
        if comm is None:
            comm = self.COMM_WORLD
        return len(self.mrank.vcomms.meta[comm].world_ranks)

    def compute(self, seconds: Optional[float] = None, flops: Optional[float] = None):
        if flops is not None:
            seconds = self.binding.compute_time(flops)
        if seconds is None:
            raise ValueError("compute() needs seconds or flops")
        yield Advance(seconds)

    def _resolve(self, param: Any) -> Any:
        """Fortran named-constant translation (Section III-F)."""
        return self.mrank.fortran.resolve(param)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, data, dest, tag: int = 0, comm: Optional[int] = None):
        return self._rows["isend"](data, dest, tag, comm)

    def send(self, data, dest, tag: int = 0, comm: Optional[int] = None):
        return self._rows["send"](data, dest, tag, comm)

    def irecv(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None):
        return self._rows["irecv"](source, tag, comm)

    def recv(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None):
        return self._rows["recv"](source, tag, comm)

    def sendrecv(self, senddata, dest, sendtag: int = 0, source=ANY_SOURCE,
                 recvtag=ANY_TAG, comm: Optional[int] = None):
        return self._rows["sendrecv"](
            senddata, dest, sendtag, source, recvtag, comm)

    def iprobe(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None):
        return self._rows["iprobe"](source, tag, comm)

    def probe(self, source=ANY_SOURCE, tag=ANY_TAG, comm: Optional[int] = None):
        return self._rows["probe"](source, tag, comm)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def test(self, slot: RequestSlot):
        return self._rows["test"](slot)

    def wait(self, slot: RequestSlot):
        return self._rows["wait"](slot)

    def waitall(self, slots: Sequence[RequestSlot]):
        return self._rows["waitall"](slots)

    def waitany(self, slots: Sequence[RequestSlot]):
        return self._rows["waitany"](slots)

    def testany(self, slots: Sequence[RequestSlot]):
        return self._rows["testany"](slots)

    def testall(self, slots: Sequence[RequestSlot]):
        return self._rows["testall"](slots)

    # ------------------------------------------------------------------
    # persistent point-to-point (MPI_Send_init / MPI_Recv_init / Start)
    # ------------------------------------------------------------------
    def send_init(self, data, dest, tag: int = 0, comm: Optional[int] = None):
        return self._rows["send_init"](data, dest, tag, comm)

    def recv_init(self, source=ANY_SOURCE, tag=ANY_TAG,
                  comm: Optional[int] = None):
        return self._rows["recv_init"](source, tag, comm)

    def start(self, slot: RequestSlot, data=None):
        return self._rows["start"](slot, data)

    def request_free(self, slot: RequestSlot):
        return self._rows["request_free"](slot)

    # ------------------------------------------------------------------
    # internal pt2pt for the alternative collective implementation
    # (reserved tag space, full MANA accounting, check-ins allowed)
    # ------------------------------------------------------------------
    def _internal_isend(self, comm_vid: int, dest: int, tag: int, data):
        return self._pipe.lower.internal_isend(comm_vid, dest, tag, data)

    def _internal_recv(self, comm_vid: int, source: int, tag: int):
        return self._pipe.lower.internal_recv(comm_vid, source, tag)

    # ------------------------------------------------------------------
    # blocking collectives
    # ------------------------------------------------------------------
    def barrier(self, comm: Optional[int] = None):
        return self._rows["barrier"](comm, {})

    def bcast(self, data, root: int = 0, comm: Optional[int] = None):
        data = self._resolve(data)
        return self._rows["bcast"](comm, {"data": data, "root": root})

    def reduce(self, data, op: ReductionOp = SUM, root: int = 0,
               comm: Optional[int] = None):
        return self._rows["reduce"](
            comm, {"data": data, "op": op, "root": root})

    def allreduce(self, data, op: ReductionOp = SUM, comm: Optional[int] = None):
        return self._rows["allreduce"](comm, {"data": data, "op": op})

    def gather(self, data, root: int = 0, comm: Optional[int] = None):
        return self._rows["gather"](comm, {"data": data, "root": root})

    def scatter(self, data, root: int = 0, comm: Optional[int] = None):
        return self._rows["scatter"](comm, {"data": data, "root": root})

    def allgather(self, data, comm: Optional[int] = None):
        return self._rows["allgather"](comm, {"data": data})

    def alltoall(self, data: List[Any], comm: Optional[int] = None):
        return self._rows["alltoall"](comm, {"data": data})

    def scan(self, data, op: ReductionOp = SUM, comm: Optional[int] = None):
        return self._rows["scan"](comm, {"data": data, "op": op})

    def reduce_scatter_block(self, data: List[Any], op: ReductionOp = SUM,
                             comm: Optional[int] = None):
        return self._rows["reduce_scatter_block"](
            comm, {"data": data, "op": op})

    # ------------------------------------------------------------------
    # non-blocking collectives: log-and-replay (Section III-I item 4)
    # ------------------------------------------------------------------
    def ibarrier(self, comm: Optional[int] = None):
        return self._rows["ibarrier"](comm, {})

    def ibcast(self, data, root: int = 0, comm: Optional[int] = None):
        return self._rows["ibcast"](comm, {"data": data, "root": root})

    def ireduce(self, data, op: ReductionOp = SUM, root: int = 0,
                comm: Optional[int] = None):
        return self._rows["ireduce"](
            comm, {"data": data, "op": op, "root": root})

    def iallreduce(self, data, op: ReductionOp = SUM, comm: Optional[int] = None):
        return self._rows["iallreduce"](comm, {"data": data, "op": op})

    def ialltoall(self, data: List[Any], comm: Optional[int] = None):
        return self._rows["ialltoall"](comm, {"data": data})

    def iallgather(self, data, comm: Optional[int] = None):
        return self._rows["iallgather"](comm, {"data": data})

    # ------------------------------------------------------------------
    # communicator management (collective on the parent)
    # ------------------------------------------------------------------
    def comm_split(self, color, key: int = 0, comm: Optional[int] = None):
        return self._rows["comm_split"](comm, {"color": color, "key": key})

    def comm_dup(self, comm: Optional[int] = None):
        return self._rows["comm_dup"](comm, {})

    def comm_create(self, ranks: Sequence[int], comm: Optional[int] = None):
        return self._rows["comm_create"](comm, {"ranks": ranks})

    def comm_free(self, comm: int):
        return self._rows["comm_free"](comm)

    # ------------------------------------------------------------------
    # memory: MPI_Alloc_mem -> upper-half malloc (Section III item 1)
    # ------------------------------------------------------------------
    def alloc_mem(self, nbytes: int):
        return self._rows["alloc_mem"](nbytes)

    def free_mem(self, mem: UpperHalfMemory):
        return self._rows["free_mem"](mem)

    # ------------------------------------------------------------------
    def win_create(self, *a, **kw):
        raise UnsupportedMpiFeature(
            "MANA does not support the MPI_Win_ one-sided family "
            "(paper Section II-B: on the roadmap; Section IV-B: VASP 6 "
            "must be compiled with MPI_Win use disabled)"
        )

    win_allocate = win_create
    win_fence = win_create
    win_put = win_create
    win_get = win_create
    win_accumulate = win_create
    win_free = win_create

    # ------------------------------------------------------------------
    def _finalize(self):
        """Wrapper epilogue for the whole program: a rank that finishes
        while a checkpoint is pending still participates in it.

        Finalize synchronizes the world (as MPI_Finalize effectively
        does), so no rank can disappear while others - whom a pending
        checkpoint must include - are still running."""
        yield from self.barrier()
        self.mrank.app_finished_at = self.rt.sched.now
        from repro.simnet.oob import COORDINATOR_ID
        while True:
            while self.mrank.intent:
                yield from self._pipe.gate.checkin("finalize")
            # deregistration handshake: the coordinator only grants
            # finalize while no checkpoint is in progress, closing the
            # race between a checkpoint request and process exit
            self.rt.oob.send(
                COORDINATOR_ID, ("finalize_request", self.mrank.rank)
            )
            directive = yield from self.mrank.park_for_directive(
                f"finalize handshake rank {self.mrank.rank}"
            )
            if directive == ("finalize_ok",):
                break
            # retry: a checkpoint intent is (or was) in flight; the OOB
            # channel is FIFO, so by now the intent flag is visible
        self.mrank.finalized = True
        self.mrank.phase = RankPhase.DONE
    # NOTE: _finalize and compute stay generator functions (they yield
    # directly); everything routed through the pipeline returns the
    # row's generator instead.
