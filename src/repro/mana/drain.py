"""Point-to-point drain algorithms (paper Section III-B).

At phase two of the checkpoint every rank is stopped at a safe point,
but application bytes may still be (a) in flight in the fabric, (b) in
lower-half unexpected queues, or (c) already matched by a posted
``MPI_Irecv`` whose request nobody has tested yet.  A checkpoint that
discards the lower half would lose all three.  The drain pulls every
such byte up into MANA's buffered-message store (or completes the
pending request), using nothing but MPI calls.

Two algorithms, selectable by config:

* ``ALLTOALL`` (MANA-2.0): one ``MPI_Alltoall`` of per-pair cumulative
  sent-byte counters tells each rank exactly how many bytes to expect
  from each peer; it then drains locally with ``Iprobe``+``Recv``, and —
  the subtle case — calls ``MPI_Test`` on its existing ``Irecv`` records
  for messages that ``Iprobe`` can no longer see.
* ``COORDINATOR`` (original MANA): only process-total counters, bounced
  off the centralized coordinator in rounds until they balance; slower
  and unable to attribute a missing message to a sender.
"""

from __future__ import annotations

from repro.des.syscalls import Advance
from repro.errors import DrainError
from repro.mana.buffers import BufferedMessage
from repro.mana.requests import VReqKind
from repro.mana.runtime import ManaRank
from repro.simmpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.simnet.oob import COORDINATOR_ID

#: bound on progress-free drain iterations before declaring failure
MAX_DRAIN_SPINS = 10_000


def _assert_app_quiesced(mrank: ManaRank) -> None:
    """Post-drain invariant: once this rank's per-pair deficit is zero,
    no *application*-context message destined to it may still be in the
    fabric (every rank is at a safe point during the drain, so nothing
    new is being sent; collective-internal traffic is out of scope).
    ``Network.app_in_flight`` is a simulation-side oracle the real MANA
    does not have — we use it to catch accounting drift, not to drain.
    It costs O(messages in flight to this rank), so it runs on every
    rank in every round; the trace event also reports the fabric's
    lifetime high-water mark."""
    net = mrank.rt.network
    leftovers = net.app_in_flight(dst=mrank.rank)
    if leftovers:
        raise DrainError(
            f"rank {mrank.rank}: drain reported balanced counters with "
            f"{len(leftovers)} application message(s) still in flight: "
            + ", ".join(repr(m) for m in leftovers[:8])
        )
    tr = mrank.rt.sched.tracer
    if tr.enabled:
        tr.emit(
            "drain_accounting", "quiesced", rank=mrank.rank,
            in_flight_peak=net.in_flight_peak,
        )


def _probe_and_buffer(mrank: ManaRank):
    """Sweep every active communicator with Iprobe; Recv anything found
    into the drain buffer.  Returns True if progress was made."""
    lib, task = mrank.rt.lib, mrank.task
    progressed = False
    for meta in mrank.vcomms.active_metas():
        real, _ = mrank.vcomms.lookup(meta.vid)
        while True:
            flag, status = lib.iprobe(task, real, ANY_SOURCE, ANY_TAG)
            if not flag:
                break
            data, st = yield from lib.recv(task, real, status.source, status.tag)
            src_world = real.world_rank(st.source)
            mrank.counters.on_receive(src_world, st.count)
            mrank.drain_buffer.put(
                BufferedMessage(
                    comm_vid=meta.vid,
                    src_world=src_world,
                    tag=st.tag,
                    payload=data,
                    nbytes=st.count,
                )
            )
            progressed = True
    return progressed


def _test_pending_irecvs(mrank: ManaRank) -> bool:
    """The Section III-B subtlety: messages already matched by a posted
    Irecv are invisible to Iprobe — complete them via MPI_Test on MANA's
    records (two-step retirement, step one).

    With ``request_get_status`` (the Section III-A reviewer suggestion),
    the lower half is interrogated non-destructively instead: the bytes
    are counted, but the request stays live and the application's own
    Test/Wait later consumes it normally — MANA never has to write
    MPI_REQUEST_NULL into application memory asynchronously."""
    lib, task = mrank.rt.lib, mrank.task
    use_get_status = mrank.rt.cfg.request_get_status
    progressed = False
    for entry in mrank.vreqs.pending_irecvs():
        if entry.drain_counted:
            continue  # already accounted in an earlier sweep
        req = entry.recv_request()
        # a receive from MPI_PROC_NULL completes with nobody having
        # sent: counting it would leave a deficit no peer can balance
        counted = entry.peer is not PROC_NULL
        if use_get_status:
            flag, payload, st = lib.request_get_status(task, req)
            if not flag:
                continue
            if counted:
                mrank.counters.on_receive(st.source, st.count)
            entry.drain_counted = True
            progressed = True
            continue
        flag, payload = lib.test(task, req)
        if not flag:
            continue
        st = req.status  # world-rank source (endpoint-level status)
        if counted:
            mrank.counters.on_receive(st.source, st.count)
        real_comm, _ = mrank.vcomms.lookup(entry.comm_vid)
        user_status = lib.status_for_user(real_comm, st)
        if entry.kind is VReqKind.PRECV:
            # persistent: stage this cycle's result for the app's next
            # Test/Wait; the entry itself lives on for future Starts
            entry.p_staged = (payload, user_status)
            entry.drain_counted = True
        else:
            mrank.vreqs.complete_internally(entry, payload, user_status)
        progressed = True
    return progressed


def drain_alltoall(mrank: ManaRank):
    """MANA-2.0 drain: counter alltoall, then local settle."""
    rt = mrank.rt
    lib, task = rt.lib, mrank.task
    # a typed row in, a typed row out (one (nranks, 2) int64 array each
    # way): expected[i] = cumulative (bytes, messages) world rank i sent me
    my_sent = mrank.counters.sent_pairs()
    expected = yield from lib.alltoall(task, rt.internal_comm, my_sent)
    spins = 0
    while True:
        deficit = mrank.counters.deficit_from(expected)
        if not deficit:
            _assert_app_quiesced(mrank)
            return
        progressed = yield from _probe_and_buffer(mrank)
        if _test_pending_irecvs(mrank):
            progressed = True
        if not progressed:
            spins += 1
            if spins > MAX_DRAIN_SPINS:
                raise DrainError(
                    f"rank {mrank.rank}: drain stalled with deficits "
                    f"{deficit} after {spins} spins"
                )
            # bytes are still in flight; give the fabric time
            yield Advance(rt.binding.net_latency)
        else:
            spins = 0


def drain_coordinator(mrank: ManaRank):
    """Original MANA drain: totals via the coordinator, in rounds."""
    rt = mrank.rt
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_DRAIN_SPINS:
            raise DrainError(f"rank {mrank.rank}: coordinator drain stalled")
        rt.oob.send(
            COORDINATOR_ID,
            (
                "drain_counts",
                mrank.rank,
                mrank.counters.total_sent(),
                mrank.counters.total_received(),
            ),
        )
        directive = yield from mrank.park_for_directive(
            f"drain verdict rank {mrank.rank}"
        )
        if directive[0] != "drain_verdict":
            raise DrainError(
                f"rank {mrank.rank}: expected drain verdict, got {directive!r}"
            )
        if directive[1]:
            _assert_app_quiesced(mrank)
            return  # globally balanced
        yield from _probe_and_buffer(mrank)
        _test_pending_irecvs(mrank)
        yield Advance(rt.binding.net_latency)
