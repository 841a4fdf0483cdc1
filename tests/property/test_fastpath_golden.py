"""Golden equivalence suite for the DES fast path.

The scheduler rewrite (same-instant FIFO lane, lambda-free event
encoding), the fused pipeline dispatch, lazy tracing, and the memoized
cost models are all gated on ONE contract: every seeded scenario —
machines x configs x applications, checkpointed sessions and fault
scenarios included — produces **bit-identical** virtual times, trace
event streams, traffic counters, and per-rank results to the
pre-optimization implementation.

The fingerprints below were captured with ``tools/capture_goldens.py``
at the commit immediately before the fast-path work (the reference
implementation is preserved as
:class:`repro.des.scheduler.ReferenceScheduler`) — except the entries
whose programs split a communicator or allgather
(``dft_testbox_master``, ``dft_haswell_master``, ``md_knl_ft``,
``reexec_churn_2pc`` and the five ``alltoall_sub_p*``), recaptured once
when the lower half's ``allgather`` went from a ring to Bruck's
algorithm: an intentional model change that moved their virtual times,
event/message counts and trace streams, and none of their byte totals
or ``results_sha`` (``tools/capture_goldens.py --diff`` shows exactly
which keys move).  A second intentional change re-pinned the
checkpoint-bearing entries (``ckpt_ring_2pc``, ``ckpt_randpt2pt_ft``,
the three ``fault_*``, the four ``reexec_*`` — ``trace_sha`` only — and
``alltoall_sub_p7``/``p16``) when ``alltoall`` began running Bruck's
algorithm on blocks of at most ``ALLTOALL_SHORT_MSG`` bytes, which the
drain's counter exchange is; again no ``results_sha`` moved
(``results/ledger_pr19_compare.txt`` holds that ``--diff``).  A third
intentional change re-pinned the four ``reexec_*`` entries' ``events``
only, when a replayed call stopped yielding to the scheduler (a
bookkeeping key: no model key moved, see
``results/goldens_diff_replay_no_yield.txt``).  The two ``alt_*``
entries run every data collective above the lower half
(``CollectiveMode.PT2PT_ALWAYS``, Section III-E) with a checkpoint at
mid-run; they were captured while that layer still kept its own copy
of each algorithm, and pin that running the lower half's round plans
there instead changes nothing.  The capture tool
rewinds every process-global id counter (msg ids, request ids, window
and memory handles) at the start of each case, so each fingerprint is
order-independent — pytest may interleave cases freely and still match
a fresh-interpreter capture.  Two directions are checked:

* the optimized fast path still reproduces every golden, and
* ``ReferenceScheduler`` (the original heap-of-closures event loop)
  also reproduces them, so the goldens themselves stay anchored to the
  pre-optimization semantics and the A/B comparison is live, not
  historical.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python tools/capture_goldens.py
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "tools"))

from capture_goldens import (  # noqa: E402
    REEXEC_CASES,
    alltoall_matrix,
    matrix,
    reexec_fingerprint,
)

from repro.des.scheduler import ReferenceScheduler, Scheduler  # noqa: E402

#: captured by tools/capture_goldens.py before the fast-path work (the
#: four allgather-bearing entries at the Bruck switch, see above);
#: ``elapsed`` is the exact float repr of the final virtual time and
#: ``trace_sha`` hashes the full JSONL trace stream (every emission, in
#: order, with virtual timestamps)
GOLDENS = {
    "dft_testbox_master": {
        "bytes": 122430,
        "elapsed": "0.0019653001075625167",
        "events": 2652,
        "messages": 589,
        "results_sha": "29338a67a9640e7fd4123e7481dff6b6aec5e49d11351da2d1f463767726c2f6",
        "trace_sha": "c03d1b165c1cf35e9e5f2264d34746334f405406835b3bfb1e526e146ad3aa24",
    },
    "dft_haswell_master": {
        "bytes": 378116,
        "elapsed": "0.0019333934383793925",
        "events": 7899,
        "messages": 1867,
        "results_sha": "623f3b1093b957d1b3c172d651a225e52f3b399d93aaddbff31622fe445787a4",
        "trace_sha": "0f37fe2a083d5396b26cc69df13abfb913fc601857d475dcbac3b2f77eaaf0ad",
    },
    "ring_testbox_original": {
        "bytes": 240,
        "elapsed": "0.0012676074666666693",
        "events": 557,
        "messages": 66,
        "results_sha": "78275ade93a9d4726987b7c3d13a5d04a140fc53cc30fb52d631c76ed87c5f1e",
        "trace_sha": "9af638c4a661790519470000a518f23ec511a05ba9bb7da6c90c0bc1bb385cf1",
    },
    "randpt2pt_mn_2pc": {
        "bytes": 2304,
        "elapsed": "0.00019513000000000012",
        "events": 373,
        "messages": 54,
        "results_sha": "eb9a56721adf7986a38d7b1a59b75e5f6fc69c10fa47a47ca92ba5763a54bf51",
        "trace_sha": "a676c78a8767908be5eaf535099d0ddec9b654e4640d2613067e9bf08edf1ffa",
    },
    "md_knl_ft": {
        "bytes": 4747264,
        "elapsed": "0.18194710749766502",
        "events": 6495,
        "messages": 264,
        "results_sha": "6e9400d9595c888e72ce5a0e9f72801f86ee6d5ba1566178fdfa8fadce5a7cff",
        "trace_sha": "b2c865c7672a07efa8745d1a5ae2317ad6012010877bb8f096117cb07b11f0ec",
    },
    "icoll_testbox_2pc": {
        "bytes": 480,
        "elapsed": "0.0001864000000000001",
        "events": 458,
        "messages": 75,
        "results_sha": "4ce5a975c0838bd521d3971fb177f412d72a4ab903177ea533d527b7725d35c0",
        "trace_sha": "103f0b682b91e7ddb6ed24969cbf3fb735040cc8cfffebab19ca5f46bd4a11a1",
    },
    "ckpt_ring_2pc": {
        "bytes": 1392,
        "elapsed": "0.020849253316666698",
        "events": 898,
        "messages": 84,
        "results_sha": "1041f5b3af406f7d21617730183b48ac133ddc1bc70d6a1eb8caec0f62b21f5c",
        "trace_sha": "af588987d02ee66a8a9b22043696b964fbb21d21a4bf14a48662acd8bbdcbcf1",
    },
    "ckpt_randpt2pt_ft": {
        "bytes": 2432,
        "elapsed": "0.0015422681249999996",
        "events": 454,
        "messages": 48,
        "results_sha": "e243f514f4b24aeb6630ddca24682072bf574ba99340144335590d80ab7db1d3",
        "trace_sha": "5d1c64af8e8260081c1237dedb6cbd36ea8d3744128d3097cd6e8cf215ef3e2d",
    },
    "alt_dft_haswell_2pc": {
        "bytes": 390404,
        "elapsed": "1.370440102583031",
        "events": 7096,
        "messages": 939,
        "results_sha": "623f3b1093b957d1b3c172d651a225e52f3b399d93aaddbff31622fe445787a4",
        "trace_sha": "05b365f29239a00c863f39475f27060710b484890b9d991281d6a6c2aeae3b39",
    },
    "alt_md_testbox_2pc": {
        "bytes": 4749568,
        "elapsed": "0.09835199345953273",
        "events": 2303,
        "messages": 288,
        "results_sha": "6e9400d9595c888e72ce5a0e9f72801f86ee6d5ba1566178fdfa8fadce5a7cff",
        "trace_sha": "6259f4c5c5c5ef70a2c63687706890c33cadf625461419e1bd41fb8319fd99c8",
    },
    "fault_kill_after_ckpt": {
        "ok": True,
        "summary_sha": "59afb38836f2500135bb6ed21531062d5dd33c3ac40d0052c734642c53e2a59d",
    },
    "fault_drop_commit": {
        "ok": True,
        "summary_sha": "93b020a8ecfbac4db7858684fb148c0dbe0a5a11082e95e6879791adde7dac9a",
    },
    "fault_corrupt_blob": {
        "ok": True,
        "summary_sha": "06731c3d898999de9cb536ac4746127fc104ee77e25730a885c4263c915fdf7a",
    },
    "reexec_ring_2pc": {
        "bytes": 128,
        "elapsed": "0.005599789447619044",
        "events": 260,
        "messages": 24,
        "results_sha": "c441a2ca6d2b04cdc1dacfcfd67fbd34992282cd0840487575a5c58b087155d6",
        "trace_sha": "2dee82ffa18cf15e7c2049ca2dc5dc5a6b9963d95971faed282e7491365fa105",
    },
    "reexec_randpt2pt_2pc": {
        "bytes": 960,
        "elapsed": "0.003365594761904759",
        "events": 261,
        "messages": 30,
        "results_sha": "7d94c65748cff3e78ce7862d411ac8f887fbb513dc9acc104b56c42bfeed4571",
        "trace_sha": "3350452103147f047d2e3a3ceb894603078d02e9f3b00e83b933fb0ef52a5424",
    },
    "reexec_icoll_2pc": {
        "bytes": 960,
        "elapsed": "0.00453680571428571",
        "events": 725,
        "messages": 128,
        "results_sha": "dad70af6a6059e3e33a3d897335ee163fceae69642ea96124b715242eecf32d8",
        "trace_sha": "7f6e0528898034f0be5da0ae61409774ba3fca5476b8bddcea9a95470a675d8b",
    },
    "reexec_churn_2pc": {
        "bytes": 416,
        "elapsed": "0.003516728228571426",
        "events": 169,
        "messages": 28,
        "results_sha": "e1d24f1677082980ad3e61fc2a64d8232c03217ff3038c0b27aba60897d34db7",
        "trace_sha": "7acc0d490ca6ccc37df0a123ce92adf51036fc1aa004e64cda3b925d7ac19140",
    },
}

#: ``alltoall`` on a permuted sub-communicator.  ``alltoall_sub_p*``
#: send 48-byte blocks like the drain's counter exchange and pin Bruck's
#: algorithm (p <= 3 is message-for-message the pairwise exchange, so
#: those three have not moved since the helpers were inlined, apart from
#: the ``comm_split`` ahead of them when ``allgather`` went Bruck);
#: ``alltoall_long_sub_p*`` pad the blocks past ``ALLTOALL_SHORT_MSG``
#: and pin the pairwise exchange, captured at the last commit that ran
#: it at every size
ALLTOALL_GOLDENS = {
    "alltoall_sub_p1": {
        "bytes": 444,
        "elapsed": "1.706333333333333e-06",
        "events": 27,
        "finished_sha": "9b9025a6b303744d59cfca5af022e80a8ff34eae2506ee245b238af4a8e34280",
        "messages": 6,
        "results_sha": "eca1f03f805fb7bf2885a6995e03e44cf419bfd04dfda7940240d60abce58c34",
    },
    "alltoall_sub_p2": {
        "bytes": 858,
        "elapsed": "2.5611e-06",
        "events": 44,
        "finished_sha": "79653e81c94123d4d0bc2aa54fa61d8dc355095ae0e274929c89db309e891f82",
        "messages": 10,
        "results_sha": "c817e97aef1f38fa01e8045402a7990017c05a15de082ac26d440c858d938591",
    },
    "alltoall_sub_p3": {
        "bytes": 1432,
        "elapsed": "4.263766666666667e-06",
        "events": 89,
        "finished_sha": "e17b84253e0b580fead4193165737b64ce10df45fc0c7273bef830a0ef17172a",
        "messages": 21,
        "results_sha": "56e859dbb2e81573032f3d0e07ec1ac88684ed10b22118015b409411b660c92d",
    },
    "alltoall_sub_p7": {
        "bytes": 6336,
        "elapsed": "7.909558333333335e-06",
        "events": 222,
        "finished_sha": "606704c24080530359c2cdb1cf333bb50263a386bd8f1491edc706d2279f1b06",
        "messages": 57,
        "results_sha": "4381cda115b9fb7ed427dd7293937350227bdfdeec8dea4d5b9eb9ae1ffc5a38",
    },
    "alltoall_sub_p16": {
        "bytes": 36510,
        "elapsed": "1.3835374999999995e-05",
        "events": 614,
        "finished_sha": "139eb48a51b01b8eb9662a6ed352257fe5856e48a9434e301717cc73b376fc28",
        "messages": 154,
        "results_sha": "8be5bc32cdd41eba0c6868324c1ff5fd2ebc840c5c2cfc6487584b6d99c95828",
    },
    "alltoall_long_sub_p7": {
        "bytes": 17928,
        "elapsed": "1.051475833333333e-05",
        "events": 306,
        "finished_sha": "ed69b4b4f4af30530fdd53c71a8cb76c448640f8132e8c8527be406b932af1fe",
        "messages": 78,
        "results_sha": "88f5dc9e53c61f1641af807dc90f40828a69ea949f0441ba17b0b0c5a69ff1fd",
    },
    "alltoall_long_sub_p16": {
        "bytes": 95454,
        "elapsed": "3.213657499999999e-05",
        "events": 1282,
        "finished_sha": "d5018ade53094a50963d07a48a719df6c36d66028cbb3fec33955e86988dab74",
        "messages": 330,
        "results_sha": "5ef13186aef00e3f39ce0064bc2be34100d7e588900a2a02a83fc01d0611748c",
    },
}

_MATRIX = dict(matrix())
_ALLTOALL_MATRIX = dict(alltoall_matrix())


def test_matrix_covers_goldens():
    """The capture tool and the pinned goldens must agree on the cases."""
    assert set(_MATRIX) == set(GOLDENS)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_fastpath_bit_identical(name):
    """Optimized scheduler + fused pipeline reproduce every golden."""
    assert _MATRIX[name]() == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(ALLTOALL_GOLDENS))
def test_alltoall_bit_identical(name):
    """Result rows, per-member finishing times, traffic and event counts
    of both ``alltoall`` algorithms match their pins."""
    assert set(_ALLTOALL_MATRIX) == set(ALLTOALL_GOLDENS)
    assert _ALLTOALL_MATRIX[name]() == ALLTOALL_GOLDENS[name]


@pytest.mark.parametrize(
    "name",
    ["dft_testbox_master", "ring_testbox_original", "ckpt_ring_2pc",
     "fault_drop_commit"],
)
def test_reference_scheduler_bit_identical(name, monkeypatch):
    """The preserved pre-optimization event loop reproduces the same
    goldens, keeping the A/B anchor live (a subset: the reference loop
    is slower, and one success per scenario family pins the anchor)."""
    import repro.mana.session as session_mod

    monkeypatch.setattr(session_mod, "Scheduler", ReferenceScheduler)
    assert _MATRIX[name]() == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(REEXEC_CASES))
def test_ir_noop_bit_identical(name):
    """The IR replay interpreter with the no-op pass pipeline is
    bit-identical to the legacy per-call log walk: same virtual times,
    same trace stream, same traffic, same results.  The ``"off"``
    fingerprints are pinned in GOLDENS (captured via the capture tool's
    REEXEC matrix entries), so this also anchors legacy REEXEC itself."""
    assert reexec_fingerprint(*REEXEC_CASES[name],
                              replay_compile="noop") == GOLDENS[name]


@pytest.mark.parametrize("name", sorted(REEXEC_CASES))
def test_ir_opt_same_times_same_events(name):
    """The optimizing pipeline changes how replay executes, never what
    it computes: final virtual times, traffic counters, per-rank results
    and scheduler events match the legacy goldens exactly (no
    interpreter yields per replayed call, so there is nothing left for
    it to eliminate).  The trace stream legitimately differs (ir_pass
    events)."""
    got = reexec_fingerprint(*REEXEC_CASES[name], replay_compile="opt")
    gold = GOLDENS[name]
    for key in ("elapsed", "messages", "bytes", "results_sha", "events"):
        assert got[key] == gold[key], key


def test_reference_is_a_distinct_loop():
    """Guard against the reference silently collapsing into the fast
    path (which would make the A/B test vacuous)."""
    assert ReferenceScheduler is not Scheduler
    assert ReferenceScheduler.run is not Scheduler.run
    assert ReferenceScheduler.schedule is not Scheduler.schedule
