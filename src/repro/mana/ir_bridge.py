"""Adapters between the pure IR layer (``repro.ir``) and MANA.

``repro.ir`` knows nothing about MANA (layering rule 5); this module
supplies everything it needs:

* :func:`classification` — derive the :class:`~repro.ir.build.OpClassification`
  from the live ``RECORDED_OPS`` table (identity-materialized ops are
  detected by materializer identity, so a new recorded op is classified
  correctly — or at worst conservatively — without touching the IR);
* :func:`live_cost_fn` — the constant folder's window into the PR 6
  costing memo: per-opname live-pipeline cost estimates computed with
  the exact same float-op order as ``LowerHalfCosting``;
* :func:`compile_replay` — lower a rank's staged replay log, run the
  pass pipeline selected by ``ManaConfig.replay_compile``, emit one
  trace event per pass, and hand back the cursor the wrappers drive;
* :func:`programs_from_image` — load a saved checkpoint file and lower
  every rank's log (the ``repro ir`` CLI subcommand).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.ir import OpClassification, ReplayCursor, lower_entries
from repro.ir.ops import IrProgram
from repro.ir.passes import default_pipeline, drain_report, noop_pipeline
from repro.mana.api import COLLECTIVE_OPS, PT2PT_OPS
from repro.mana.gid import comm_gid_from_world_ranks
from repro.mana.pipeline.costing import LowerHalfCosting
from repro.mana.replay import (
    RECORDED_OPS,
    ReplayLog,
    _materialize_id,
    _register_comm_ops,
)
from repro.mana.runtime import ManaRank

#: ops that create a communicator handle (membership rides in the
#: recorded value, so only these resolve a comm_gid at lowering time)
COMM_CREATING_OPS = ("comm_split", "comm_dup", "comm_create")

#: per-opname virtual-request bookkeeping operations the live pipeline
#: would have charged (mirrors the CallSpec registry's vreq accounting)
_VREQ_OPS_ESTIMATE = {
    "isend": 1, "irecv": 1, "send_init": 1, "recv_init": 1,
    "ibarrier": 1, "ibcast": 1, "ireduce": 1, "iallreduce": 1,
    "ialltoall": 1, "iallgather": 1,
    "test": 1, "wait": 1, "waitany": 1, "testany": 1,
    "request_free": 1,
    "waitall": 2, "testall": 2,
}


#: memoized (table size, classification) — the table is static once the
#: lazy comm codecs are registered, and compile_replay runs per rank
_classification_cache: Optional[Tuple[int, OpClassification]] = None


def classification() -> OpClassification:
    """The op classification for the *current* ``RECORDED_OPS`` table."""
    global _classification_cache
    _register_comm_ops()  # comm codecs are registered lazily
    cached = _classification_cache
    if cached is not None and cached[0] == len(RECORDED_OPS):
        return cached[1]
    identity = frozenset(
        name for name, (extract, materialize) in RECORDED_OPS.items()
        if materialize is _materialize_id
    )
    recorded = frozenset(RECORDED_OPS)
    classify = OpClassification(
        identity=identity,
        collectives=frozenset(COLLECTIVE_OPS) & recorded,
        pt2pt=frozenset(PT2PT_OPS) & recorded,
        comm_creating=frozenset(COMM_CREATING_OPS),
        memory=frozenset({"alloc_mem", "free_mem"}),
        gid_fn=comm_gid_from_world_ranks,
    )
    _classification_cache = (len(RECORDED_OPS), classify)
    return classify


def live_cost_fn(binding) -> Callable[[str], float]:
    """Per-opname live-pipeline cost estimate for the constant folder.

    Resolves the same memoized base cost ``LowerHalfCosting`` would
    charge a live call (identical float-op order via
    :meth:`~repro.mana.pipeline.costing.LowerHalfCosting.pure_cost`),
    using the nominal single-lower-call shape plus the op's
    virtual-request bookkeeping.  An estimate of the work replay
    *skips*, reported by the fold pass — never charged during replay.
    Priced through a :class:`~repro.mana.binding.LowerHalfBinding`, so a
    cross-machine restart folds against the *target* machine's costs.
    """

    def cost(opname: str) -> float:
        return LowerHalfCosting.pure_cost(
            binding,
            lower_calls=1,
            vreq_ops=_VREQ_OPS_ESTIMATE.get(opname, 0),
            pt2pt=opname in PT2PT_OPS,
        )

    return cost


def compile_image(path, cfg, machine) -> Dict[int, IrProgram]:
    """Compile every rank's replay log of a saved image, once.

    The replay program is a property of the *image* — the log is frozen
    the moment the checkpoint is saved — so a job that restarts the same
    image repeatedly (the Figure 3 regime: ten restart rounds per
    partition) need not re-lower and re-optimize per resume.  Pass the
    result to ``resume_from_checkpoint(..., compiled=...)``.

    ``cfg.replay_compile`` selects the pipeline exactly as the inline
    path does; ``"off"`` returns the lowered (uncompiled) programs,
    which the resume path will ignore.
    """
    _meta, programs = programs_from_image(path)
    if cfg.replay_compile == "opt":
        from repro.mana.binding import LowerHalfBinding

        binding = LowerHalfBinding(cfg, machine)
        pipeline = default_pipeline(live_cost_fn=live_cost_fn(binding))
        programs = {
            rank: pipeline.run(program)[0]
            for rank, program in programs.items()
        }
    return programs


def compile_replay(mrank: ManaRank, log: ReplayLog) -> ReplayCursor:
    """Lower + (optionally) optimize one rank's staged replay log.

    ``cfg.replay_compile`` selects the pipeline: ``"noop"`` runs no
    passes (bit-identical to the raw log walk); ``"opt"`` runs the
    default optimizing pipeline and emits one ``restart``-stage trace
    event per pass.
    """
    rt = mrank.rt
    mode = rt.cfg.replay_compile
    program = lower_entries(log.entries, rank=mrank.rank,
                            classify=classification())
    if mode == "noop":
        program, _stats = noop_pipeline().run(program)
        return ReplayCursor(program)
    tracer = rt.sched.tracer

    def observe(pass_name: str, stats: Dict) -> None:
        if tracer.enabled:
            tracer.emit("restart", "ir_pass", rank=mrank.rank,
                        pass_name=pass_name, **stats)

    # one pipeline per runtime: every rank shares the cost-fold memo
    pipeline = getattr(rt, "_ir_pipeline", None)
    if pipeline is None:
        pipeline = default_pipeline(live_cost_fn=live_cost_fn(rt.binding))
        rt._ir_pipeline = pipeline
    program, _stats = pipeline.run(program, observe=observe)
    if tracer.enabled:
        tracer.emit("restart", "ir_compiled", rank=mrank.rank,
                    source_calls=program.source_calls,
                    ops=len(program.ops))
    return ReplayCursor(program)


# ----------------------------------------------------------------------
# offline entry points (the ``repro ir`` CLI subcommand)
# ----------------------------------------------------------------------

def programs_from_image(path) -> Tuple[dict, Dict[int, IrProgram]]:
    """Load a saved checkpoint file and lower every rank's replay log.

    Returns ``(metadata, {rank: IrProgram})``; raises ``ValueError`` if
    the image was captured without ``record_replay`` (no logs).
    """
    from repro.util import serde

    with open(path, "rb") as fh:
        saved = serde.loads(fh.read())
    classify = classification()
    programs: Dict[int, IrProgram] = {}
    for rank, img in enumerate(saved["images"]):
        entries = img["state"].get("replay_log")
        if entries is None:
            raise ValueError(
                f"{path}: rank {rank} has no replay log (the run was not "
                "record_replay=True); nothing to lower"
            )
        programs[rank] = lower_entries(entries, rank=rank, classify=classify)
    meta = {
        "nranks": saved["nranks"],
        "machine": saved["machine"],
        "cfg_name": saved["cfg_name"],
    }
    return meta, programs


def job_drain_report(
    programs: Dict[int, IrProgram],
    elastic_world: Optional[int] = None,
) -> dict:
    """Aggregate the drain-check analysis across a whole job; with
    ``elastic_world`` set, also flag recorded receives whose source rank
    would not exist after an elastic restart onto that many ranks."""
    return drain_report(programs, elastic_world=elastic_world)
