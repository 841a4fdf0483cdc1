"""Figure 3: checkpoint/restart overhead of MANA running GROMACS.

Paper setup: GROMACS at 2048 processes (64 nodes), checkpointed and
restarted 10 times, images on Cori's burst buffer; blue bars checkpoint
time, red bars restart time, yellow line total checkpoint file size.
Reported shape: times roughly flat across rounds, restart somewhat
larger than checkpoint; MANA survived all 10 rounds on each partition.

Here: the MD proxy under ``feature/2pc`` with evenly spaced
checkpoint+restart cycles; the harness asserts the trajectory is
bit-identical to an uncheckpointed run.  Quick scale: 128 ranks and 3
rounds; ``REPRO_BENCH_SCALE=full``: 2048 ranks and 10 rounds.
"""

from repro.bench import (
    BenchScale,
    checkpoint_rounds,
    current_scale,
    save_result,
    write_bench_json,
)
from repro.hosts import CORI_HASWELL, CORI_KNL
from repro.mana import ManaConfig
from repro.util.tables import AsciiTable


def replay_compare(nranks=128, steps=24, frac=0.5, machine=CORI_HASWELL,
                   restart_rounds=3):
    """Compiled vs interpreted REEXEC restart on the same saved image.

    Halts a run mid-flight, saves the image, then resumes it
    ``restart_rounds`` times per mode: with the raw per-call log walk
    (``replay_compile="off"``) and through the IR compiler with the
    optimizing pass pipeline (``"opt"``).  The opt rounds share one
    compiled program per rank (``compile_image``) — the replay program
    is a property of the saved image, so the Figure 3 regime of repeated
    restarts compiles once and replays many times.  Asserts every resume
    produces identical results and final virtual times, and reports the
    replay-phase wall-clock ratio off/opt (resume start to the last
    rank's replay-to-live transition, best of rounds; the one-off
    ``compile_s`` is reported apart) and the scheduler events each mode
    made.  Neither
    interpreter yields to the scheduler for a replayed call, so both
    make the same events (``events_saved`` is 0).

    The workload is a token ring with long logs (``steps * 8`` laps)
    rather than the MD proxy: REEXEC cannot yet resume a checkpoint
    parked inside a multi-request ``waitall`` (earlier sub-waits
    already retired their virtual requests before the snapshot — see
    DESIGN.md, REEXEC limits), and the MD halo exchange hits that on
    essentially every cut point.  The ring's recv/send logs make the
    replay phase the dominant restart cost, which is the phase the
    compiler targets.
    """
    import gc
    import os
    import tempfile
    import time

    from repro.apps.micro import TokenRing
    from repro.mana.ir_bridge import compile_image
    from repro.mana.session import (
        CheckpointPlan,
        ManaSession,
        resume_from_checkpoint,
    )

    laps = steps * 8
    cfg = ManaConfig.feature_2pc().but(record_replay=True)
    factory = lambda r: TokenRing(r, laps=laps, compute_s=1e-4)
    baseline = ManaSession(nranks, factory, machine, cfg).run()
    halted = ManaSession(nranks, factory, machine, cfg)
    halted.run(checkpoints=[
        CheckpointPlan(at=baseline.elapsed * frac, action="halt")
    ])
    fd, path = tempfile.mkstemp(suffix=".ckpt")
    os.close(fd)
    modes = {}
    try:
        halted.save_checkpoint(path)
        for mode in ("off", "opt"):
            compiled = None
            t0 = time.perf_counter()
            if mode != "off":
                compiled = compile_image(
                    path, cfg.but(replay_compile=mode), machine)
            compile_s = time.perf_counter() - t0
            rec = {"compile_s": compile_s, "restart_rounds": restart_rounds}
            for _ in range(restart_rounds):
                sess = resume_from_checkpoint(path, factory, machine, cfg,
                                              replay_compile=mode,
                                              compiled=compiled)
                # the timed region is the replay phase: scheduler start
                # to the last rank's replay-to-live transition.  Image
                # deserialization above and the live remainder below
                # are identical in both modes; a collection beforehand
                # keeps the GC's nondeterminism out of the window
                gc.collect()
                t0 = time.perf_counter()
                out = sess.run()
                wall = time.perf_counter() - t0
                assert out.results == baseline.results, mode
                phase_end = max(
                    r["wall_stamp"] for r in sess.rt.reexec_records
                )
                rec["wall_s"] = min(rec.get("wall_s", 9e9), wall)
                rec["replay_wall_s"] = min(
                    rec.get("replay_wall_s", 9e9), phase_end - t0)
                rec["elapsed"] = out.elapsed
                rec["events"] = sess.sched.events_run
                rec["replayed_calls"] = sum(
                    r["replayed_calls"] for r in sess.rt.reexec_records
                )
            modes[mode] = rec
    finally:
        os.unlink(path)
    # the equivalence gate: compilation changes how replay executes,
    # never what it computes — final virtual times match exactly
    assert modes["off"]["elapsed"] == modes["opt"]["elapsed"]
    return {
        "nranks": nranks,
        "steps": steps,
        "halt_frac": frac,
        "machine": machine.name,
        "modes": modes,
        "events_saved": modes["off"]["events"] - modes["opt"]["events"],
        "replay_speedup": (modes["off"]["replay_wall_s"]
                           / modes["opt"]["replay_wall_s"]),
    }


def sweep():
    scale = current_scale()
    if scale is BenchScale.FULL:
        nranks, rounds, steps = 2048, 10, 40
    else:
        nranks, rounds, steps = 128, 3, 24
    cfg = ManaConfig.feature_2pc()
    data = {"nranks": nranks, "rounds": rounds, "machines": {}}
    for machine in (CORI_HASWELL, CORI_KNL):
        out = checkpoint_rounds(nranks, machine, cfg, rounds, steps)
        data["machines"][machine.name] = {
            "checkpoints": out.checkpoints,
            "restarts": out.restarts,
            "image_bytes": out.image_bytes,
        }
    # the replay comparison runs at its own rank count: the compiled
    # interpreter targets the per-rank replay stream, and above ~64
    # ranks the session wire-up (identical in both modes) dominates the
    # phase window and washes the contrast out
    data["replay_restart"] = replay_compare(nranks=64, steps=steps)
    return data


def render(data) -> str:
    lines = [
        "Figure 3 — Checkpoint/Restart overhead, MD proxy "
        f"at {data['nranks']} ranks, {data['rounds']} rounds (burst buffer)",
    ]
    for name, d in data["machines"].items():
        t = AsciiTable(
            ["round", "quiesce (s)", "checkpoint (s)", "restart (s)",
             "total image (GB)"],
            title=f"\n{name.upper()} nodes",
        )
        for i, rec in enumerate(d["checkpoints"]):
            t.add_row(
                [
                    i + 1,
                    f"{rec['quiesce_time']:.4f}",
                    f"{rec['checkpoint_time']:.4f}",
                    f"{rec.get('restart_time', 0.0):.4f}",
                    f"{rec['image_bytes_total'] / 1e9:.2f}",
                ]
            )
        lines.append(t.render())
    rr = data.get("replay_restart")
    if rr:
        lines.append(
            f"\nREEXEC replay compilation ({rr['machine']}, "
            f"{rr['nranks']} ranks, halt at {rr['halt_frac']:.0%}): "
            f"replay-phase wall-clock off/opt {rr['replay_speedup']:.2f}x, "
            f"{rr['modes']['opt']['events']} scheduler events in both "
            f"({rr['events_saved']} saved) over "
            f"{rr['modes']['off']['replayed_calls']} replayed calls"
        )
    return "\n".join(lines)


def smoke_rss_ceiling_mb(nranks: int) -> float:
    """What ``--smoke`` may peak at, in MB of ``ru_maxrss``: linear in
    the rank count (the interpreter plus ~0.17 MB per rank), 400 MB at
    2048 ranks, where 297 MB is measured.  A per-rank structure of p
    entries (p^2 in all: 677 MB at 2048 before the counters went
    sparse) breaks it."""
    return 48.0 + 352.0 * nranks / 2048


def smoke(nranks: int = 512, rounds: int = 2, steps: int = 12) -> dict:
    """Checkpoint+restart rounds at paper-regime rank count (CI target)."""
    out = checkpoint_rounds(nranks, CORI_HASWELL,
                            ManaConfig.feature_2pc(), rounds, steps)
    assert len(out.checkpoints) == rounds  # every round survived
    return {"nranks": nranks, "rounds": rounds,
            "checkpoints": out.checkpoints, "restarts": out.restarts}


def main(argv=None) -> int:
    import argparse
    import resource
    import time

    parser = argparse.ArgumentParser(
        description="Figure 3: checkpoint/restart overhead sweep"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="also write the machine-readable BENCH_fig3.json",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path for --json (default: ./BENCH_fig3.json)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="checkpoint+restart rounds at 512 ranks instead of the sweep",
    )
    parser.add_argument("--nranks", type=int, default=None,
                        help="rank count for --smoke (default 512; "
                             "64 with --replay-compile)")
    parser.add_argument(
        "--replay-compile", action="store_true",
        help="with --smoke: compare compiled (IR) vs interpreted "
             "REEXEC restart instead of the checkpoint rounds",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        t0 = time.perf_counter()
        if args.replay_compile:
            point = replay_compare(nranks=args.nranks or 64, steps=12)
            dt = time.perf_counter() - t0
            print(f"smoke OK: {point['nranks']} ranks — compiled replay "
                  f"{point['replay_speedup']:.2f}x wall-clock vs the raw "
                  f"walk, {point['events_saved']} events saved, virtual "
                  f"times identical ({dt:.1f}s wall)")
            return 0
        point = smoke(args.nranks or 512)
        dt = time.perf_counter() - t0
        ck = point["checkpoints"]
        # ru_maxrss is in KB on Linux
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ceiling_mb = smoke_rss_ceiling_mb(point["nranks"])
        ok = rss_mb <= ceiling_mb
        print(f"smoke {'OK' if ok else 'FAILED'}: {point['nranks']} ranks, "
              f"{point['rounds']} "
              f"ckpt+restart rounds in {dt:.1f}s wall — checkpoint "
              f"{ck[0]['checkpoint_time']:.4f}s, restart "
              f"{ck[0].get('restart_time', 0.0):.4f}s virtual; peak RSS "
              f"{rss_mb:.0f} MB (ceiling {ceiling_mb:.0f} MB)")
        return 0 if ok else 1
    data = sweep()
    print(render(data))
    if args.json:
        path = write_bench_json("fig3", data, args.out)
        print(f"\nwrote {path}")
    return 0


def test_fig3_checkpoint_restart(once):
    data = once(sweep)
    save_result("fig3_ckpt_restart", render(data), data)
    for name, d in data["machines"].items():
        recs = d["checkpoints"]
        assert len(recs) == data["rounds"], name  # every round survived
        for rec in recs:
            assert rec["checkpoint_time"] > 0
            assert rec["restart_time"] > 0
            assert rec["image_bytes_total"] > 0
        # roughly flat across rounds (no monotone blow-up): each round
        # within 3x of the first
        first = recs[0]["checkpoint_time"]
        assert all(r["checkpoint_time"] < 3 * first for r in recs), name
    rr = data["replay_restart"]
    # replay_compare's internal asserts already pinned result/elapsed
    # equality; here just require the comparison actually measured work
    assert rr["modes"]["off"]["replayed_calls"] > 0
    # no interpreter yields per replayed call: every mode makes the
    # same scheduler events
    assert rr["events_saved"] == 0
    assert rr["replay_speedup"] > 0


if __name__ == "__main__":
    raise SystemExit(main())
