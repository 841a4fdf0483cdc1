"""Survivability: work lost, detection latency, restart overhead.

The quantity that motivates checkpointing at all (Garg et al.'s MTBF
argument, and the production-reliability concerns of the NERSC paper):
when a rank dies, how much virtual time is lost, how quickly does the
coordinator notice, and what does the automatic rollback-restart cost —
as a function of checkpoint interval?

Setup: a token-ring workload on TESTBOX under ``ManaConfig.
fault_tolerant()`` with periodic checkpointing; for each interval a
seeded-random rank is killed after the first committed epoch (calibrated
against a fault-free run with the same interval, so the kill provably
lands after a durable image exists).  Every point asserts the job still
produces bit-identical results, and the whole sweep is run twice with
the same seed to assert the summary itself is deterministic.

Expected shape: work lost and recovery overhead shrink as the
checkpoint interval shrinks (less progress between the last durable
epoch and the crash), while detection latency stays flat — it is set by
the heartbeat timeout, not by the interval.
"""

from repro.bench import BenchScale, current_scale, save_result, write_bench_json
from repro.faults import FaultInjector, FaultSchedule, token_ring_job
from repro.hosts import TESTBOX
from repro.mana import ManaConfig
from repro.mana.session import ManaSession
from repro.util.tables import AsciiTable

#: checkpoint interval as a fraction of the fault-free runtime
INTERVAL_FRACS = (0.15, 0.25, 0.4)


def fault_point(nranks: int, interval_frac: float, seed: int) -> dict:
    """One sweep point: periodic checkpoints + one seeded-random kill."""
    factory, expected = token_ring_job(nranks)
    ref = ManaSession(
        nranks, factory, TESTBOX, ManaConfig.feature_2pc()
    ).run()
    assert ref.results == expected
    interval = ref.elapsed * interval_frac
    # calibrate: the faulted run is event-identical to this fault-free
    # run until the kill fires, so the first commit time is exact
    base = ManaSession(
        nranks, factory, TESTBOX, ManaConfig.fault_tolerant()
    ).run(checkpoint_interval=interval)
    first_commit = next(
        r["completed_at"] for r in base.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    )
    tail = base.elapsed - first_commit
    sess = ManaSession(nranks, factory, TESTBOX, ManaConfig.fault_tolerant())
    plan = FaultSchedule(seed=seed).random_kill(
        nranks, first_commit + 0.05 * tail, first_commit + 0.8 * tail
    )
    FaultInjector(sess, plan).arm()
    out = sess.run(checkpoint_interval=interval)
    assert out.results == expected, "recovery changed the application output"
    assert len(out.recoveries) == 1, "expected exactly one recovery"
    kill = next(f for f in out.faults if f["kind"] == "kill_rank")
    detection = out.detections[0]
    recovery = out.recoveries[0]
    return {
        "interval_frac": interval_frac,
        "interval": interval,
        "killed_rank": kill["rank"],
        "killed_at": kill["at"],
        "detection_latency": detection["detected_at"] - kill["at"],
        "work_lost": recovery["work_lost"],
        "recovery_overhead": out.elapsed - base.elapsed,
        "checkpoints_committed": len(
            [r for r in out.checkpoints
             if not r.get("aborted") and not r.get("skipped")]
        ),
        "checkpoints_aborted": len(
            [r for r in out.checkpoints if r.get("aborted")]
        ),
        "elapsed": out.elapsed,
        "base_elapsed": base.elapsed,
        "ref_elapsed": ref.elapsed,
    }


def sweep(seed: int = 7) -> dict:
    nranks = 8 if current_scale() is BenchScale.FULL else 4
    return {
        "nranks": nranks,
        "seed": seed,
        "points": [
            fault_point(nranks, frac, seed) for frac in INTERVAL_FRACS
        ],
    }


def render(data) -> str:
    t = AsciiTable(
        ["ckpt interval (s)", "killed rank", "detect latency (s)",
         "work lost (s)", "recovery overhead (s)", "ckpts ok/aborted"],
        title=(
            "Fault recovery — work lost / detection latency / restart "
            f"overhead vs checkpoint interval ({data['nranks']} ranks, "
            f"seed {data['seed']})"
        ),
    )
    for p in data["points"]:
        t.add_row(
            [
                f"{p['interval']:.4f}",
                p["killed_rank"],
                f"{p['detection_latency']:.4f}",
                f"{p['work_lost']:.4f}",
                f"{p['recovery_overhead']:.4f}",
                f"{p['checkpoints_committed']}/{p['checkpoints_aborted']}",
            ]
        )
    return t.render()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="fault recovery sweep: work lost vs checkpoint interval"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", action="store_true",
        help="also write the machine-readable BENCH_faults.json",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path for --json (default: ./BENCH_faults.json)",
    )
    args = parser.parse_args(argv)
    data = sweep(seed=args.seed)
    print(render(data))
    if args.json:
        path = write_bench_json("faults", data, args.out)
        print(f"\nwrote {path}")
    return 0


def test_fault_recovery_sweep(once):
    data = once(sweep)
    # the acceptance bar: an identical same-seed re-run, bit for bit
    again = sweep()
    assert again == data, "fault sweep is not deterministic"
    save_result("fault_recovery", render(data), data)
    for p in data["points"]:
        assert p["detection_latency"] > 0
        assert p["work_lost"] > 0
        assert p["checkpoints_committed"] >= 1
    # tighter checkpoint intervals must not lose *more* work than the
    # loosest one — the whole reason to checkpoint more often
    by_frac = sorted(data["points"], key=lambda p: p["interval_frac"])
    assert by_frac[0]["work_lost"] <= by_frac[-1]["work_lost"] * 1.5


if __name__ == "__main__":
    raise SystemExit(main())
