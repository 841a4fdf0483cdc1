"""Storage redundancy: write overhead vs survivability vs work lost.

The trade the tiered checkpoint store exists to expose: each redundancy
policy buys failure coverage with checkpoint write time.  ``local_only``
is the cheapest write path but a node loss destroys every copy the rank
ever wrote; ``bb_only`` (the legacy model) survives node loss because
the burst buffer is off-node but pays the shared-bandwidth BB write on
every epoch; ``partner`` and ``xor4`` keep the write path node-local
and add a replica / parity block on a peer node; ``ladder`` layers the
burst buffer on top of partner replication.

Setup: a token-ring workload on the one-rank-per-node TESTBOX_MN under
``ManaConfig.fault_tolerant()``, periodic checkpointing, one node loss
after the first committed epoch (calibrated per policy — redundancy
changes commit times).  Each point records the checkpoint overhead of
the fault-free run, whether the job survived the node loss, the epoch
it recovered at, and the work lost.  The whole sweep is run twice with
the same seed to assert the summary is deterministic.

Expected shape: redundant policies survive at the newest epoch;
``local_only`` does not survive a node loss at all (its recovery error
is the point); heavier write paths cost more per checkpoint.
"""

from repro.bench import BenchScale, current_scale, save_result, write_bench_json
from repro.errors import RecoveryError
from repro.faults import FaultInjector, FaultSchedule, token_ring_job
from repro.hosts import TESTBOX_MN
from repro.mana import ManaConfig
from repro.mana.session import ManaSession
from repro.storage import policy_by_name
from repro.util.tables import AsciiTable

#: redundancy policies under test, cheapest write path first
POLICY_NAMES = ("local_only", "bb_only", "partner", "xor4", "ladder")

#: checkpoint interval as a fraction of the fault-free runtime
INTERVAL_FRACS = (0.25, 0.4)


def storage_point(nranks: int, policy_name: str, interval_frac: float,
                  seed: int, ref_elapsed: float, expected, factory) -> dict:
    """One sweep point: periodic checkpoints under one redundancy policy,
    then a node loss after the first committed epoch."""
    cfg = ManaConfig.fault_tolerant().but(storage=policy_by_name(policy_name))
    interval = ref_elapsed * interval_frac
    # calibrate per policy: the faulted run is event-identical to this
    # fault-free run until the node dies, so the commit time is exact
    base = ManaSession(nranks, factory, TESTBOX_MN, cfg).run(
        checkpoint_interval=interval
    )
    assert base.results == expected
    committed = [
        r for r in base.checkpoints
        if not r.get("aborted") and not r.get("skipped")
    ]
    first_commit = committed[0]["completed_at"]
    fault_at = first_commit + 0.4 * (base.elapsed - first_commit)
    victim = seed % nranks
    node = TESTBOX_MN.node_of(victim)

    sess = ManaSession(nranks, factory, TESTBOX_MN, cfg)
    plan = FaultSchedule(seed=seed).lose_node(node, fault_at)
    FaultInjector(sess, plan).arm()
    point = {
        "policy": policy_name,
        "interval_frac": interval_frac,
        "interval": interval,
        "victim": victim,
        "node": node,
        "fault_at": fault_at,
        "ckpt_overhead": base.elapsed - ref_elapsed,
        "ckpts_committed": len(committed),
        "overhead_per_ckpt": (
            (base.elapsed - ref_elapsed) / len(committed) if committed else 0.0
        ),
        "copies_per_epoch": base.storage.get("copies_written", 0)
        // max(1, base.storage.get("epochs_committed", 1)),
    }
    try:
        out = sess.run(checkpoint_interval=interval)
    except RecoveryError as exc:
        # redundancy disabled: the node loss destroyed every copy the
        # victim ever wrote — the job is unrecoverable, which is the
        # negative result this sweep exists to show
        point.update(
            survived=False, recovered_epoch=None, epoch_fallbacks=None,
            work_lost=None, recovery_overhead=None, elapsed=None,
            error=type(exc).__name__,
        )
        return point
    assert out.results == expected, "recovery changed the application output"
    recovery = out.recoveries[0]
    point.update(
        survived=True,
        recovered_epoch=recovery["epoch"],
        epoch_fallbacks=recovery.get("epoch_fallbacks", 0),
        work_lost=recovery["work_lost"],
        recovery_overhead=out.elapsed - base.elapsed,
        elapsed=out.elapsed,
        error=None,
    )
    return point


def sweep(seed: int = 7, policies=POLICY_NAMES, fracs=INTERVAL_FRACS) -> dict:
    nranks = 8 if current_scale() is BenchScale.FULL else 4
    factory, expected = token_ring_job(nranks)
    ref = ManaSession(
        nranks, factory, TESTBOX_MN, ManaConfig.feature_2pc()
    ).run()
    assert ref.results == expected
    return {
        "nranks": nranks,
        "seed": seed,
        "machine": TESTBOX_MN.name,
        "ref_elapsed": ref.elapsed,
        "points": [
            storage_point(nranks, p, frac, seed, ref.elapsed,
                          expected, factory)
            for p in policies
            for frac in fracs
        ],
    }


def render(data) -> str:
    t = AsciiTable(
        ["policy", "interval (s)", "ckpt overhead (s)", "copies/epoch",
         "survived", "epoch", "fallbacks", "work lost (s)"],
        title=(
            "Storage redundancy — write overhead vs node-loss "
            f"survivability ({data['nranks']} ranks on {data['machine']}, "
            f"seed {data['seed']})"
        ),
    )
    for p in data["points"]:
        t.add_row(
            [
                p["policy"],
                f"{p['interval']:.4f}",
                f"{p['ckpt_overhead']:.4f}",
                p["copies_per_epoch"],
                "yes" if p["survived"] else "NO",
                p["recovered_epoch"] if p["survived"] else "-",
                p["epoch_fallbacks"] if p["survived"] else "-",
                f"{p['work_lost']:.4f}" if p["survived"] else "all",
            ]
        )
    return t.render()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="storage redundancy sweep: write overhead vs work lost"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sweep (3 policies, 1 interval) for CI sanity",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="also write the machine-readable BENCH_storage.json",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path for --json (default: ./BENCH_storage.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        data = sweep(seed=args.seed,
                     policies=("local_only", "bb_only", "partner"),
                     fracs=(0.3,))
    else:
        data = sweep(seed=args.seed)
    print(render(data))
    if args.json:
        path = write_bench_json(
            "storage", data, args.out, machine=TESTBOX_MN,
            seed=args.seed, cfg=ManaConfig.fault_tolerant(),
        )
        print(f"\nwrote {path}")
    if args.smoke:
        redundant = [p for p in data["points"] if p["policy"] != "local_only"]
        bare = [p for p in data["points"] if p["policy"] == "local_only"]
        ok = (all(p["survived"] for p in redundant)
              and all(not p["survived"] for p in bare))
        print(f"smoke {'OK' if ok else 'FAILED'}: "
              f"{len(redundant)} redundant points survived the node loss, "
              f"local_only did not")
        return 0 if ok else 1
    return 0


def test_storage_redundancy_sweep(once):
    data = once(sweep)
    # the acceptance bar: an identical same-seed re-run, bit for bit
    again = sweep()
    assert again == data, "storage sweep is not deterministic"
    save_result("storage_redundancy", render(data), data)
    by_policy = {}
    for p in data["points"]:
        by_policy.setdefault(p["policy"], []).append(p)
    # redundancy buys node-loss survival; its absence forfeits it
    for name in ("bb_only", "partner", "xor4", "ladder"):
        for p in by_policy[name]:
            assert p["survived"], f"{name} should survive a node loss"
            assert p["work_lost"] > 0
    for p in by_policy["local_only"]:
        assert not p["survived"], "local_only cannot survive a node loss"
    # replication writes more copies than the bare local path ...
    assert (by_policy["partner"][0]["copies_per_epoch"]
            > by_policy["local_only"][0]["copies_per_epoch"])
    # ... and the layered ladder is the most redundant of all
    assert (by_policy["ladder"][0]["copies_per_epoch"]
            >= by_policy["partner"][0]["copies_per_epoch"])
    # node-local write paths commit faster than the shared burst buffer
    assert (by_policy["local_only"][0]["ckpt_overhead"]
            < by_policy["bb_only"][0]["ckpt_overhead"])


if __name__ == "__main__":
    raise SystemExit(main())
