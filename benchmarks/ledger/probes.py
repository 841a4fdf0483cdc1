"""Ladder rungs and leaf-layer probes.

Each probe times the public entry point of one layer with the layers
above it absent, so a layer's cost is a number of its own.  The suite is
the same whatever workload the traced run belongs to.  A probe whose
entry point or argument has been removed by a later simplification
records ``None`` with the reason; it never fails the run.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import tempfile
import time

import numpy as np

#: probe sizes per scale
SIZES = {
    "full": dict(core_procs=16, core_pairs=40_000, net_ranks=64,
                 net_msgs=1500, store_ranks=64, blob_bytes=1 << 20,
                 image_ranks=32, image_laps=100, chaos_points=5,
                 chaos_ranks=8, chaos_laps=12, journal_appends=100),
    "quick": dict(core_procs=4, core_pairs=5_000, net_ranks=8,
                  net_msgs=500, store_ranks=8, blob_bytes=1 << 16,
                  image_ranks=4, image_laps=10, chaos_points=1,
                  chaos_ranks=4, chaos_laps=6, journal_appends=10),
}


def _wall(fn):
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# ----------------------------------------------------------------------
def des_core(size, seed, tmp):
    """Bare ``Scheduler``: each process alternates a same-instant
    ``Advance(0)`` (FIFO lane) with a timed one (heap)."""
    from repro.des.scheduler import Scheduler
    from repro.des.syscalls import Advance

    def body(n, dt):
        zero, step = Advance(0.0), Advance(dt)
        for _ in range(n):
            yield zero
            yield step

    def run():
        sched = Scheduler()
        for p in range(size["core_procs"]):
            sched.spawn(body(size["core_pairs"], 1e-6 * (p + 1)), f"core-{p}")
        sched.run()
        return sched.events_run

    events, wall = _wall(run)
    return {"des.core_events_per_s": events / wall}


def simnet_fabric(size, seed, tmp):
    """``Network.inject`` to endpoint delivery with no MPI above: every
    rank streams messages of mixed size to a rotating set of peers."""
    from repro.des.scheduler import Scheduler
    from repro.des.syscalls import Advance
    from repro.hosts import CORI_HASWELL
    from repro.simnet.message import Message
    from repro.simnet.network import Network

    n, per_rank = size["net_ranks"], size["net_msgs"]
    delivered = []

    def sender(net, src):
        step = Advance(1e-6)
        for i in range(per_rank):
            net.inject(Message(src, (src + 1 + i % 7) % n, 0, i, None,
                               64 + (i % 5) * 1024))
            yield step

    def run():
        sched = Scheduler()
        net = Network(sched, CORI_HASWELL, n)
        for r in range(n):
            net.attach_endpoint(r, delivered.append)
        for r in range(n):
            sched.spawn(sender(net, r), f"sender-{r}")
        sched.run()
        net.assert_empty()

    _, wall = _wall(run)
    if len(delivered) != n * per_rank:
        raise AssertionError("simnet probe lost messages")
    return {"simnet.msgs_per_s": len(delivered) / wall}


def storage_tiers(size, seed, tmp):
    """``CheckpointStore`` byte work: real copies + BLAKE2 on ``ladder``,
    XOR parity accumulation and rebuild on ``xor4``."""
    from repro.hosts import CORI_HASWELL
    from repro.storage import CheckpointStore, StoragePolicy

    n, nbytes = size["store_ranks"], size["blob_bytes"]
    rng = np.random.default_rng(seed)
    blobs = [rng.bytes(nbytes) for _ in range(n)]
    mb = n * nbytes / 1e6
    stores = [CheckpointStore(CORI_HASWELL, n, policy)
              for policy in (StoragePolicy.ladder(), StoragePolicy.xor(4))]

    def put_all():
        for store in stores:
            for rank, blob in enumerate(blobs):
                store.put(rank, 1, blob, nbytes)
            store.commit_epoch(1)

    _, put_s = _wall(put_all)
    ladder, xor4 = stores

    def check(results, source):
        for rank, res in results:
            if not res.ok or res.blob != blobs[rank] or (
                    source and res.source != source):
                raise AssertionError(f"storage probe: bad recover of {rank}")

    recovered, recover_s = _wall(
        lambda: [(r, ladder.recover(r, 1)) for r in range(n)])
    check(recovered, None)
    victims = list(range(0, n, 4))      # one lost member per parity group
    for rank in victims:
        xor4.drop_tier("local", rank=rank, epoch=1)
    rebuilt, rebuild_s = _wall(
        lambda: [(r, xor4.recover(r, 1)) for r in victims])
    check(rebuilt, "parity")
    return {
        "storage.put_mb_per_s": 2 * mb / put_s,
        "storage.recover_mb_per_s": mb / recover_s,
        "storage.parity_rebuild_mb_per_s":
            len(victims) * nbytes / 1e6 / rebuild_s,
    }


def restart_leaves(size, seed, tmp):
    """Image write, image read, session rebuild, replay: one small token
    ring halted at 90 % gives every leaf of the REEXEC path an input."""
    from repro.apps.micro import TokenRing
    from repro.hosts import CORI_HASWELL
    from repro.mana import ManaConfig, ManaSession
    from repro.mana.session import CheckpointPlan, resume_from_checkpoint
    from repro.util import serde

    n, laps = size["image_ranks"], size["image_laps"]
    factory = lambda r: TokenRing(r, laps=laps)  # noqa: E731
    expected = [TokenRing.expected(r, n, laps) for r in range(n)]
    cfg = ManaConfig.feature_2pc().but(record_replay=True)
    probe = ManaSession(n, factory, CORI_HASWELL, cfg).run()
    halted = ManaSession(n, factory, CORI_HASWELL, cfg)
    halted.run(checkpoints=[
        CheckpointPlan(at=probe.elapsed * 0.9, action="halt")])
    path = os.path.join(tmp, "probe.ckpt")
    out = {}
    try:
        _, out["mana.save_checkpoint_s"] = _wall(
            lambda: halted.save_checkpoint(path))
        with open(path, "rb") as fh:
            blob = fh.read()
        mb = len(blob) / 1e6
        loads = [_wall(lambda: serde.loads(blob)) for _ in range(5)]
        obj = loads[0][0]
        dumps = [_wall(lambda: serde.dumps(obj))[1] for _ in range(5)]
        out["util.serde_loads_mb_per_s"] = mb / statistics.median(
            w for _obj, w in loads)
        out["util.serde_dumps_mb_per_s"] = mb / statistics.median(dumps)

        sess, out["mana.resume_build_s"] = _wall(
            lambda: resume_from_checkpoint(path, factory, CORI_HASWELL, cfg))
        run, out["mana.resume_run_s"] = _wall(sess.run)
        if run.results != expected:
            raise AssertionError("restart probe: resume gave wrong results")
        out.update(_compiled_replay(path, factory, cfg, expected))
    finally:
        if os.path.exists(path):
            os.unlink(path)
    return out


_COMPILED = ("ir.compile_image_s", "ir.resume_compiled_run_s")


def _compiled_replay(path, factory, cfg, expected):
    """Compile-once / restart-many, which exists only while the
    ``replay_compile`` knob does."""
    from repro.hosts import CORI_HASWELL
    from repro.mana.session import resume_from_checkpoint

    try:
        from repro.mana.ir_bridge import compile_image

        opt = cfg.but(replay_compile="opt")
        programs, compile_s = _wall(
            lambda: compile_image(path, opt, CORI_HASWELL))
        sess = resume_from_checkpoint(path, factory, CORI_HASWELL, opt,
                                      compiled=programs)
    except (ImportError, AttributeError, TypeError) as exc:
        return {name: (None, _reason(exc)) for name in _COMPILED}
    run, run_s = _wall(sess.run)
    if run.results != expected:
        raise AssertionError("restart probe: compiled resume gave wrong results")
    return {"ir.compile_image_s": compile_s,
            "ir.resume_compiled_run_s": run_s}


def chaos_and_campaign(size, seed, tmp):
    """Chaos points in process, the same grid through ``run_cell`` and
    through ``run_campaign`` at one worker (the difference is what the
    runner itself costs per cell), and bare journal appends."""
    from repro.campaign import CampaignStore, run_campaign, run_cell
    from repro.campaign.spec import spec_chaos
    from repro.errors import JobLostError
    from repro.faults.chaos import chaos_golden, run_chaos_point

    kinds = ("kill_rank", "node_loss", "blob_corrupt", "crash_storm")
    nranks, laps = size["chaos_ranks"], size["chaos_laps"]
    points = size["chaos_points"]
    golden = chaos_golden(nranks, laps)
    stride = max(1, golden["events"] // (2 * points + 1))
    walls = []
    for kind in kinds:
        for i in range(2 * points):
            point, wall = _wall(lambda: run_chaos_point(
                kind, stride * (i + 1), seed=seed, golden=golden))
            if point["violations"]:
                raise AssertionError(f"chaos probe: {point['violations']}")
            walls.append(wall)
    walls.sort()

    spec = spec_chaos(points=points, nranks=nranks, laps=laps, kinds=kinds,
                      seed=seed)
    cells = spec.cells()

    def in_process():
        for cell in cells:
            try:
                run_cell(cell.kind, cell.params_dict, 0)
            except JobLostError:
                pass

    def campaign():
        root = tempfile.mkdtemp(prefix="probe-campaign-", dir=tmp)
        try:
            run = run_campaign(spec, root, workers=1)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        if run.failed_cells:
            raise AssertionError("chaos probe: campaign cells failed")
        return run

    # the overhead is a small difference of two long runs: alternate
    # them and keep the quieter pass of each
    inproc_s, campaign_s = [], []
    for _ in range(2):
        inproc_s.append(_wall(in_process)[1])
        run, wall = _wall(campaign)
        campaign_s.append(wall)
    inproc_s, campaign_s = min(inproc_s), min(campaign_s)

    record = next(iter(run.records.values()))
    appends = size["journal_appends"]
    root = tempfile.mkdtemp(prefix="probe-journal-", dir=tmp)
    try:
        store = CampaignStore(root)

        def append_all():
            for i in range(appends):
                store.append({**record, "cell_id": f"probe-{i}"})
            store.close()

        _, journal_s = _wall(append_all)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "faults.points_per_s": len(walls) / sum(walls),
        "faults.point_wall_p50_ms": 1e3 * walls[len(walls) // 2],
        "faults.point_wall_p90_ms": 1e3 * walls[(len(walls) * 9) // 10],
        "campaign.overhead_ms_per_cell":
            1e3 * (campaign_s - inproc_s) / len(cells),
        "campaign.inproc_ms_per_cell": 1e3 * inproc_s / len(cells),
        "campaign.journal_appends_per_s": appends / journal_s,
    }


# ----------------------------------------------------------------------
#: probe -> the metrics it owes, so a missing entry point can null them
PROBES = (
    (des_core, ("des.core_events_per_s",)),
    (simnet_fabric, ("simnet.msgs_per_s",)),
    (storage_tiers, ("storage.put_mb_per_s", "storage.recover_mb_per_s",
                     "storage.parity_rebuild_mb_per_s")),
    (restart_leaves, ("mana.save_checkpoint_s", "mana.resume_build_s",
                      "mana.resume_run_s", "util.serde_dumps_mb_per_s",
                      "util.serde_loads_mb_per_s") + _COMPILED),
    (chaos_and_campaign, ("faults.points_per_s", "faults.point_wall_p50_ms",
                          "faults.point_wall_p90_ms",
                          "campaign.overhead_ms_per_cell",
                          "campaign.inproc_ms_per_cell",
                          "campaign.journal_appends_per_s")),
)


def _reason(exc) -> str:
    return f"entry point unavailable: {type(exc).__name__}: {exc}"


def run_probes(scale: str, seed: int, tmp: str, spans):
    """``(values, reasons)``: every probe metric, ``None`` plus a reason
    where the layer no longer offers the entry point."""
    values, reasons = {}, {}
    for probe, names in PROBES:
        with spans.span("probe:" + probe.__name__):
            try:
                got = probe(SIZES[scale], seed, tmp)
            except (ImportError, AttributeError, TypeError) as exc:
                got = {name: (None, _reason(exc)) for name in names}
        for name in names:
            value = got[name]
            if isinstance(value, tuple):
                values[name], reasons[name] = value
            else:
                values[name] = value
    return values, reasons
