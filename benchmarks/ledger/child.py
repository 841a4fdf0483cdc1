"""One fresh process of one workload: set up, then measure or trace.

Started by ``run.py`` with a JSON job description as its only argument;
prints one JSON object on its last line of standard output.  Untraced,
it runs the timed repetitions (and, when asked, the once-per-run
checks).  Traced, it runs one plain and one profiled repetition, the
native rung and the probe suite, and writes its spans to the out
directory.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import json
import os
import resource
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from probes import run_probes  # noqa: E402
from tracing import LAYERS, Spans, self_time_by_layer  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process or of any child it has
    waited for (the campaign's workers), whichever is larger."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


#: what :func:`calibrate` takes on the quiet development box; scaled
#: times read as seconds on a box of that speed
CALIBRATE_REF_S = 0.100
#: re-calibrate once at least this much has been measured since the last
CALIBRATE_EVERY_S = 1.5


def calibrate() -> float:
    """Seconds for a fixed interpreter-bound loop shaped like the
    simulator's own work: generator resumes, heap pushes and pops, dict
    traffic, small tuples.  The median of three passes, so that one
    burst from a neighbour does not pass for the speed of the box.

    The sandbox this runs in shares its host, and its speed drifts by
    tens of per cent over minutes; a repetition timed next to this loop
    can be scaled back to a common speed."""
    def proc(n):
        for i in range(n):
            yield (i * 0.5, i)

    def one_pass():
        t0 = time.perf_counter()
        procs = [proc(30_000) for _ in range(8)]
        heap, table = [], {}
        for step in range(30_000):
            for p in procs:
                heapq.heappush(heap, (next(p), step))
            while len(heap) > 4:
                item, at = heapq.heappop(heap)
                table[at & 1023] = item
        return time.perf_counter() - t0

    gc.collect()
    return sorted(one_pass() for _ in range(3))[1]


def _rep(spans, name, fn):
    gc.collect()
    with spans.span(name):
        t0 = time.perf_counter()
        rep = fn()
        return rep, time.perf_counter() - t0


def measure(wl, job, spans, calib) -> dict:
    """``calib`` holds the calibration made right after set-up; every
    repetition is scaled by the mean of the calibrations around it."""
    reps, raw, before = [], [], []
    last = time.perf_counter()
    for i in range(job["reps"]):
        before.append(len(calib) - 1)
        rep, wall = _rep(spans, "rep", wl.rep)
        reps.append(rep)
        raw.append(wall)
        if (i == job["reps"] - 1
                or time.perf_counter() - last >= CALIBRATE_EVERY_S):
            calib.append(calibrate())
            last = time.perf_counter()
    samples = [
        wall * CALIBRATE_REF_S / ((calib[b] + calib[b + 1]) / 2)
        for wall, b in zip(raw, before)
    ]
    rss = peak_rss_mb()
    checks = []
    for i, rep in enumerate(reps):
        checks.append((f"rep {i}: workload check", rep.ok))
        checks.append((f"rep {i}: fingerprint repeats",
                       rep.fingerprint == reps[0].fingerprint))
    counts = dict(reps[0].counts)
    out = {"samples": samples, "samples_raw": raw, "calibrations": calib,
           "work": reps[0].work,
           "work_metric": wl.work_metric,
           "base_s": wl.base_s * CALIBRATE_REF_S / calib[0],
           "fingerprint": reps[0].fingerprint, "peak_rss_mb": rss}
    if job["verify"]:
        with spans.span("verify"):
            verify = wl.verify(reps[-1])
        checks += verify.checks
        counts.update(verify.counts)
        out["native_wall_s"] = verify.native_wall_s
    out["counts"] = counts
    out["checks"] = checks
    return out


def trace(wl, job, spans) -> dict:
    plain, plain_s = _rep(spans, "rep", wl.traced_rep)
    profile = cProfile.Profile()

    def profiled():
        profile.enable()
        try:
            return wl.traced_rep()
        finally:
            profile.disable()

    rep, traced_s = _rep(spans, "rep:profiled", profiled)
    with spans.span("verify"):
        verify = wl.verify(rep)
    with spans.span("probes"):
        values, reasons = run_probes(job["scale"], job["seed"], job["tmp"],
                                     spans)

    metrics = dict(rep.counts)
    metrics.update(values)
    metrics["simmpi.native_wall_s"] = verify.native_wall_s
    metrics["mana.wall_over_native"] = plain_s / verify.native_wall_s
    events = verify.counts.get("des.events", rep.counts.get("des.events"))
    metrics["des.us_per_event"] = 1e6 * plain_s / events
    metrics.update(verify.counts)
    # the campaign's session counters come from a reference session, and
    # so must the ratios built on them
    metrics.update(verify.derived)
    metrics["des.events_per_mpi_call"] = (
        metrics["des.events"] / metrics["mana.mpi_calls"])
    metrics["model.sim_fingerprint"] = int(rep.fingerprint[:12], 16)
    metrics["bench.tracing_overhead_ratio"] = traced_s / plain_s
    by_layer = self_time_by_layer(profile)
    total = sum(by_layer.values())
    for layer in LAYERS:
        metrics[layer + ".self_s"] = by_layer[layer]
        metrics[layer + ".self_share"] = by_layer[layer] / total

    checks = [("profiled rep: workload check", rep.ok),
              ("profiled rep: fingerprint equals plain rep",
               rep.fingerprint == plain.fingerprint)] + verify.checks
    return {"metrics": metrics, "reasons": reasons, "checks": checks,
            "fingerprint": rep.fingerprint, "plain_s": plain_s,
            "traced_s": traced_s}


def main() -> None:
    job = json.loads(sys.argv[1])
    spans = Spans()
    job["tmp"] = tempfile.mkdtemp(prefix="tmp-", dir=job["out_dir"])
    scale = SCALES[job["scale"]][job["workload"]]
    try:
        with spans.span("workload:" + job["workload"]):
            with spans.span("setup"):
                wl = WORKLOADS[job["workload"]](job["seed"], scale, spans,
                                                job["tmp"])
                wl.setup()
            # CLOCK_MONOTONIC is system-wide on Linux: the parent stamped
            # t_spawn just before it started this process
            setup_raw_s = time.monotonic() - job["t_spawn"]
            try:
                if job["trace"]:
                    result = trace(wl, job, spans)
                else:
                    calib = [calibrate()]
                    result = measure(wl, job, spans, calib)
                    result["setup_s"] = (
                        setup_raw_s * CALIBRATE_REF_S / calib[0])
            finally:
                wl.close()
    finally:
        shutil.rmtree(job["tmp"], ignore_errors=True)
    result["setup_raw_s"] = setup_raw_s
    if job["trace"]:
        path = os.path.join(job["out_dir"], f"trace-{job['workload']}.json")
        spans.dump(path)
        result["spans_file"] = path
        result["spans"] = len(spans.rows)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
