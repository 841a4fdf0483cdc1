#!/usr/bin/env python3
"""Performance ledger: five workloads, end to end and layer by layer.

    run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of output is one JSON result object
        (end-to-end metrics untraced, per-layer metrics traced)
    run.py [--seed N] [--seconds S] [--trace 0|1|both] [--quick] [--out F]
        every workload, one after another, written as one ledger file
    run.py compare A.json B.json
        apply the regression bounds of BENCHMARK.json to two ledgers

Every workload runs in fresh child processes (``child.py``), strictly one
at a time; this file never imports the program under test.  README.md
documents the workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: fresh processes per untraced run: set-up is measured once in each and
#: the timed repetitions are split evenly between them
SETUPS = 3
#: timed repetitions per process at the ``run_seconds`` BENCHMARK.json
#: declares (about 10 s of measurement per run); ``--seconds`` scales
#: them.  Fixed counts, not a deadline, so that neither the sample count
#: nor the length of a run flaps with timing noise.
REPS_PER_PROCESS = {
    "dft_collectives": 2,
    "md_halo": 1,
    "ckpt_rounds": 1,
    "reexec_replay": 12,
    "chaos_campaign": 1,
}
CHILD_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
class ChildFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one child to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # string hashes steer set/dict layout and with it a few per cent of
    # host time; the simulation itself never depends on them
    env["PYTHONHASHSEED"] = "0"
    job = dict(job, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(
            f"{job['workload']}: child exceeded {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"{job['workload']}: child exited {proc.returncode}\n"
            + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(samples, unit: str) -> dict:
    """Median with the sample count, min, quartiles and raw samples."""
    if len(samples) > 1:
        # inclusive: with three samples the default method extrapolates
        # the quartiles beyond the samples themselves
        q1, _q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "unit": unit,
            "n": len(samples), "min": min(samples), "q1": q1, "q3": q3,
            "samples": list(samples)}


def tally(checks) -> dict:
    failures = [name for name, ok in checks if not ok]
    return {"attempted": len(checks), "failed": len(failures),
            "failures": failures,
            "failed_frac": len(failures) / len(checks)}


def run_untraced(name, seed, seconds, scale, out_dir, units) -> dict:
    setups = SETUPS if scale == "full" else 1
    reps = (max(1, round(REPS_PER_PROCESS[name] * seconds
                         / contract()["run_seconds"]))
            if scale == "full" else 1)
    kids = [
        spawn({"workload": name, "seed": seed, "scale": scale, "trace": False,
               "reps": reps, "verify": i == setups - 1,
               "out_dir": str(out_dir)})
        for i in range(setups)
    ]
    first = kids[0]
    checks = [(f"process {i}: {check}", ok)
              for i, kid in enumerate(kids) for check, ok in kid["checks"]]
    checks += [(f"process {i}: fingerprint equals process 0",
                kid["fingerprint"] == first["fingerprint"]
                and kid["work"] == first["work"])
               for i, kid in enumerate(kids[1:], 1)]
    walls = [s for kid in kids for s in kid["samples"]]
    base = statistics.median(kid["base_s"] for kid in kids)
    raw = {
        "wall_raw_s": summary(
            [s for kid in kids for s in kid["samples_raw"]], "s"),
        "setup_raw_s": summary([kid["setup_raw_s"] for kid in kids], "s"),
        "calibrate_s": summary(
            [c for kid in kids for c in kid["calibrations"]], "s"),
    }
    end_to_end = {
        "wall_s": summary(walls, units["wall_s"]),
        "work_per_s": summary([first["work"] / (w - base) for w in walls],
                              units["work_per_s"]),
        "peak_rss_mb": summary([kid["peak_rss_mb"] for kid in kids],
                               units["peak_rss_mb"]),
        "setup_s": summary([kid["setup_s"] for kid in kids],
                           units["setup_s"]),
    }
    return {"end_to_end": end_to_end, "raw": raw, "work": first["work"],
            "work_metric": first["work_metric"], "base_s": base,
            "processes": setups, "reps_per_process": reps,
            "fingerprint": first["fingerprint"],
            "counts": kids[-1]["counts"], "checks": tally(checks)}


def run_traced(name, seed, scale, out_dir, units, untraced=None) -> dict:
    kid = spawn({"workload": name, "seed": seed, "scale": scale,
                 "trace": True, "out_dir": str(out_dir)})
    checks = [tuple(c) for c in kid["checks"]]
    if untraced is not None:
        checks.append(("traced fingerprint == untraced",
                       kid["fingerprint"] == untraced["fingerprint"]))
    reasons = dict(kid["reasons"])
    per_layer = {}
    for metric, unit in units.items():
        value = kid["metrics"].get(metric)
        if value is None:
            reasons.setdefault(metric, "not produced by this workload")
        per_layer[metric] = {"value": value, "unit": unit}
    return {"per_layer": per_layer, "reasons": reasons,
            "undeclared": sorted(set(kid["metrics"]) - set(units)),
            "fingerprint": kid["fingerprint"],
            "checks": tally(checks),
            "plain_s": kid["plain_s"], "traced_s": kid["traced_s"],
            "setup_raw_s": kid["setup_raw_s"], "spans": kid["spans"],
            "spans_file": os.path.relpath(kid["spans_file"], ROOT)}


# ----------------------------------------------------------------------
# one ledger
# ----------------------------------------------------------------------
def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_ledger(args, names) -> dict:
    spec = contract()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    scale = "quick" if args.quick else "full"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    nproc = os.cpu_count() or 1
    ledger = {
        "schema": 1,
        "provenance": {
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": nproc, "loadavg_start": os.getloadavg()[0],
            "seed": args.seed, "seconds": args.seconds, "scale": scale,
            "trace": args.trace,
        },
        "workloads": {},
    }
    for name in names:
        entry = ledger["workloads"][name] = {}
        if args.trace in ("0", "both"):
            entry["untraced"] = run_untraced(
                name, args.seed, args.seconds, scale, out_dir, e2e_units)
        if args.trace in ("1", "both"):
            entry["traced"] = run_traced(
                name, args.seed, scale, out_dir, layer_units,
                untraced=entry.get("untraced"))
        report(name, entry)
    prov = ledger["provenance"]
    prov["loadavg_end"] = os.getloadavg()[0]
    # a loaded box widens every spread; say so, never fail for it
    ledger["noisy"] = max(prov["loadavg_start"], prov["loadavg_end"]) > nproc
    return ledger


def _num(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(name: str, entry: dict) -> None:
    """Every metric by name, with its unit."""
    print(f"== {name}")
    if "untraced" in entry:
        run = entry["untraced"]
        for metric, s in {**run["end_to_end"], **run["raw"]}.items():
            print(f"  {metric:<44}{s['value']:>16.6g} {s['unit']:<6}"
                  f" n={s['n']} min={s['min']:.6g} q1={s['q1']:.6g}"
                  f" q3={s['q3']:.6g}")
        rate = run["end_to_end"]["work_per_s"]["value"]
        print(f"  work_per_s is {run['work_metric']} "
              f"({1e3 / rate:.6g} ms per unit, {run['work']} units)")
        for count, value in sorted(run["counts"].items()):
            print(f"  {count:<44}{_num(value):>16}")
        checks = run["checks"]
        print(f"  {'failed_frac':<44}{checks['failed_frac']:>16.6g}"
              f"        {checks['failed']} of {checks['attempted']} checks")
        for failure in checks["failures"]:
            print(f"  FAILED: {failure}")
    if "traced" in entry:
        run = entry["traced"]
        for metric, s in run["per_layer"].items():
            if s["value"] is None:
                print(f"  {metric:<44}{'null':>16} {s['unit']:<6}"
                      f" {run['reasons'][metric]}")
            else:
                print(f"  {metric:<44}{_num(s['value']):>16} {s['unit']}")
        checks = run["checks"]
        print(f"  traced run: {checks['failed']} of {checks['attempted']} "
              f"checks failed, {run['spans']} spans in {run['spans_file']}")
        for failure in checks["failures"]:
            print(f"  FAILED: {failure}")
    sys.stdout.flush()


def validate(ledger: dict, spec: dict) -> list:
    """Problems with a ledger measured against BENCHMARK.json's names."""
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    for group in ("workloads", "end_to_end", "per_layer"):
        for item in spec[group]:
            if not NAME_RE.match(item["name"]):
                problems.append(f"bad name {item['name']!r} in {group}")
    if sorted(ledger["workloads"]) != sorted(declared):
        problems.append(f"workloads {sorted(ledger['workloads'])} != "
                        f"declared {sorted(declared)}")
    for name, entry in ledger["workloads"].items():
        got = set(entry["untraced"]["end_to_end"])
        want = {m["name"] for m in spec["end_to_end"]}
        if got != want:
            problems.append(f"{name}: end-to-end metrics {sorted(got ^ want)}")
        traced = entry["traced"]
        for metric, s in traced["per_layer"].items():
            if s["value"] is None and not traced["reasons"].get(metric):
                problems.append(f"{name}: {metric} is null without a reason")
        if traced["undeclared"]:
            problems.append(f"{name}: undeclared {traced['undeclared']}")
        for run in (entry["untraced"], traced):
            problems += [f"{name}: {f}" for f in run["checks"]["failures"]]
    return problems


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(status, worsening)`` of change ``b`` against parent ``a``."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / abs(a["value"])
    wide = max(_spread(a), _spread(b)) > bound
    if better == "lower":
        all_better = max(b["samples"]) < min(a["samples"])
        all_worse = min(b["samples"]) > max(a["samples"])
    else:
        all_better = min(b["samples"]) > max(a["samples"])
        all_worse = max(b["samples"]) < min(a["samples"])
    if worse > bound:
        return ("unresolved" if wide and not all_worse else "regressed"), worse
    return ("unresolved" if wide and not all_better else "ok"), worse


def compare(path_a: str, path_b: str) -> int:
    spec = contract()
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    for key in ("seed", "scale", "seconds"):
        if a["provenance"][key] != b["provenance"][key]:
            print(f"note: {key} differs: {a['provenance'][key]} vs "
                  f"{b['provenance'][key]}; exact counts will too")
    for side, ledger in (("parent", a), ("change", b)):
        if ledger.get("noisy"):
            print(f"note: the {side} ledger was measured on a loaded box")
    bad = 0
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"== {name}: missing from one ledger")
            continue
        print(f"== {name}")
        if "untraced" in wa and "untraced" in wb:
            ua, ub = wa["untraced"], wb["untraced"]
            for m in spec["end_to_end"]:
                sa, sb = ua["end_to_end"][m["name"]], ub["end_to_end"][m["name"]]
                status, worse = verdict(sa, sb, m["better"], m["bound"])
                bad += status == "regressed"
                print(f"  {m['name']:<14}{status:<11}"
                      f"parent {sa['value']:.6g} [{sa['q1']:.6g}, "
                      f"{sa['q3']:.6g}]  change {sb['value']:.6g} "
                      f"[{sb['q1']:.6g}, {sb['q3']:.6g}] {sa['unit']}  "
                      f"worse by {100 * worse:+.1f}% (bound "
                      f"{100 * m['bound']:.0f}%)")
            fa = ua["checks"]["failed_frac"]
            fb = ub["checks"]["failed_frac"]
            higher = fb > fa
            bad += higher
            print(f"  {'failed_frac':<14}{'regressed' if higher else 'ok':<11}"
                  f"parent {fa:.6g}  change {fb:.6g}")
            _diff_exact(ua["counts"], ub["counts"])
            if ua["fingerprint"] != ub["fingerprint"]:
                print(f"  DIFFERS sim fingerprint: {ua['fingerprint']} vs "
                      f"{ub['fingerprint']}")
        if "traced" in wa and "traced" in wb:
            exact = {m["name"] for m in spec["per_layer"]
                     if m["unit"] == "count" or m["name"].startswith("model.")}
            _diff_exact(
                {k: v["value"] for k, v in wa["traced"]["per_layer"].items()
                 if k in exact},
                {k: v["value"] for k, v in wb["traced"]["per_layer"].items()
                 if k in exact})
    print("regressed" if bad else "no regression")
    return 1 if bad else 0


def _diff_exact(a: dict, b: dict) -> None:
    """Counts and ``model.*`` values repeat exactly; a simulator-only
    change must leave every one of them identical."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            print(f"  DIFFERS {key}: {a.get(key)} vs {b.get(key)}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])

    spec = contract()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: <= 16 ranks, one repetition, "
                             "every workload traced and untraced, output "
                             "validated against BENCHMARK.json")
    parser.add_argument("--out", help="ledger file (default: out/ beside "
                                      "this script)")
    args = parser.parse_args(argv)
    if args.quick:
        args.trace = "both"
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    t0 = time.monotonic()
    try:
        ledger = run_ledger(args, [args.workload] if args.workload else names)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    out = pathlib.Path(args.out) if args.out else HERE / "out" / (
        f"ledger-{args.workload or 'all'}-trace{args.trace}.json")
    out.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} ({time.monotonic() - t0:.1f}s"
          f"{', noisy box' if ledger['noisy'] else ''})")

    if args.quick:
        problems = validate(ledger, spec)
        for problem in problems:
            print(f"INVALID: {problem}")
        print("quick: " + ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.workload and args.trace != "both":
        entry = ledger["workloads"][args.workload]
        run = entry["traced" if args.trace == "1" else "untraced"]
        metrics = run["per_layer" if args.trace == "1" else "end_to_end"]
        print(json.dumps({
            "correct": run["checks"]["failed"] == 0,
            "attempted": run["checks"]["attempted"],
            "failed": run["checks"]["failed"],
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
