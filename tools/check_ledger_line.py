#!/usr/bin/env python3
"""Check the result line of one performance-ledger run.

Runs ``benchmarks/ledger/run.py --workload W --seconds S --trace T`` and
checks what a reader of the ledger relies on: the run exits 0, and the
last line of its standard output is one JSON object whose ``correct`` is
true and whose every metric value is a finite number — never null,
never NaN or infinite, never a string.

    python3 tools/check_ledger_line.py --workload reexec_replay \\
        --seconds 1 --trace 0

Exit status 0 when the line is well formed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "ledger" / "run.py"


def problems(stdout: str) -> list:
    """What is wrong with the last line of ``stdout``; empty when it is
    a well-formed result."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        return [f"last line is not JSON: {exc}"]
    if not isinstance(result, dict):
        return ["last line is not a JSON object"]
    bad = []
    if result.get("correct") is not True:
        bad.append(f"correct is {result.get('correct')!r}, not true")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return bad + ["no metrics"]
    for name, metric in sorted(metrics.items()):
        value = metric.get("value") if isinstance(metric, dict) else None
        if (type(value) not in (int, float) or not math.isfinite(value)):
            bad.append(f"{name} = {value!r} is not a finite number")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    cmd = [sys.executable, str(RUN), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    bad = problems(proc.stdout)
    if proc.returncode != 0:
        bad.insert(0, f"exit status {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
    label = f"{args.workload} --trace {args.trace}"
    if bad:
        for line in bad:
            print(f"{label}: {line}", file=sys.stderr)
        return 1
    print(f"{label}: result line well formed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
