"""Spans around the benchmark's own calls, and cProfile self time by layer.

Both are recorded from outside the program: spans bracket the calls the
benchmark makes into public entry points, and the profile of one
repetition is bucketed by the source file each function lives in.  Spans
are kept in memory and written once, when the child process ends.
"""

from __future__ import annotations

import contextlib
import json
import pstats
import time

#: mana files that are not ``mana.wrap``
_MANA_PROTOCOL = ("coordinator.py", "twophase.py", "drain.py")
_MANA_CKPT = ("checkpoint.py", "restart.py", "reexec.py", "replay.py",
              "ir_bridge.py", "portable.py")

#: every bucket a profiled function can land in, in report order
LAYERS = (
    "des", "simnet", "simmpi",
    "mana.pipeline", "mana.wrap", "mana.protocol", "mana.ckpt",
    "mana.session",
    "ir", "storage", "faults", "campaign", "util",
    "apps", "hosts", "bench", "numpy", "builtins",
)


def layer_of(filename: str, funcname: str) -> str:
    """The layer a profiled function belongs to.

    ``bench`` is this directory plus ``repro.bench``/``repro.cli`` and
    the two top-level ``repro`` modules; ``builtins`` is the interpreter
    and the standard library (C functions carry the file name ``~``)."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        parts = path.split("/repro/", 1)[1].split("/")
        pkg = parts[0]
        if pkg == "mana":
            if parts[1] == "pipeline":
                return "mana.pipeline"
            if parts[1] in _MANA_PROTOCOL:
                return "mana.protocol"
            if parts[1] in _MANA_CKPT:
                return "mana.ckpt"
            if parts[1] == "session.py":
                return "mana.session"
            return "mana.wrap"
        if pkg in LAYERS:
            return pkg
        return "bench"
    if "/benchmarks/ledger/" in path:
        return "bench"
    if "numpy" in path or "numpy" in funcname:
        return "numpy"
    return "builtins"


def self_time_by_layer(profile) -> dict:
    """``{layer: seconds}`` of cProfile ``tottime``, every layer present."""
    out = {layer: 0.0 for layer in LAYERS}
    for (filename, _line, funcname), row in pstats.Stats(profile).stats.items():
        out[layer_of(filename, funcname)] += row[2]
    return out


class Spans:
    """Nested wall-clock spans: name, start, end, parent id."""

    def __init__(self) -> None:
        self.rows: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        row = {"id": len(self.rows), "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, entry_point: str, fn, *args, **kwargs):
        """Run ``fn`` inside a ``call:<entry point>`` span."""
        with self.span("call:" + entry_point):
            return fn(*args, **kwargs)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.rows, fh, indent=1)
            fh.write("\n")
