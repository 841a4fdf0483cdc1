"""Campaign persistence: a versioned manifest plus append-only results.

Layout of a campaign directory::

    campaign.json    versioned manifest: spec (full JSON), spec hash,
                     cell count, provenance stamp
    cells.jsonl      one line per *finished* cell (success, or failure
                     with retries exhausted), appended incrementally

The store mirrors — at the orchestration layer — the checkpoint/restart
semantics the simulator models: every finished cell is durable the
moment its line hits the journal, so a campaign killed at any point
(worker SIGKILL, parent SIGKILL, power loss) resumes by replaying the
journal and skipping every cell it already holds.  A torn final line
(the parent died mid-append) is detected and ignored; that cell simply
re-runs.  Loading deduplicates by cell id with last-record-wins, so a
journal produced by any interleaving of run/resume cycles yields the
same cell → record map.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict

from repro.bench.attribution import provenance
from repro.errors import CampaignError
from repro.campaign.spec import MANIFEST_VERSION, CampaignSpec

MANIFEST_NAME = "campaign.json"
JOURNAL_NAME = "cells.jsonl"

#: a finished cell is one of these; anything else never reaches the
#: journal ("lost" = the cell's job ended in typed graceful degradation
#: — a reportable outcome with work-lost accounting, not a failure)
TERMINAL_STATUSES = ("ok", "lost", "failed", "crashed", "timeout")


class CampaignStore:
    """One campaign directory: manifest + incremental cell journal."""

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self._journal = None

    # -- manifest -------------------------------------------------------
    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / MANIFEST_NAME

    @property
    def journal_path(self) -> pathlib.Path:
        return self.root / JOURNAL_NAME

    def exists(self) -> bool:
        return self.manifest_path.exists()

    def create(self, spec: CampaignSpec) -> dict:
        """Write the manifest for a fresh campaign.  Refuses to clobber
        an existing one — resume instead."""
        if self.exists():
            raise CampaignError(
                f"{self.manifest_path} already exists; resume it or pick "
                "a fresh directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": MANIFEST_VERSION,
            "spec": spec.canonical(),
            "spec_hash": spec.spec_hash,
            "total_cells": len(spec.cells()),
            "provenance": provenance(),
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.manifest_path)
        return manifest

    def load_manifest(self) -> dict:
        if not self.exists():
            raise CampaignError(
                f"no campaign manifest at {self.manifest_path}; run a "
                "campaign there first"
            )
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CampaignError(
                f"unreadable campaign manifest {self.manifest_path}: {exc}"
            ) from exc
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise CampaignError(
                f"campaign manifest version {version!r} != supported "
                f"{MANIFEST_VERSION} ({self.manifest_path})"
            )
        return manifest

    def load_spec(self) -> CampaignSpec:
        return CampaignSpec.from_json(self.load_manifest()["spec"])

    def check_spec(self, spec: CampaignSpec) -> None:
        """Refuse to mix two different grids in one directory."""
        have = self.load_manifest()["spec_hash"]
        if have != spec.spec_hash:
            raise CampaignError(
                f"campaign directory {self.root} was written by a "
                f"different spec (manifest {have}, requested "
                f"{spec.spec_hash}); resume it as-is or pick a fresh "
                "directory"
            )

    # -- journal --------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one finished cell (one JSON line + flush)."""
        if record.get("status") not in TERMINAL_STATUSES:
            raise CampaignError(
                f"refusing to journal non-terminal record: {record!r}"
            )
        if self._journal is None:
            self.root.mkdir(parents=True, exist_ok=True)
            seal = self._torn_tail()
            self._journal = open(self.journal_path, "a", encoding="utf-8")
            if seal:
                # a writer died mid-append: terminate the torn line so
                # new records never merge into it (it stays unparseable
                # on its own, and that cell simply re-ran)
                self._journal.write("\n")
        self._journal.write(
            json.dumps(record, sort_keys=True, default=str) + "\n"
        )
        self._journal.flush()
        os.fsync(self._journal.fileno())

    def _torn_tail(self) -> bool:
        """True when the journal ends without a newline — the mark of a
        writer killed mid-append."""
        try:
            with open(self.journal_path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return False
                fh.seek(-1, os.SEEK_END)
                return fh.read(1) != b"\n"
        except OSError:
            return False

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def records(self) -> Dict[str, dict]:
        """The journal as a cell_id → record map.

        Unparseable lines (a torn append from a killed writer) are
        skipped — those cells just re-run; duplicate ids keep the last
        record.
        """
        out: Dict[str, dict] = {}
        if not self.journal_path.exists():
            return out
        with open(self.journal_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # torn write; the cell re-runs on resume
                if isinstance(rec, dict) and "cell_id" in rec:
                    out[rec["cell_id"]] = rec
        return out

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.records().values():
            counts[rec.get("status", "?")] = (
                counts.get(rec.get("status", "?"), 0) + 1
            )
        return counts
