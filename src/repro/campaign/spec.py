"""Declarative campaign grids: what to run, expanded into cells.

A :class:`CampaignSpec` is the whole experiment written down — a cell
*kind* (a registered runner from :mod:`repro.campaign.cells`), a base
parameter set, and axes whose cross product spans the grid.  Expansion
is deterministic, and every :class:`Cell` carries a stable content hash
of its full parameter set (via :mod:`repro.util.hashing`), so two cells
with identical configuration have identical IDs — the cache key that
lets a resumed or re-run campaign skip work it already has results for.

The spec itself is JSON-serializable both ways: the campaign store
writes it into the manifest, and ``resume`` rebuilds the grid from the
manifest alone, without knowing which registry entry created it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.util.hashing import stable_hash

#: bump when the manifest layout changes incompatibly
MANIFEST_VERSION = 1


def _canonical(obj) -> str:
    """Canonical JSON: the hashing substrate for cell and spec IDs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def config_hash(kind: str, params: Mapping) -> str:
    """Stable content hash of one cell's full configuration."""
    blob = _canonical({"kind": kind, "params": dict(params)}).encode()
    return f"{stable_hash(blob):016x}"


@dataclass(frozen=True)
class Cell:
    """One point of the grid: a kind, its full parameter set, and the
    derived identity.  ``cell_id`` *is* the config hash — identical
    configuration, identical cell, cache hit."""

    kind: str
    params: Tuple[Tuple[str, object], ...]

    @staticmethod
    def make(kind: str, params: Mapping) -> "Cell":
        return Cell(kind=kind, params=tuple(sorted(params.items())))

    @property
    def params_dict(self) -> dict:
        return dict(self.params)

    @property
    def config_hash(self) -> str:
        return config_hash(self.kind, self.params_dict)

    @property
    def cell_id(self) -> str:
        return f"{self.kind}-{self.config_hash}"


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: ``base`` parameters shared by every cell,
    crossed with ``axes`` (axis name → value list).  ``group_by`` and
    ``metrics``/``categoricals`` carry the aggregation recipe so
    ``campaign report`` needs nothing but the manifest."""

    name: str
    kind: str
    base: Tuple[Tuple[str, object], ...] = ()
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    group_by: Tuple[str, ...] = ()
    metrics: Tuple[str, ...] = ()
    categoricals: Tuple[str, ...] = ()
    #: explicit off-grid cells (kind may differ — e.g. injected crash
    #: cells in the CI smoke campaign)
    extra_cells: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()
    timeout_s: float = 300.0
    max_attempts: int = 2

    @staticmethod
    def make(name: str, kind: str, base: Mapping = (),
             axes: Mapping = (), group_by: Sequence[str] = (),
             metrics: Sequence[str] = (),
             categoricals: Sequence[str] = (),
             extra_cells: Sequence = (),
             timeout_s: float = 300.0,
             max_attempts: int = 2) -> "CampaignSpec":
        return CampaignSpec(
            name=name,
            kind=kind,
            base=tuple(sorted(dict(base).items())),
            axes=tuple((k, tuple(v)) for k, v in dict(axes).items()),
            group_by=tuple(group_by),
            metrics=tuple(metrics),
            categoricals=tuple(categoricals),
            extra_cells=tuple(
                (k, tuple(sorted(dict(p).items()))) for k, p in extra_cells
            ),
            timeout_s=timeout_s,
            max_attempts=max_attempts,
        )

    # -- expansion ------------------------------------------------------
    def cells(self) -> List[Cell]:
        """The full grid, in deterministic order: the cross product of
        the axes (last axis fastest), then the explicit extras."""
        out: List[Cell] = [Cell.make(self.kind, params)
                           for params in self._grid()]
        out.extend(Cell(kind=k, params=p) for k, p in self.extra_cells)
        return out

    def _grid(self) -> List[dict]:
        grids: List[dict] = [dict(self.base)]
        for axis, values in self.axes:
            grids = [dict(g, **{axis: v}) for g in grids for v in values]
        return grids

    # -- identity and serialization ------------------------------------
    def canonical(self) -> dict:
        """A pure-JSON rendering (tuples → lists) used for hashing and
        the manifest; ``from_json`` inverts it exactly."""
        return {
            "name": self.name,
            "kind": self.kind,
            "base": [[k, v] for k, v in self.base],
            "axes": [[k, list(v)] for k, v in self.axes],
            "group_by": list(self.group_by),
            "metrics": list(self.metrics),
            "categoricals": list(self.categoricals),
            "extra_cells": [[k, [[pk, pv] for pk, pv in p]]
                            for k, p in self.extra_cells],
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
        }

    @property
    def spec_hash(self) -> str:
        return f"{stable_hash(_canonical(self.canonical()).encode()):016x}"

    @staticmethod
    def from_json(doc: Mapping) -> "CampaignSpec":
        return CampaignSpec(
            name=doc["name"],
            kind=doc["kind"],
            base=tuple((k, v) for k, v in doc["base"]),
            axes=tuple((k, tuple(v)) for k, v in doc["axes"]),
            group_by=tuple(doc["group_by"]),
            metrics=tuple(doc["metrics"]),
            categoricals=tuple(doc.get("categoricals", ())),
            extra_cells=tuple(
                (k, tuple((pk, pv) for pk, pv in p))
                for k, p in doc.get("extra_cells", ())
            ),
            timeout_s=doc["timeout_s"],
            max_attempts=doc["max_attempts"],
        )


# ----------------------------------------------------------------------
# the named specs: the repo's sweeps, re-expressed as campaign grids
# ----------------------------------------------------------------------

def spec_fault_recovery(seeds: int = 8, nranks: int = 4) -> CampaignSpec:
    """The ``bench_fault_recovery`` sweep as a grid: checkpoint interval
    × seed, one seeded-random kill per cell."""
    return CampaignSpec.make(
        name="fault-recovery",
        kind="fault_recovery",
        base={"nranks": nranks},
        axes={"interval_frac": (0.15, 0.25, 0.4),
              "seed": tuple(range(seeds))},
        group_by=("interval_frac",),
        metrics=("work_lost", "detection_latency", "recovery_overhead"),
    )


def spec_storage_redundancy(seeds: int = 4, nranks: int = 4) -> CampaignSpec:
    """The ``bench_storage_redundancy`` sweep as a grid: redundancy
    policy × checkpoint interval × seed, one node loss per cell."""
    return CampaignSpec.make(
        name="storage-redundancy",
        kind="storage_redundancy",
        base={"nranks": nranks},
        axes={"policy": ("local_only", "bb_only", "partner", "xor4",
                         "ladder"),
              "interval_frac": (0.25, 0.4),
              "seed": tuple(range(seeds))},
        group_by=("policy", "interval_frac"),
        metrics=("work_lost", "ckpt_overhead", "copies_per_epoch"),
        categoricals=("outcome",),
    )


def spec_availability_mc(seeds: int = 20, nranks: int = 4,
                         mtbf_fracs: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
                         interval_fracs: Sequence[float] = (0.15, 0.25, 0.4),
                         crash_cells: int = 0) -> CampaignSpec:
    """The Monte-Carlo availability study: work-lost distribution vs
    MTBF × checkpoint interval, ``seeds`` trials per point.  The default
    grid is 4 × 3 × 20 = 240 cells.  ``crash_cells`` appends that many
    deliberately crashing cells — the CI smoke uses them to prove a
    dying worker never takes down the campaign."""
    extras = [("synthetic",
               {"seed": i, "fail_mode": "sigkill" if i % 2 else "raise"})
              for i in range(crash_cells)]
    return CampaignSpec.make(
        name="availability-mc",
        kind="availability",
        base={"nranks": nranks},
        axes={"mtbf_frac": tuple(mtbf_fracs),
              "interval_frac": tuple(interval_fracs),
              "seed": tuple(range(seeds))},
        group_by=("mtbf_frac", "interval_frac"),
        metrics=("work_lost",),
        categoricals=("outcome",),
        extra_cells=extras,
    )


def spec_scenarios(seeds: int = 3, nranks: int = 4) -> CampaignSpec:
    """Every named survivability scenario × seed."""
    from repro.faults.scenarios import scenario_names

    return CampaignSpec.make(
        name="scenarios",
        kind="scenario",
        base={"nranks": nranks},
        axes={"scenario": tuple(scenario_names()),
              "seed": tuple(range(seeds))},
        group_by=("scenario",),
        metrics=("elapsed",),
        categoricals=("verdict",),
    )


def spec_chaos(points: int = 100, nranks: int = 4, laps: int = 6,
               depth: int = 2, seed: int = 0,
               kinds: Sequence[str] = ("kill_rank", "oob_delay",
                                       "blob_corrupt")) -> CampaignSpec:
    """The crash-anywhere acceptance sweep: fault kind × injection
    point, every cell classified completed / recovered / lost, any
    invariant violation a failed cell.  The default grid is 3 × 100 =
    300 injection points.  Cells carry a 1-based *point index*, not a
    raw event number — a cell derives its event from the deterministic
    golden run of its ``(nranks, laps)``, which a campaign computes once
    for the whole grid — keeping the grid static JSON."""
    return CampaignSpec.make(
        name="chaos",
        kind="chaos",
        base={"nranks": nranks, "laps": laps, "depth": depth,
              "points": points, "seed": seed},
        axes={"fault": tuple(kinds),
              "point": tuple(range(1, points + 1))},
        group_by=("fault",),
        metrics=("elapsed", "mttr", "work_lost"),
        categoricals=("classification",),
    )


def spec_smoke(cells: int = 14, sleep_s: float = 0.05) -> CampaignSpec:
    """The CI smoke campaign: a small synthetic grid with two injected
    mid-run cell failures (one Python exception, one SIGKILL'd worker)
    and one flaky cell that succeeds on retry.  The campaign itself must
    finish with zero campaign-level failures."""
    return CampaignSpec.make(
        name="smoke",
        kind="synthetic",
        base={"sleep_s": sleep_s, "work": 200},
        axes={"seed": tuple(range(cells))},
        group_by=(),
        metrics=("value",),
        extra_cells=[
            ("synthetic", {"seed": 1001, "fail_mode": "raise"}),
            ("synthetic", {"seed": 1002, "fail_mode": "sigkill"}),
            ("synthetic", {"seed": 1003, "fail_mode": "flaky",
                           "sleep_s": sleep_s}),
        ],
        timeout_s=120.0,
    )


#: registry for the CLI: name → builder(**kwargs)
SPECS: Dict[str, Callable[..., CampaignSpec]] = {
    "fault-recovery": spec_fault_recovery,
    "storage-redundancy": spec_storage_redundancy,
    "availability-mc": spec_availability_mc,
    "scenarios": spec_scenarios,
    "chaos": spec_chaos,
    "smoke": spec_smoke,
}
