"""Export the result store as a tidy feature table.

Every :class:`~repro.experiments.runner.RunResult` in a store becomes
one row: categorical run coordinates (architecture, bandwidth set,
pattern, scenario), numeric load features, the scenario's coverage
dimensions (:func:`repro.scenarios.coverage.schedule_dimensions` —
zeros for stationary runs), and the measured QoS targets.

Determinism is the contract: rows are sorted by content-hash key, every
float passes through JSON unchanged, and :meth:`Dataset.to_json` uses
sorted keys — so exporting the same store twice produces byte-identical
files, and the dataset's :meth:`~Dataset.digest` is a stable identity
that fitted models embed for provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.api.base import canonical_json
from repro.experiments.store import ResultStore
from repro.scenarios.coverage import DIMENSIONS

#: Feature columns, in schema order. ``scenario`` is ``""`` for
#: stationary runs (JSON-friendlier than null in a flat table).
FEATURES: Tuple[str, ...] = (
    "arch",
    "bw_set_index",
    "pattern",
    "scenario",
    "load_fraction",
    "offered_gbps",
) + DIMENSIONS

#: Target columns, in schema order.
TARGETS: Tuple[str, ...] = (
    "delivered_gbps",
    "mean_latency_cycles",
    "energy_per_message_pj",
    "acceptance_ratio",
)

#: Bump when the row schema changes.
DATASET_VERSION = 1


def _scenario_dimensions(scenario: str, total_cycles: int) -> Dict[str, float]:
    """Coverage-dimension scores for a named scenario (zeros when the
    scenario is unknown to this process's library, or stationary)."""
    if not scenario or total_cycles <= 0:
        return {d: 0.0 for d in DIMENSIONS}
    from repro.scenarios.coverage import schedule_dimensions
    from repro.scenarios.library import build_scenario
    from repro.scenarios.schedule import ScenarioError

    try:
        schedule = build_scenario(scenario, total_cycles)
        return schedule_dimensions(schedule, total_cycles)
    except ScenarioError:
        # The store may hold rows from scenarios registered in another
        # process (e.g. a plugin's schedule): featurize them as flat.
        return {d: 0.0 for d in DIMENSIONS}


@dataclass(frozen=True)
class Dataset:
    """A tidy (features, targets) table exported from a result store."""

    #: Row dicts keyed by :data:`FEATURES` + :data:`TARGETS`, sorted by
    #: the originating store key (export order is part of the schema).
    rows: Tuple[Dict[str, object], ...]
    features: Tuple[str, ...] = field(default=FEATURES)
    targets: Tuple[str, ...] = field(default=TARGETS)
    version: int = DATASET_VERSION

    def __len__(self) -> int:
        return len(self.rows)

    def to_dict(self) -> dict:
        """JSON-able form of the whole table."""
        return {
            "version": self.version,
            "features": list(self.features),
            "targets": list(self.targets),
            "rows": [dict(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Dataset":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        if not isinstance(data, dict):
            raise ValueError(f"dataset must be a JSON object, not {data!r}")
        unknown = set(data) - {"version", "features", "targets", "rows"}
        if unknown:
            raise ValueError(f"unknown dataset fields {sorted(unknown)}")
        rows = data.get("rows")
        if not isinstance(rows, list):
            raise ValueError("dataset needs a 'rows' array")
        return cls(
            rows=tuple(dict(row) for row in rows),
            features=tuple(data.get("features", FEATURES)),
            targets=tuple(data.get("targets", TARGETS)),
            version=int(data.get("version", DATASET_VERSION)),
        )

    def to_json(self) -> str:
        """Canonical serialisation (sorted keys — byte-deterministic)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Dataset":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "Dataset":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def digest(self) -> str:
        """16-hex content identity of the table (embedded in fitted
        models for provenance)."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode()
        ).hexdigest()[:16]


def export_dataset(store: ResultStore) -> Dataset:
    """Export *store* as a :class:`Dataset`.

    A pure function of the store's contents: rows come out sorted by
    content-hash key, so two exports of the same store are identical
    regardless of backend, insertion order, or shard layout.
    """
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index

    dims_cache: Dict[Tuple[str, int], Dict[str, float]] = {}
    rows: List[Dict[str, object]] = []
    for key, result in sorted(store, key=lambda kv: kv[0]):
        try:
            aggregate = bandwidth_set_by_index(result.bw_set_index).aggregate_gbps
        except (KeyError, ValueError):
            aggregate = 0.0
        scenario = result.scenario or ""
        # Scenario runs carry their phase windows; the last window's end
        # is the run's total_cycles (what the schedule was built for).
        total_cycles = result.phases[-1].end_cycle if result.phases else 0
        cache_key = (scenario, total_cycles)
        if cache_key not in dims_cache:
            dims_cache[cache_key] = _scenario_dimensions(scenario, total_cycles)
        dims = dims_cache[cache_key]
        row: Dict[str, object] = {
            "arch": result.arch,
            "bw_set_index": result.bw_set_index,
            "pattern": result.pattern,
            "scenario": scenario,
            "load_fraction": (
                result.offered_gbps / aggregate if aggregate > 0 else 0.0
            ),
            "offered_gbps": result.offered_gbps,
        }
        row.update({d: dims[d] for d in DIMENSIONS})
        row.update(
            {
                "delivered_gbps": result.delivered_gbps,
                "mean_latency_cycles": result.mean_latency_cycles,
                "energy_per_message_pj": result.energy_per_message_pj,
                "acceptance_ratio": result.acceptance_ratio,
            }
        )
        rows.append(row)
    return Dataset(rows=tuple(rows))
