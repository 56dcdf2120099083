"""``ExperimentSpec``: the typed, declarative description of an experiment.

One spec pins everything that determines a family of simulations —
architectures x bandwidth sets x traffic patterns x scenarios x seeds x
fidelity, plus the execution mode (dense load grid or adaptive knee
search) — and round-trips through plain JSON, so the same experiment can
be expressed as Python, stored in a file, shipped to a remote runner, or
passed to ``dhetpnoc-repro run --spec spec.json``. The spec *is* the
grid: :meth:`ExperimentSpec.expand` flattens it to the
:class:`~repro.experiments.sweep.RunPoint`\\ s the executors run, in
the axis order :meth:`ExperimentSpec.curves` writes once. Axis names
are validated against the plugin registries — and axes checked
non-empty and duplicate-free — at construction time, so a typo fails
when the spec is built, not half-way through a sweep.

>>> spec = ExperimentSpec(archs=("firefly",), bw_sets=(1,))
>>> ExperimentSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.arch.registry import architectures
from repro.experiments.runner import Fidelity, QUICK_FIDELITY, fidelities
from repro.experiments.sweep import RunPoint, curve_points
from repro.scenarios.library import scenarios as scenario_registry
from repro.traffic.bandwidth_sets import bandwidth_sets
from repro.traffic.patterns import patterns

__all__ = ["ExperimentSpec", "SPEC_VERSION"]

#: Bump when the serialised spec schema changes incompatibly.
SPEC_VERSION = 1

#: Execution modes: a dense offered-load grid, or the knee-bisection
#: search seeded from the analytic saturation model.
MODES = ("grid", "adaptive")


def _fidelity_from(value) -> Fidelity:
    """Coerce *value* (``Fidelity`` | registry name | dict) to a Fidelity."""
    if isinstance(value, Fidelity):
        return value
    if isinstance(value, str):
        return fidelities.get(value)
    if isinstance(value, dict):
        known = {f.name for f in dataclasses.fields(Fidelity)}
        unknown = set(value) - known
        if unknown:
            raise ValueError(
                f"unknown fidelity fields {sorted(unknown)}; expected "
                f"{sorted(known)}"
            )
        missing = known - set(value)
        if missing:
            raise ValueError(f"fidelity dict is missing {sorted(missing)}")
        return Fidelity(
            name=str(value["name"]),
            total_cycles=int(value["total_cycles"]),
            reset_cycles=int(value["reset_cycles"]),
            load_fractions=tuple(float(f) for f in value["load_fractions"]),
        )
    raise ValueError(
        f"fidelity must be a Fidelity, a registered name or a dict, "
        f"not {type(value).__name__}"
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment (see module docstring).

    Every axis accepts any sequence and is normalised to a tuple;
    ``fidelity`` additionally accepts a registered name (``"quick"`` /
    ``"paper"``) or a serialised dict. Defaults reproduce the thesis's
    standard grid: both architectures, all three bandwidth sets, the
    uniform pattern, the stationary (scenario-less) workload, seed 1,
    quick fidelity, derived per-curve seeds.
    """

    archs: Tuple[str, ...] = tuple(architectures.names())
    bw_sets: Tuple[int, ...] = tuple(bandwidth_sets.names())
    patterns: Tuple[str, ...] = ("uniform",)
    scenarios: Tuple[Optional[str], ...] = (None,)
    #: Scenario-script JSON files loaded into the scenario registry
    #: before the ``scenarios`` axis is validated, so a spec can carry
    #: workloads that live outside the built-in library (see
    #: ``repro.scenarios.library.load_scenario_file``).
    scenario_files: Tuple[str, ...] = ()
    seeds: Tuple[int, ...] = (1,)
    fidelity: Fidelity = QUICK_FIDELITY
    #: Override the fidelity's load grid (grid mode) / the knee-search
    #: range cap (adaptive mode); ``None`` uses the fidelity unchanged.
    load_fractions: Optional[Tuple[float, ...]] = None
    #: Derive decorrelated per-curve seeds (see ``sweep.derive_seed``);
    #: ``False`` uses each base seed verbatim (legacy semantics).
    derive_seeds: bool = True
    #: ``"grid"`` sweeps the load grid densely; ``"adaptive"`` bisects
    #: each curve's saturation knee instead.
    mode: str = "grid"
    #: Load-fraction step the adaptive search localises knees to.
    resolution: float = 0.05

    def __post_init__(self) -> None:
        coerce = {
            "archs": tuple(self.archs),
            "bw_sets": tuple(int(i) for i in self.bw_sets),
            "patterns": tuple(self.patterns),
            "scenarios": tuple(self.scenarios),
            "scenario_files": tuple(str(p) for p in self.scenario_files),
            "seeds": tuple(int(s) for s in self.seeds),
            "fidelity": _fidelity_from(self.fidelity),
            "load_fractions": (
                None
                if self.load_fractions is None
                else tuple(float(f) for f in self.load_fractions)
            ),
        }
        for name, value in coerce.items():
            object.__setattr__(self, name, value)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; use one of {MODES}")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        # Validate axis names against the registries (typos fail here,
        # not mid-sweep) ...
        for arch in self.archs:
            architectures.get(arch)
        for index in self.bw_sets:
            bandwidth_sets.get(index)
        for pattern in self.patterns:
            patterns.get(pattern)
        # Scenario files register before the axis is validated, so a
        # spec can name the scenarios it ships.
        if self.scenario_files:
            from repro.scenarios.library import load_scenario_file

            for path in self.scenario_files:
                load_scenario_file(path)
        for scenario in self.scenarios:
            if scenario is not None:
                scenario_registry.get(scenario)
        # ... and the structure of the grid: no empty axis, and no
        # repeated value (it would double-count the same simulation).
        axes = ("archs", "bw_sets", "patterns", "scenarios", "seeds")
        if not all(getattr(self, axis) for axis in axes):
            raise ValueError("every sweep axis needs at least one value")
        if self.load_fractions is not None and not self.load_fractions:
            raise ValueError("load_fractions override must be non-empty")
        for axis in axes + ("load_fractions",):
            values = getattr(self, axis) or ()
            if len(set(values)) != len(values):
                raise ValueError(
                    f"duplicate values in {axis}: {values} (a repeated axis "
                    "value would double-count the same simulation)"
                )

    # -- the grid -----------------------------------------------------------
    def to_sweep_spec(self) -> "ExperimentSpec":
        """The spec itself; only the perf ledger still calls it."""
        return self

    @property
    def fractions(self) -> Tuple[float, ...]:
        """The load grid: the override, else the fidelity's."""
        return self.load_fractions or self.fidelity.load_fractions

    def expand(self) -> List[RunPoint]:
        """Flatten the grid to points, in deterministic axis order."""
        fractions = self.fractions
        points: List[RunPoint] = []
        for curve in self.curves():
            points.extend(curve_points(curve, fractions, self.derive_seeds))
        return points

    def n_points(self) -> int:
        """Size of the expanded grid (product of the axis lengths)."""
        return len(self.curves()) * len(self.fractions)

    def curves(self) -> Tuple[Tuple[str, int, str, Optional[str], int], ...]:
        """Curve coordinates in axis order: ``(arch, bw_set, pattern,
        scenario, seed)`` — the key shape :meth:`Session.peaks` uses."""
        return tuple(
            (arch, bw_index, pattern, scenario, seed)
            for arch in self.archs
            for bw_index in self.bw_sets
            for pattern in self.patterns
            for scenario in self.scenarios
            for seed in self.seeds
        )

    def points_per_curve(self) -> int:
        """Simulations one curve costs, before any store dedup.

        Exact in grid mode (the load grid's length). In adaptive mode
        it is an *estimate* of the knee search: one plateau probe, one
        analytic-seed probe, and roughly ``log2(range / resolution)``
        bracket/bisection steps — the number ``--dry-run`` (and the
        fabric's scatter report) quote per curve.
        """
        if self.mode == "grid":
            return len(self.fractions)
        max_fraction = max(self.fractions)
        span = max(2.0, max_fraction / self.resolution)
        return 2 + math.ceil(math.log2(span))

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON form; exact inverse of :meth:`from_dict`."""
        return {
            "version": SPEC_VERSION,
            "archs": list(self.archs),
            "bw_sets": list(self.bw_sets),
            "patterns": list(self.patterns),
            "scenarios": list(self.scenarios),
            "scenario_files": list(self.scenario_files),
            "seeds": list(self.seeds),
            "fidelity": {
                "name": self.fidelity.name,
                "total_cycles": self.fidelity.total_cycles,
                "reset_cycles": self.fidelity.reset_cycles,
                "load_fractions": list(self.fidelity.load_fractions),
            },
            "load_fractions": (
                None if self.load_fractions is None else list(self.load_fractions)
            ),
            "derive_seeds": self.derive_seeds,
            "mode": self.mode,
            "resolution": self.resolution,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build a spec from :meth:`to_dict` output (or a hand-written
        subset — missing keys take the field defaults; unknown keys are
        an error so a typo cannot silently become a default)."""
        if not isinstance(data, dict):
            raise ValueError(f"spec must be a JSON object, not {type(data).__name__}")
        payload = dict(data)
        version = payload.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r} (this build reads "
                f"version {SPEC_VERSION})"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown spec fields {sorted(unknown)}; expected a subset "
                f"of {sorted(known)}"
            )
        return cls(**payload)

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON document (sorted keys, stable layout)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from a JSON document (see :meth:`from_dict`)."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the spec to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Read a spec from a JSON file at *path*."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
