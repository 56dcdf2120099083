"""``repro.api``: the declarative experiment API.

One stable, composable entry point for every surface — CLI, figures,
validation, benchmarks, scripts:

* :class:`~repro.api.spec.ExperimentSpec` — a typed, JSON-round-trip
  description of an experiment (architectures x patterns x bandwidth
  sets x scenarios x seeds x fidelity, dense grid or adaptive knee
  search);
* :class:`~repro.api.session.Session` — a facade owning the sweep
  executor, the result-store backend and the config cache, with a
  context-manager lifecycle: ``session.run(spec)``,
  ``session.peaks(spec)``, ``session.adaptive(spec)``;
* :mod:`repro.api.registry` — every plugin registry (architectures,
  traffic patterns, scenarios, store backends, bandwidth sets,
  fidelities) in one namespace, so a new architecture or backend is a
  ``register()`` call away.

Example::

    from repro.api import ExperimentSpec, Session

    spec = ExperimentSpec(patterns=("skewed3",), bw_sets=(1,))
    with Session("results/store.jsonl", workers=4) as session:
        for curve, peak in session.peaks(spec).items():
            print(curve, peak.delivered_gbps)

Submodules are imported lazily (PEP 562), so light layers (the
architecture registry, the scenario library) can depend on
:mod:`repro.api.base` without dragging in the whole experiment stack.
"""

from __future__ import annotations

from repro.api.base import Registry, RegistryError, lazy_exports

#: name -> (module, attribute); ``None`` attribute = the module itself.
_LAZY = {
    "DryRunReport": ("repro.api.session", "DryRunReport"),
    "ExperimentSpec": ("repro.api.spec", "ExperimentSpec"),
    "Session": ("repro.api.session", "Session"),
    "registry": ("repro.api.registry", None),
}

__all__ = [
    "DryRunReport",
    "ExperimentSpec",
    "Registry",
    "RegistryError",
    "Session",
    "registry",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
