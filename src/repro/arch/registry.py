"""The architecture registry: name -> NoC builder.

Replaces the historic ``runner.ARCHITECTURES`` tuple and the if/else
dispatch the runner and the sweep's worker entry each carried. Each
entry is a builder::

    builder(sim: Simulator, config: SystemConfig,
            pattern: TrafficPattern) -> NoCArchitecture

A new architecture becomes sweepable everywhere (runner, sweeps, specs,
CLI choices) with one call::

    from repro.api.registry import architectures

    @architectures.register("my_noc")
    def _build_my_noc(sim, config, pattern):
        return MyNoC(sim, config)

Unknown names raise ``ValueError`` (the historic ``build_arch``
contract).
"""

from __future__ import annotations

from repro.api.base import Registry
from repro.arch.dhetpnoc import DHetPNoC
from repro.arch.firefly import FireflyNoC

__all__ = ["architectures"]

#: Registry of ``name -> builder(sim, config, pattern)``.
architectures = Registry("architecture", error=ValueError)


@architectures.register("firefly")
def _build_firefly(sim, config, pattern):
    """Statically-split Firefly baseline (ignores the traffic pattern)."""
    return FireflyNoC(sim, config)


@architectures.register("dhetpnoc")
def _build_dhetpnoc(sim, config, pattern):
    """The proposed d-HetPNoC with token-based DBA."""
    return DHetPNoC(sim, config, pattern=pattern)


@architectures.register("electrical")
def _build_electrical(sim, config, pattern):
    """Chapter-1 electrical mesh baseline (the non-photonic floor).

    Registered so differential scenario checks can run every generated
    schedule against all three substrates; it never joins a default
    sweep (CLI/validation grids stay pinned to the thesis pair). The
    mesh modules load on the first build: a photonic run never needs
    them."""
    from repro.arch.electrical_baseline import ElectricalMeshNoC

    return ElectricalMeshNoC(sim, config)
