"""repro: full reproduction of *Heterogeneous Photonic Network-on-Chip
with Dynamic Bandwidth Allocation* (Shah, RIT thesis / IEEE SOCC 2014).

Public API tour
---------------

Wire and run the proposed architecture on the table 3-3 schedule
(10 000 cycles, the first 1 000 discarded as warm-up), the way every
run in this package is wired::

    from repro import BW_SET_1
    from repro.experiments.runner import PAPER_FIDELITY, attach_traffic, wire_run

    run = wire_run("dhetpnoc", BW_SET_1, "skewed3", PAPER_FIDELITY, seed=1)
    attach_traffic(run, 400.0, PAPER_FIDELITY)
    run.simulate(PAPER_FIDELITY.total_cycles, PAPER_FIDELITY.reset_cycles)
    print(run.arch.metrics.delivered_gbps(run.config.clock_hz), "Gb/s")

Or drive everything through the declarative API (see ``docs/api.md``)::

    from repro import ExperimentSpec, Session

    spec = ExperimentSpec(patterns=("skewed3",), bw_sets=(1,))
    with Session(workers=4) as session:
        for curve, peak in session.peaks(spec).items():
            print(curve, peak.delivered_gbps)

Or regenerate a thesis exhibit directly::

    from repro.experiments.figures import figure_3_3
    print(figure_3_3().render())

Package map: :mod:`repro.sim` (cycle engine), :mod:`repro.noc`
(electrical substrate), :mod:`repro.photonic` (devices/channels),
:mod:`repro.dba` (the contribution), :mod:`repro.arch` (architectures),
:mod:`repro.traffic`, :mod:`repro.energy`, :mod:`repro.area`,
:mod:`repro.gpu`, :mod:`repro.experiments`.
"""

from repro.api.base import lazy_exports

__version__ = "1.1.0"

#: Every export imports on first use (PEP 562), so ``import repro``
#: stays light: it loads three ``repro`` modules (this one,
#: ``repro.api`` and ``repro.api.base``), and a stationary photonic run
#: loads 40 (``tests/test_repo_hygiene.py`` holds it to 42).
_LAZY = {
    "BANDWIDTH_SETS": ("repro.traffic.bandwidth_sets", "BANDWIDTH_SETS"),
    "BW_SET_1": ("repro.traffic.bandwidth_sets", "BW_SET_1"),
    "BW_SET_2": ("repro.traffic.bandwidth_sets", "BW_SET_2"),
    "BW_SET_3": ("repro.traffic.bandwidth_sets", "BW_SET_3"),
    "DHetPNoC": ("repro.arch.dhetpnoc", "DHetPNoC"),
    "ExperimentSpec": ("repro.api.spec", "ExperimentSpec"),
    "FireflyNoC": ("repro.arch.firefly", "FireflyNoC"),
    "RandomStreams": ("repro.sim.rng", "RandomStreams"),
    "Session": ("repro.api.session", "Session"),
    "Simulator": ("repro.sim.engine", "Simulator"),
    "SystemConfig": ("repro.arch.config", "SystemConfig"),
    "TrafficGenerator": ("repro.traffic.generator", "TrafficGenerator"),
    "api": ("repro.api", None),
    "pattern_by_name": ("repro.traffic.patterns", "pattern_by_name"),
}

__all__ = [*_LAZY, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
