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
from repro.arch import DHetPNoC, FireflyNoC, SystemConfig
from repro.sim import RandomStreams, Simulator
from repro.traffic import (
    BANDWIDTH_SETS,
    BW_SET_1,
    BW_SET_2,
    BW_SET_3,
    TrafficGenerator,
    pattern_by_name,
)

__version__ = "1.1.0"

#: Heavy experiment-API members, imported lazily (PEP 562) so that
#: ``import repro`` stays light.
_API_EXPORTS = {
    "ExperimentSpec": ("repro.api.spec", "ExperimentSpec"),
    "Session": ("repro.api.session", "Session"),
    "api": ("repro.api", None),
}

__all__ = [
    "BANDWIDTH_SETS",
    "BW_SET_1",
    "BW_SET_2",
    "BW_SET_3",
    "DHetPNoC",
    "ExperimentSpec",
    "FireflyNoC",
    "RandomStreams",
    "Session",
    "Simulator",
    "SystemConfig",
    "TrafficGenerator",
    "api",
    "pattern_by_name",
    "__version__",
]


__getattr__, __dir__ = lazy_exports(__name__, globals(), _API_EXPORTS)
