"""repro: full reproduction of *Heterogeneous Photonic Network-on-Chip
with Dynamic Bandwidth Allocation* (Shah, RIT thesis / IEEE SOCC 2014).

Public API tour
---------------

Build and run the proposed architecture against the baseline::

    from repro import (
        Simulator, SystemConfig, DHetPNoC, FireflyNoC,
        BW_SET_1, pattern_by_name, TrafficGenerator, RandomStreams,
    )

    streams = RandomStreams(seed=1)
    sim = Simulator(seed=1)
    config = SystemConfig(bw_set=BW_SET_1)
    pattern = pattern_by_name("skewed3").bind(
        config.bw_set, rng=streams.get("placement"))
    noc = DHetPNoC(sim, config, pattern=pattern)
    gen = TrafficGenerator.for_offered_gbps(
        pattern, 400.0, streams.get("traffic"), noc.submit)
    noc.attach_generator(gen)
    sim.run_with_reset(total_cycles=10_000, reset_cycles=1_000)
    noc.finalize()
    print(noc.metrics.delivered_gbps(config.clock_hz), "Gb/s")

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
