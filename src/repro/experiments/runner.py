"""The single-run core, fidelities and the saturation-peak methodology.

Methodology (thesis 3.4.1.1): "Peak bandwidth is measured as average
number of bits successfully arriving at all cores per second." We sweep
the offered load over a grid of fractions of the aggregate photonic
capacity (``total_wavelengths * 12.5 Gb/s``) and report the maximum
delivered bandwidth; past saturation, bounded injection queues refuse
packets and NACK/retry cycles waste channel time, so delivered bandwidth
plateaus. "Packet energy is the energy dissipated in transferring one
packet completely from source to destination at network saturation": EPM
is read at the sweep point where delivery peaked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.api.base import Registry
from repro.arch.base import NoCArchitecture
from repro.arch.config import SystemConfig
from repro.arch.registry import architectures
from repro.scenarios.schedule import PhaseStats, ScenarioSchedule
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BandwidthSet
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import TrafficPattern, pattern_by_name


@dataclass(frozen=True)
class Fidelity:
    """Simulation schedule + sweep density."""

    name: str
    total_cycles: int
    reset_cycles: int
    #: Offered-load grid, as fractions of the aggregate photonic capacity.
    load_fractions: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.reset_cycles >= self.total_cycles:
            raise ValueError("reset must be shorter than the run")
        if not self.load_fractions:
            raise ValueError("need at least one load point")


#: Table 3-3 schedule with a dense sweep.
PAPER_FIDELITY = Fidelity(
    "paper", 10_000, 1_000, (0.10, 0.20, 0.35, 0.50, 0.65, 0.80, 0.95, 1.10)
)

#: CI-friendly schedule; same qualitative knees.
QUICK_FIDELITY = Fidelity("quick", 1_500, 200, (0.25, 0.60, 1.00))

#: Registry of named fidelities (also exposed through
#: :mod:`repro.api.registry`): the CLI ``--fidelity`` choices and
#: :class:`~repro.api.spec.ExperimentSpec`'s by-name fidelity
#: resolution both derive from it.
fidelities = Registry("fidelity", error=ValueError)
fidelities.register("paper", PAPER_FIDELITY)
fidelities.register("quick", QUICK_FIDELITY)


@dataclass(frozen=True)
class RunResult:
    """Measured outcome of one (architecture, pattern, load) run."""

    arch: str
    pattern: str
    bw_set_index: int
    offered_gbps: float
    delivered_gbps: float
    photonic_gbps: float
    per_core_gbps: float
    energy_per_message_pj: float
    mean_latency_cycles: float
    acceptance_ratio: float
    packets_delivered: int
    reservations_nacked: int
    laser_power_mw: float
    lit_wavelengths: int
    #: Named scenario the run played (``None`` = stationary legacy run).
    scenario: Optional[str] = None
    #: Per-phase metric windows for scenario runs (empty otherwise).
    phases: Tuple[PhaseStats, ...] = ()


def build_arch(
    arch_name: str,
    sim: Simulator,
    config: SystemConfig,
    pattern: TrafficPattern,
) -> NoCArchitecture:
    """Instantiate the named architecture via the architecture registry.

    Dispatches through :data:`repro.arch.registry.architectures`, so a
    ``register()``-ed architecture is immediately runnable everywhere;
    unknown names raise ``ValueError`` naming the registered ones.
    """
    return architectures.get(arch_name)(sim, config, pattern)


@dataclass
class WiredRun:
    """One simulation, assembled by :func:`wire_run`.

    Everything a run consists of before its traffic source exists; the
    source -- :func:`attach_traffic`'s generator or scenario player, or
    a trace replayer -- goes in through :meth:`attach`. A caller that
    wants to observe the injections the run accepts wraps
    ``arch.submit`` between the two steps, before any source captures it.
    """

    config: SystemConfig
    streams: RandomStreams
    sim: Simulator
    #: The bound pattern the architecture's demand tables were built
    #: from (phase 0's, for a scenario run).
    pattern: TrafficPattern
    arch: NoCArchitecture
    #: The scenario script being played (``None`` = stationary run).
    schedule: Optional[ScenarioSchedule] = None
    #: The attached traffic source (``None`` until :meth:`attach`).
    source: object = None

    def attach(self, source) -> None:
        """Make *source* the run's traffic source."""
        self.source = source
        self.arch.attach_generator(source)

    def simulate(self, total_cycles: int, reset_cycles: int) -> None:
        """Run *total_cycles* (statistics reset after the first
        *reset_cycles*) and close the architecture's books."""
        self.sim.run_with_reset(total_cycles, reset_cycles)
        self.arch.finalize()


def wire_run(
    arch_name: str,
    bw_set: BandwidthSet,
    pattern_name: str,
    fidelity: Fidelity,
    seed: int,
    config: Optional[SystemConfig] = None,
    scenario: Optional[str] = None,
) -> WiredRun:
    """Assemble one run up to, not including, its traffic source.

    Config, named random streams, the simulator, the bound pattern and
    the architecture built from it. With a *scenario* name the pattern
    is the script's phase-0 pattern (``pattern_name`` is the default
    for phases that do not rebind) and the script, scaled to
    *fidelity*'s cycle span, rides along for :func:`attach_traffic`.
    """
    config = config or SystemConfig(bw_set=bw_set)
    streams = RandomStreams(seed)
    sim = Simulator(clock_hz=config.clock_hz, seed=seed)
    schedule = None
    if scenario is None:
        pattern = pattern_by_name(pattern_name).bind(
            bw_set,
            config.n_clusters,
            config.cores_per_cluster,
            streams.get("placement"),
        )
    else:
        from repro.scenarios.library import build_scenario
        from repro.scenarios.player import initial_pattern

        schedule = build_scenario(scenario, fidelity.total_cycles)
        pattern = initial_pattern(
            schedule, pattern_name, bw_set,
            config.n_clusters, config.cores_per_cluster, streams,
        )
    arch = build_arch(arch_name, sim, config, pattern)
    return WiredRun(config, streams, sim, pattern, arch, schedule)


def attach_traffic(
    run: WiredRun, offered_gbps: float, fidelity: Fidelity
) -> None:
    """Attach the run's own traffic source at *offered_gbps*.

    A :class:`~repro.traffic.generator.TrafficGenerator` over the bound
    pattern, or -- for a scenario run -- the
    :class:`~repro.scenarios.player.ScenarioPlayer` of its script. Either
    captures ``run.arch.submit`` as it is at this moment.
    """
    if run.schedule is None:
        source = TrafficGenerator.for_offered_gbps(
            run.pattern, offered_gbps, run.streams.get("traffic"),
            run.arch.submit, run.config.clock_hz,
        )
    else:
        from repro.scenarios.player import ScenarioPlayer

        source = ScenarioPlayer(
            run.schedule, run.arch, run.pattern, offered_gbps, run.streams,
            total_cycles=fidelity.total_cycles,
            clock_hz=run.config.clock_hz,
        )
    run.attach(source)


def _run_once(
    arch_name: str,
    bw_set: BandwidthSet,
    pattern_name: str,
    offered_gbps: float,
    fidelity: Fidelity = QUICK_FIDELITY,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    scenario: Optional[str] = None,
) -> RunResult:
    """Simulate one configuration and collect its metrics.

    With a *scenario* name the run replays that scripted timeline (see
    :mod:`repro.scenarios`): traffic comes from a
    :class:`~repro.scenarios.player.ScenarioPlayer` instead of a plain
    generator, ``pattern_name`` serves as the default for phases that do
    not rebind, and the result carries per-phase metric windows. The
    ``steady`` scenario reproduces the scenario-less path bit for bit.
    """
    run = wire_run(
        arch_name, bw_set, pattern_name, fidelity, seed, config, scenario
    )
    attach_traffic(run, offered_gbps, fidelity)
    run.simulate(fidelity.total_cycles, fidelity.reset_cycles)
    arch, config, source = run.arch, run.config, run.source
    if scenario is not None:
        source.finish(fidelity.total_cycles)
    metrics = arch.metrics
    return RunResult(
        arch=arch_name,
        pattern=pattern_name,
        bw_set_index=bw_set.index,
        offered_gbps=offered_gbps,
        delivered_gbps=metrics.delivered_gbps(config.clock_hz),
        photonic_gbps=metrics.photonic_gbps(config.clock_hz),
        per_core_gbps=metrics.per_core_gbps(config.clock_hz, config.n_cores),
        energy_per_message_pj=arch.energy_per_message_pj,
        mean_latency_cycles=metrics.latency.mean,
        acceptance_ratio=source.acceptance_ratio,
        packets_delivered=metrics.packets_delivered,
        reservations_nacked=metrics.reservations_nacked,
        laser_power_mw=arch.laser_power_mw(),
        lit_wavelengths=arch.lit_wavelengths(),
        scenario=scenario,
        phases=source.phase_stats() if scenario is not None else (),
    )


def peak_of(results: Sequence[RunResult]) -> RunResult:
    """The sweep point with maximum delivered bandwidth (the 'peak')."""
    if not results:
        raise ValueError("peak_of() needs at least one result")
    return max(results, key=lambda r: r.delivered_gbps)
