"""Fast-path equivalence: event-driven engine == naive per-cycle loop.

The fast path's whole claim is that skipped work is provably no-op, so
every measured quantity must come out *bitwise identical* to the naive
reference loop — same RNG draws, same latencies, same energy. These
tests run the same configurations under both loops (selected via the
``REPRO_ENGINE_NAIVE`` environment variable, which the single-run core
reads when it constructs its ``Simulator``) and compare full ``RunResult``
records with ``==``.
"""

import pytest

from repro.api.session import Session
from repro.arch.config import SystemConfig
from repro.experiments.runner import Fidelity
from repro.sim.engine import NAIVE_ENGINE_ENV
from repro.traffic.bandwidth_sets import BW_SET_1

#: Short schedule: long enough to exercise reservation round-trips,
#: retries and warm-up reset; short enough that the naive runs keep the
#: suite quick.
FIDELITY = Fidelity("equivalence", 500, 100, (0.4,))

#: (arch, pattern, offered_gbps, scenario) — spans idle skipping
#: (zero/low load), saturation past the knee, every architecture, fault
#: injection and closed-loop feedback (the scenario player must never
#: be skipped).
#: The electrical rows hold the idle protocol of ``ElectricalNetwork`` /
#: ``ElectricalMeshNoC`` to the same bar as the gateways (under
#: ``fault_storm`` the player degrades ``blackout_receiver`` to a
#: counted skip on the gateway-less mesh).
CASES = [
    ("dhetpnoc", "uniform", 0.0, None),
    ("dhetpnoc", "uniform", 20.0, None),
    ("dhetpnoc", "skewed3", 400.0, None),
    ("firefly", "uniform", 20.0, None),
    ("dhetpnoc", "skewed3", 600.0, None),
    ("firefly", "skewed3", 600.0, None),
    ("dhetpnoc", "skewed3", 400.0, "fault_storm"),
    ("dhetpnoc", "skewed3", 480.0, "closed_loop_shedding"),
    ("electrical", "uniform", 0.0, None),
    ("electrical", "uniform", 20.0, None),
    ("electrical", "skewed3", 600.0, None),
    ("electrical", "skewed3", 400.0, "fault_storm"),
]


#: One-packet RX buffers and two retries: reservations NACK, sources
#: back off, retry and abandon (no other row ever NACKs). With four wide
#: clusters a channel fills an RX buffer faster than one core drains it,
#: so most reservations do.
SWAMPED = {"rx_buffer_packets": 1, "max_retries": 2, "retry_backoff_cycles": 3}
SWAMPED_WIDE = {**SWAMPED, "n_clusters": 4, "cores_per_cluster": 16}
SWAMPED_CASES = [
    ("dhetpnoc", "skewed3", 600.0, SWAMPED),
    ("firefly", "skewed3", 600.0, SWAMPED_WIDE),
    ("firefly", "uniform", 1500.0, SWAMPED_WIDE),
]


def run_case(monkeypatch, naive, arch, pattern, offered, scenario, config=None):
    monkeypatch.setenv(NAIVE_ENGINE_ENV, "1" if naive else "0")
    return Session().run_one(arch, BW_SET_1, pattern, offered,
                             fidelity=FIDELITY, seed=1, scenario=scenario,
                             config=config)


@pytest.mark.parametrize("arch,pattern,offered,scenario", CASES)
def test_fast_path_matches_naive_bitwise(monkeypatch, arch, pattern,
                                         offered, scenario):
    fast = run_case(monkeypatch, False, arch, pattern, offered, scenario)
    naive = run_case(monkeypatch, True, arch, pattern, offered, scenario)
    # RunResult is a frozen dataclass: == compares every field, including
    # the per-phase windows of scenario runs.
    assert fast == naive


@pytest.mark.parametrize(
    "arch,pattern,offered,overrides", SWAMPED_CASES,
    ids=lambda value: "swamped" if isinstance(value, dict) else None,
)
def test_fast_path_matches_naive_when_reservations_nack(
    monkeypatch, arch, pattern, offered, overrides
):
    config = SystemConfig(bw_set=BW_SET_1, **overrides)
    fast = run_case(monkeypatch, False, arch, pattern, offered, None, config)
    naive = run_case(monkeypatch, True, arch, pattern, offered, None, config)
    assert fast == naive
    assert fast.reservations_nacked > 5


def test_fast_path_is_deterministic(monkeypatch):
    a = run_case(monkeypatch, False, "dhetpnoc", "uniform", 20.0, None)
    b = run_case(monkeypatch, False, "dhetpnoc", "uniform", 20.0, None)
    assert a == b


def test_gateway_held_counter_matches_enumeration(monkeypatch):
    """The O(1) ``flits_held`` counter never drifts from the full audit.

    ``audit_flits_held`` re-derives the held-flit count by enumerating
    every pipe, buffer and in-flight channel; the incremental ``_held``
    counter must agree at every cycle, across injection, transmission,
    ejection and abandonment. So must the counts that gate the
    gateway's stages, each against what it stands for.
    """
    from repro.arch.registry import architectures
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import pattern_by_name

    monkeypatch.delenv(NAIVE_ENGINE_ENV, raising=False)
    streams = RandomStreams(1)
    config = SystemConfig(bw_set=BW_SET_1)
    sim = Simulator(seed=1)
    pattern = pattern_by_name("skewed3").bind(
        BW_SET_1, config.n_clusters, config.cores_per_cluster,
        streams.get("placement"),
    )
    arch = architectures.get("dhetpnoc")(sim, config, pattern)
    generator = TrafficGenerator.for_offered_gbps(
        pattern, 400.0, streams.get("traffic"), arch.submit, config.clock_hz
    )
    arch.attach_generator(generator)

    def audit(cycle):
        for gateway in arch.gateways:
            assert gateway.flits_held() == gateway.audit_flits_held(), (
                f"cycle {cycle}: gateway {gateway.cluster_id} counter "
                "drifted from enumeration"
            )
            where = f"cycle {cycle}, gateway {gateway.cluster_id}"
            assert gateway._pipes_active == sum(
                1 for pipe in gateway._pipe_flits if pipe), where
            nonempty = {s for s, b in gateway.rx_buffers.items() if len(b)}
            assert gateway._rx_nonempty == len(nonempty), where
            assert set().union(*gateway._rx_ready) == nonempty, where
            if gateway._tx_state == gateway.IDLE:
                assert gateway._tx_waiting == sum(
                    len(port._complete_vcs) for port in gateway.inputs), where

    arch.add_tick_hook(audit)
    sim.run(300)
    audit(sim.cycle)
