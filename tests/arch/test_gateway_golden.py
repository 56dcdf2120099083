"""Golden pins for the photonic gateway (cluster router of fig. 3-2).

There is one gateway, one data channel and one DBA allocator, and no
naive reference to compare them against, so their behaviour is pinned
by value, the way ``tests/noc/router_golden.json`` pins the mesh
router: one full ``RunResult`` per photonic architecture at the ledger's
busy operating point, plus per-gateway observables for the paths that
point never takes --

``nack_abandon``
    one-packet RX buffers, ``max_retries=2`` and most packets aimed at
    one core: reservations NACK, sources back off, retry and finally
    abandon packets (``arch.nack_ratio`` is 0.0 on the ledger);
``bw_set_2``
    16 x 128-bit flits: a queue target and launch cadence of their own;
``bw_set_3``
    8 x 256-bit flits over up to 64 wavelengths: the serialization queue
    target is 3 flits and several flits launch in one cycle;
``intra_heavy``
    more than half the packets stay inside their cluster, the one place
    a different addend interleaves into ``buffer_pj``;
``fault_storm``
    wavelength deaths clamp the current table from outside the token
    pass, the token then re-acquires from the free pool;
``traffic_bw_set_2``
    an explicit config that keeps BW set 1 (queue target, reception
    window and retention width) under BW set 2's 128-bit flits, as
    ``Session(config=...)`` runs one: the per-flit buffer and router
    charges must use the traffic's width.

Each case also pins, in a row of its own (``<case>:rx_end``), every
gateway's end-state receive side: flits reserved but not yet arrived
and flits buffered, per source cluster.

The numbers in ``gateway_golden.json`` were produced by the commit
before the gateway's per-cycle path was rewritten. Regenerate them only
for a change that is *meant* to alter simulated behaviour::

    PYTHONPATH=src python tests/arch/test_gateway_golden.py
"""

import dataclasses
import json
import pathlib
import random

import pytest

from repro.api import Session
from repro.arch.config import SystemConfig
from repro.arch.registry import architectures
from repro.experiments.runner import Fidelity
from repro.experiments.store import result_to_dict
from repro.noc.flit import Packet
from repro.scenarios.library import build_scenario
from repro.scenarios.player import ScenarioPlayer, initial_pattern
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import bandwidth_set_by_index
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import pattern_by_name

GOLDEN_PATH = pathlib.Path(__file__).with_name("gateway_golden.json")

RUN_FIDELITY = Fidelity("gateway-golden", 700, 100, (0.5,))
RUN_ARCHS = ("dhetpnoc", "firefly")

#: name -> (arch, bw set, offered Gb/s, cycles, reset).
GENERATED_CASES = {
    "bw_set_2-dhetpnoc": ("dhetpnoc", 2, 5000.0, 500, 100),
    "bw_set_2-firefly": ("firefly", 2, 5000.0, 500, 100),
    "bw_set_3-dhetpnoc": ("dhetpnoc", 3, 5000.0, 500, 100),
    "bw_set_3-firefly": ("firefly", 3, 5000.0, 500, 100),
}
_SWAMPED = {"rx_buffer_packets": 1, "max_retries": 2, "retry_backoff_cycles": 3}
#: name -> (arch, share of packets staying in their cluster, share of
#: the rest aimed at core 5, config overrides): hand-driven traffic.
DRIVEN_CASES = {
    "nack_abandon-dhetpnoc": ("dhetpnoc", 0.0, 0.8, _SWAMPED),
    "nack_abandon-firefly": ("firefly", 0.0, 0.8, _SWAMPED),
    "intra_heavy-dhetpnoc": ("dhetpnoc", 0.6, 0.0, {}),
    "intra_heavy-firefly": ("firefly", 0.6, 0.0, {}),
}
FAULT_CASE = "fault_storm-dhetpnoc"
#: name -> (arch, traffic's bw set, offered Gb/s, cycles, reset) under a
#: config on BW set 1.
MISMATCHED_CASES = {
    "traffic_bw_set_2-firefly": ("firefly", 2, 600.0, 500, 100),
}
ALL_CASES = (*GENERATED_CASES, *DRIVEN_CASES, FAULT_CASE, *MISMATCHED_CASES)
RX_END = ":rx_end"

#: Cycles at which the fault case snapshots clusters 0 and 1's current
#: tables: before the storm, after each kill (and the token passes that
#: follow it), inside the token freeze, after the thaw, at the end.
FAULT_TOTAL, FAULT_RESET = 800, 100
FAULT_SNAPSHOTS = (400, 401, 440, 451, 480, 520, 640, 800)


def _build(arch_name, bw_index, streams, pattern, **overrides):
    bw_set = bandwidth_set_by_index(bw_index)
    config = SystemConfig(bw_set=bw_set, **overrides)
    sim = Simulator(clock_hz=config.clock_hz, seed=1)
    if pattern is None:
        pattern = pattern_by_name("skewed3").bind(
            bw_set, config.n_clusters, config.cores_per_cluster,
            streams.get("placement"),
        )
    return sim, config, pattern, architectures.get(arch_name)(sim, config, pattern)


def observe_rx_end(arch) -> dict:
    """Per gateway, per source cluster: flits reserved and not yet
    arrived, and flits in the RX buffer."""
    return {
        str(g.cluster_id): {
            "reserved": [g._rx_reserved[src] for src in sorted(g.rx_buffers)],
            "occupancy": [len(g.rx_buffers[src]) for src in sorted(g.rx_buffers)],
        }
        for g in arch.gateways
    }


def observe_arch(arch) -> dict:
    """Everything pinned about one finished architecture (the receive
    side's end state under ``RX_END``)."""
    rx_end = observe_rx_end(arch)
    arch.finalize()
    latency = arch.metrics.latency
    metrics = {
        f.name: getattr(arch.metrics, f.name)
        for f in dataclasses.fields(arch.metrics)
        if f.name != "latency"
    }
    seen = {
        "metrics": metrics,
        # Welford's m2 depends on the order samples arrive in.
        "latency": [latency.count, latency.mean, latency._m2],
        "energy": arch.energy.breakdown.as_dict(),
        "messages_delivered": arch.energy.messages_delivered,
        "flits_in_system": arch.flits_in_system(),
        "gateways": {
            str(g.cluster_id): {
                "channel": [
                    g.channel.busy_cycles,
                    g.channel.stalled_cycles,
                    g.channel.wavelength_cycles_lit,
                    g.channel.flits_transmitted,
                    g.channel.packets_transmitted,
                ],
                "reservations": [
                    g.reservation_channel.reservations_sent,
                    g.reservation_channel.reservation_bits_sent,
                ],
                "input_flit_cycles": [port.flit_cycles for port in g.inputs],
                "rx_flit_cycles": [
                    g.rx_buffers[src].flit_cycles for src in sorted(g.rx_buffers)
                ],
                "arbiters": [
                    [a._next_priority for a in g._input_arbiters],
                    g._output_arbiter._next_priority,
                    [a._next_priority for a in g._eject_arbiters],
                ],
                "held": g.flits_held(),
            }
            for g in arch.gateways
        },
        RX_END: rx_end,
    }
    if hasattr(arch, "token_ring"):
        seen["token_ring"] = [arch.token_ring.hops, arch.token_ring.rounds_completed]
        seen["allocation"] = {
            str(k): v for k, v in arch.allocation_snapshot().items()
        }
        seen["current_tables"] = [
            sorted(c.current_table.as_dict().items()) for c in arch.controllers
        ]
    return seen


def observe_generated(case: str) -> dict:
    if case in MISMATCHED_CASES:
        arch_name, traffic_index, offered, total, reset = MISMATCHED_CASES[case]
        streams = RandomStreams(1)
        pattern = pattern_by_name("skewed3").bind(
            bandwidth_set_by_index(traffic_index), 16, 4,
            streams.get("placement"),
        )
        sim, config, pattern, arch = _build(arch_name, 1, streams, pattern)
    else:
        arch_name, bw_index, offered, total, reset = GENERATED_CASES[case]
        streams = RandomStreams(1)
        sim, config, pattern, arch = _build(arch_name, bw_index, streams, None)
    generator = TrafficGenerator.for_offered_gbps(
        pattern, offered, streams.get("traffic"), arch.submit, config.clock_hz
    )
    arch.attach_generator(generator)
    sim.run_with_reset(total, reset)
    seen = observe_arch(arch)
    seen["acceptance_ratio"] = generator.acceptance_ratio
    return seen


def observe_driven(case: str) -> dict:
    """Seeded hand-driven traffic for 400 cycles, then a long drain."""
    arch_name, intra_share, hot_share, overrides = DRIVEN_CASES[case]
    sim, config, _pattern, arch = _build(
        arch_name, 1, RandomStreams(1), None, **overrides
    )
    rng = random.Random(sum(case.encode()))
    bw_set = config.bw_set
    for _ in range(400):
        for _ in range(rng.choice((0, 1, 1, 2))):
            src = rng.randrange(config.n_cores)
            if rng.random() < intra_share:
                base = src - src % config.cores_per_cluster
                dst = base + rng.randrange(config.cores_per_cluster)
            elif rng.random() < hot_share:
                dst = 5
            else:
                dst = rng.randrange(config.n_cores)
            if dst == src:
                continue
            arch.submit(Packet(src=src, dst=dst, n_flits=bw_set.packet_flits,
                               flit_bits=bw_set.flit_bits,
                               created_cycle=sim.cycle))
        sim.step()
    sim.run(8000)
    return observe_arch(arch)


def observe_fault_storm() -> dict:
    streams = RandomStreams(1)
    bw_set = bandwidth_set_by_index(1)
    schedule = build_scenario("fault_storm", FAULT_TOTAL)
    pattern = initial_pattern(schedule, "skewed3", bw_set, 16, 4, streams)
    sim, config, pattern, arch = _build("dhetpnoc", 1, streams, pattern)
    player = ScenarioPlayer(
        schedule, arch, pattern, 500.0, streams,
        total_cycles=FAULT_TOTAL, clock_hz=config.clock_hz,
    )
    arch.attach_generator(player)
    sim.run(FAULT_RESET)
    sim.reset_all_stats()
    tables = {}
    for cycle in FAULT_SNAPSHOTS:
        sim.run(cycle - sim.cycle)
        tables[str(cycle)] = [
            [c.held_count, sorted(c.current_table.as_dict().items())]
            for c in arch.controllers[:2]
        ]
    player.finish(FAULT_TOTAL)
    seen = observe_arch(arch)
    seen["tables_over_time"] = tables
    seen["dead_wavelengths"] = player._injector.pool_shrinkage
    seen["faults_skipped"] = player.faults_skipped
    return seen


def observe_case(case: str) -> dict:
    if case in GENERATED_CASES or case in MISMATCHED_CASES:
        return observe_generated(case)
    if case in DRIVEN_CASES:
        return observe_driven(case)
    return observe_fault_storm()


def observe_run(arch_name: str) -> dict:
    result = Session().run_one(
        arch_name, 1, "skewed3", 600.0, fidelity=RUN_FIDELITY, seed=1
    )
    return result_to_dict(result)


def observe_all() -> dict:
    golden = {}
    for case in ALL_CASES:
        seen = observe_case(case)
        golden[case + RX_END] = seen.pop(RX_END)
        golden[case] = seen
    for arch_name in RUN_ARCHS:
        golden[f"run_result-{arch_name}"] = observe_run(arch_name)
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", ALL_CASES)
def test_gateway_case_matches_golden(golden, case):
    seen = json.loads(json.dumps(observe_case(case)))
    assert seen.pop(RX_END) == golden[case + RX_END]
    assert seen == golden[case]


@pytest.mark.parametrize("arch_name", RUN_ARCHS)
def test_photonic_run_result_matches_golden(golden, arch_name):
    seen = json.loads(json.dumps(observe_run(arch_name)))
    assert seen == golden[f"run_result-{arch_name}"]


def test_cases_hit_the_hard_paths(golden):
    """The pins are only worth something while each case keeps taking
    the path it is there for."""
    for case in ("nack_abandon-dhetpnoc", "nack_abandon-firefly"):
        metrics = golden[case]["metrics"]
        assert metrics["reservations_nacked"] > 400, case
        assert metrics["reservation_retries"] > 300, case
        assert metrics["packets_abandoned"] > 100, case
        assert metrics["packets_delivered_photonic"] > 50, case
        assert golden[case]["flits_in_system"] == 0
    # More flits launched than cycles the channel was busy: some cycle
    # launched several flits at once.
    channels = [g["channel"] for g in golden["bw_set_3-dhetpnoc"]["gateways"].values()]
    assert any(flits > busy > 0 for busy, _s, _w, flits, _p in channels)
    for case in ("intra_heavy-dhetpnoc", "intra_heavy-firefly"):
        metrics = golden[case]["metrics"]
        intra = metrics["packets_delivered"] - metrics["packets_delivered_photonic"]
        assert intra > metrics["packets_delivered_photonic"] > 100, case
        assert golden[case]["flits_in_system"] == 0
    storm = golden[FAULT_CASE]
    assert storm["dead_wavelengths"] == 2 and storm["faults_skipped"] == 0
    before, killed, reacquired = (
        storm["tables_over_time"][str(c)][0] for c in FAULT_SNAPSHOTS[:3]
    )
    # The kill clamps cluster 0's entries from outside the token pass;
    # the passes after it re-acquire from the free pool and must lift
    # the entries again although held count and requests are back to
    # what the allocator last folded in.
    assert killed[0] < before[0]
    assert max(v for _d, v in killed[1]) == killed[0]
    assert reacquired == before


if __name__ == "__main__":
    # One case per line: the per-gateway lists would otherwise put every
    # integer on a line of its own.
    rows = (
        f' "{name}": {json.dumps(seen, sort_keys=True)}'
        for name, seen in sorted(observe_all().items())
    )
    GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
