"""Fast-path equivalence: event-driven engine == naive per-cycle loop.

The fast path's whole claim is that skipped work is provably no-op, so
every measured quantity must come out *bitwise identical* to the naive
reference loop — same RNG draws, same latencies, same energy. These
tests run the same configurations under both loops (selected on the run
itself: the single-run core's ``Simulator`` is built with the
``fast_path`` the case asks for) and compare full ``RunResult`` records
with ``==``.
"""

import pytest

from repro.api.session import Session
from repro.arch.config import SystemConfig
from repro.experiments import runner
from repro.experiments.runner import Fidelity
from repro.sim.engine import Simulator
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
    built = []

    def simulator(**kwargs):
        built.append(Simulator(fast_path=not naive, **kwargs))
        return built[-1]

    monkeypatch.setattr(runner, "Simulator", simulator)
    result = Session().run_one(arch, BW_SET_1, pattern, offered,
                               fidelity=FIDELITY, seed=1, scenario=scenario,
                               config=config)
    # The run really used the loop asked for (not a vacuous fast == fast).
    assert [sim.fast_path for sim in built] == [not naive]
    return result


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


def wire_by_hand(arch_name, bw_set, pattern_name, offered):
    """A simulator and an architecture under generated traffic, wired
    the way the runner does it, for tests that audit state mid-run."""
    from repro.arch.registry import architectures
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.traffic.generator import TrafficGenerator
    from repro.traffic.patterns import pattern_by_name

    streams = RandomStreams(1)
    config = SystemConfig(bw_set=bw_set)
    sim = Simulator(seed=1)
    pattern = pattern_by_name(pattern_name).bind(
        bw_set, config.n_clusters, config.cores_per_cluster,
        streams.get("placement"),
    )
    arch = architectures.get(arch_name)(sim, config, pattern)
    arch.attach_generator(TrafficGenerator.for_offered_gbps(
        pattern, offered, streams.get("traffic"), arch.submit, config.clock_hz
    ))
    return sim, arch


def test_gateway_held_counter_matches_enumeration():
    """The O(1) ``flits_held`` counter never drifts from the full audit.

    ``audit_flits_held`` re-derives the held-flit count by enumerating
    every pipe, buffer and in-flight channel; the incremental ``_held``
    counter must agree at every cycle, across injection, transmission,
    ejection and abandonment. So must the counts that gate the
    gateway's stages, each against what it stands for.
    """
    sim, arch = wire_by_hand("dhetpnoc", BW_SET_1, "skewed3", 400.0)

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


@pytest.mark.parametrize("bw_set_index", [1, 3])
@pytest.mark.parametrize("pattern_name,offered", [("skewed3", 600.0), ("uniform", 20.0)])
def test_mesh_counters_match_enumeration(pattern_name, offered, bw_set_index):
    """What the mesh keeps in O(1) never drifts from a full enumeration.

    ``ElectricalNetwork`` counts flits in the network (``drain`` trusts
    it), keeps the set of routers holding a flit (only those tick) and
    two due-ordered queues for everything in flight; each router keeps a
    credit counter per downstream VC. After every cycle each must equal
    what walking all buffers and both queues finds, and every credit
    loop must still hold exactly ``vc_depth`` slots. Tick hooks run
    before the fabric, so the simulator is stepped by hand.
    """
    from collections import Counter

    from repro.traffic.bandwidth_sets import bandwidth_set_by_index

    sim, arch = wire_by_hand(
        "electrical", bandwidth_set_by_index(bw_set_index), pattern_name, offered
    )
    net = arch.network
    depth = net.router_config.vc_depth
    loops = [  # (where, upstream credit row, downstream VCs)
        (link.name, router._credits[port], link._vcs)
        for router in net.routers.values()
        for port, link in enumerate(router._out_links) if link is not None
    ]
    assert len(loops) == len(net._links) == 224
    most_held = most_backlogged = idle_cycles = 0

    for _ in range(1000):
        sim.step()
        where = f"after cycle {sim.cycle - 1}: "
        flits_due, credits_due = list(net._flits_due), list(net._credits_due)
        for queue in (flits_due, credits_due):
            dues = [entry[0] for entry in queue]
            assert dues == sorted(dues), where + "a due queue is out of order"
            assert not dues or dues[0] >= sim.cycle, where + "a due entry was left behind"
        buffered = {
            node: sum(len(vcb) for port in router.inputs for vcb in port.vcs)
            for node, router in net.routers.items()
        }
        assert net.flits_in_network == sum(buffered.values()) + len(flits_due), where
        assert net._occupied == {n for n, held in buffered.items() if held}, where
        flying = Counter((id(vcs), flit.vc) for _, vcs, _, flit in flits_due)
        returning = Counter((id(row), vc) for _, row, vc in credits_due)
        in_flight = {key for key, _vc in (*flying, *returning)}
        for name, row, vcs in loops:
            slots = [depth - len(vcb) for vcb in vcs]
            if id(vcs) in in_flight or id(row) in in_flight:
                slots = [
                    free - flying[id(vcs), vc] - returning[id(row), vc]
                    for vc, free in enumerate(slots)
                ]
            assert row == slots, where + name
        quiet = not (net._active_eps or net.flits_in_network or credits_due)
        assert net.is_idle() == quiet, where
        idle_cycles += quiet
        most_held = max(most_held, net.flits_in_network)
        most_backlogged = max(most_backlogged, len(net._occupied))

    # Each regime is really visited: past the knee flits queue in many
    # routers at once and the mesh is never quiet; at low load a router
    # forwards what it gets at once and most cycles are idle.
    if offered > 100:
        assert most_backlogged >= 8 and idle_cycles < 100
    else:
        assert most_held > 0 and most_backlogged <= 2 and idle_cycles > 500
