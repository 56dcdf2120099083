"""Fast-path equivalence: event-driven engine == naive per-cycle loop.

The fast path's whole claim is that skipped work is provably no-op, so
every measured quantity must come out *bitwise identical* to the naive
reference loop — same RNG draws, same latencies, same energy. These
tests run the same configurations under both loops (selected on the run
itself: the single-run core's ``Simulator`` is built with the
``fast_path`` the case asks for) and compare full ``RunResult`` records
with ``==``.
"""

import re
from contextlib import nullcontext
from dataclasses import fields

import pytest

from repro.api.session import Session
from repro.arch.config import SystemConfig
from repro.arch.base import PhotonicCrossbarNoC
from repro.arch.photonic_router import ClusterGateway
from repro.dba.allocator import WavelengthAllocator
from repro.dba.tables import CurrentTable
from repro.experiments import runner
from repro.experiments.runner import Fidelity, attach_traffic, wire_run
from repro.noc.flit import Packet
from repro.noc.network import ElectricalNetwork
from repro.photonic.channel import ReservationBroadcastChannel
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1, BW_SET_3
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import TraceReplayGenerator, TrafficTrace

from support import TINY

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


#: A replay long enough for a packet to drain inside each gap.
REPLAY_FIDELITY = Fidelity("replay", 1200, 100, (0.4,))


def gapped_trace():
    """A recorded skewed3 stream at 1500 Gb/s of which only three short
    bursts are kept (cycles 0-40, 500-530 and 1000-1010), so a replay
    sleeps from record to record, across the gaps and after its last
    record."""
    streams = RandomStreams(5)
    pattern = pattern_by_name("skewed3").bind(
        BW_SET_1, 16, 4, streams.get("placement"))
    trace = TrafficTrace()
    generator = TrafficGenerator.for_offered_gbps(
        pattern, 1500.0, streams.get("traffic"),
        TrafficTrace.recording_submit(trace, lambda packet: True))
    for cycle in range(1010):
        generator.tick(cycle)
    return TrafficTrace([
        record for record in trace.records
        if record.cycle < 40 or 500 <= record.cycle < 530
        or 1000 <= record.cycle
    ])


def replayed(naive, arch, trace):
    """Replay *trace* into *arch* as ``trace replay`` does; every count
    the run keeps, and the simulator that ran it."""
    run = wire_run(arch, BW_SET_1, "uniform", REPLAY_FIDELITY, seed=1)
    run.sim.fast_path = not naive
    run.attach(TraceReplayGenerator(trace, BW_SET_1, run.arch.submit))
    run.simulate(REPLAY_FIDELITY.total_cycles, REPLAY_FIDELITY.reset_cycles)
    arch, metrics = run.arch, run.arch.metrics
    return run.sim, (
        [getattr(metrics, f.name) for f in fields(metrics)
         if f.name != "latency"],
        metrics.latency.mean, vars(arch.energy.breakdown),
        arch.energy_per_message_pj, arch.laser_power_mw(),
        arch.flits_in_system(), run.source.acceptance_ratio,
        run.source.packets_offered,
    )


@pytest.mark.parametrize("arch", ["dhetpnoc", "firefly", "electrical"])
def test_a_trace_replay_sleeps_between_records_bitwise(arch):
    """The replayer's wake is its next record's cycle: the fast run
    jumps the gaps (and the quiet tail) and still equals the naive
    one, count for count."""
    trace = gapped_trace()
    fast_sim, fast = replayed(False, arch, trace)
    naive_sim, naive = replayed(True, arch, trace)
    assert fast == naive
    measured = [record for record in trace.records
                if record.cycle >= REPLAY_FIDELITY.reset_cycles]
    assert fast[-1] == len(measured) > 5  # the replay's packets_offered
    assert naive_sim.jumped_cycles == 0
    assert fast_sim.jumped_cycles > 100


def loaded(arch_name, pattern_name, offered, scenario=None, config=None):
    """The runner's own wiring under generated traffic, ready to run."""
    run = wire_run(arch_name, BW_SET_1, pattern_name, FIDELITY, seed=1,
                   config=config, scenario=scenario)
    attach_traffic(run, offered, FIDELITY)
    return run


@pytest.mark.parametrize(
    "arch,pattern,offered,scenario", CASES + SWAMPED_CASES,
    ids=lambda value: "swamped" if isinstance(value, dict) else None,
)
def test_audit_holds_on_every_case(arch, pattern, offered, scenario):
    """``arch.audit`` -- the fabric's laws, d-HetPNoC's ring law, flit
    conservation across the warm-up reset -- holds every 10 cycles of
    each row: through two wavelength deaths and a token freeze under
    ``fault_storm``, and through abandons on the swamped rows (overrides
    in place of a scenario), the only ones that abandon."""
    swamped = isinstance(scenario, dict)
    run = loaded(arch, pattern, offered, None if swamped else scenario,
                 SystemConfig(bw_set=BW_SET_1, **scenario) if swamped else None)
    run.simulate(FIDELITY.total_cycles, FIDELITY.reset_cycles, audit=10)
    assert (run.arch.metrics.packets_abandoned > 0) == swamped


def test_gateway_held_counter_matches_enumeration():
    """On the default config (several VCs per port) no gateway counter
    drifts from its recount, not even for one cycle."""
    loaded("dhetpnoc", "skewed3", 400.0).simulate(300, 0, audit=1)


def test_the_wake_law_holds_while_packets_wait_for_a_vc(monkeypatch):
    """With one VC per port and swamped RX buffers, front packets wait
    for a VC: a stream's drain frees one the cycle after its last feed,
    an abandon (in the reservation stage) the same cycle. Neither may
    leave the waiting packet's gateway asleep: ``simulate(audit=1)``
    holds the wake law all through a run in which an abandon frees a
    VC a packet waits for."""
    freed_for_a_waiter = []
    abandon = ClusterGateway._abandon_packet

    def counting(self, cycle):
        # No drain outlives its stream, so the port's counts are exact.
        port = self.inputs[self._tx_slot]
        assert all(port.drain is None for port in self.inputs)
        waiting = any(
            pipe and self._pipe_active_vc[slot] is None
            and self.inputs[slot] is port and 0 not in port.counts
            for slot, pipe in enumerate(self._pipes))
        abandon(self, cycle)
        if waiting:
            freed_for_a_waiter.append(cycle)

    monkeypatch.setattr(ClusterGateway, "_abandon_packet", counting)
    config = SystemConfig(bw_set=BW_SET_1, n_vcs=1, **SWAMPED)
    loaded("dhetpnoc", "skewed3", 900.0, config=config).simulate(
        FIDELITY.total_cycles, FIDELITY.reset_cycles, audit=1)
    assert freed_for_a_waiter


@pytest.mark.parametrize("pattern_name,offered", [("skewed3", 600.0), ("uniform", 20.0)])
def test_mesh_counters_match_enumeration(pattern_name, offered):
    """What the mesh keeps in O(1) never drifts from a full enumeration.

    ``ElectricalNetwork.audit`` recounts the flits in the network
    (``drain`` trusts it), the set of routers holding a flit (only those
    tick), the order of the two due queues for everything in flight and
    ``vc_depth`` slots around every credit loop; ``simulate(audit=1)``
    runs it, and flit conservation, after every cycle. BW set 1 only:
    every set's packet is the same 64 phits on the mesh
    (``test_electrical_baseline.py::test_phits_are_conserved_under_load``
    audits all three).
    """
    run = loaded("electrical", pattern_name, offered)
    net, law = run.arch.network, run.arch.audit
    assert len(net._links) == 224
    seen = []

    def audit():
        law()
        seen.append((net.is_idle(), net.flits_in_network, len(net._occupied)))

    run.arch.audit = audit
    run.simulate(1000, 0, audit=1)
    idle, held, backlogged = zip(*seen)

    # Each regime is really visited: past the knee flits queue in many
    # routers at once and the mesh is never quiet; at low load a router
    # forwards what it gets at once and most cycles are idle.
    if offered > 100:
        assert max(backlogged) >= 8 and sum(idle) < 100
    else:
        assert max(held) > 0 and max(backlogged) <= 2 and sum(idle) > 500


# Planted faults: each mutant wraps one method and leaves the run's
# state wrong; it raises nothing itself.
def _launch_skipping_dst_held(original):
    def mutant(self, cycle):
        before = {gateway._tx_dst: gateway._tx_dst._held
                  for gateway in self.gateways if gateway._tx_due == cycle}
        original(self, cycle)
        for dst, held in before.items():
            dst._held = held  # a launch's ``dst._held += n`` never happened
    return mutant


def _tail_leaving_rx_ready_stale(original):
    def mutant(self, cycle):
        before = {src: slot for slot, ready in enumerate(self._rx_ready)
                  for src in ready}
        original(self, cycle)
        # A source that changed core slot was re-indexed by a tail
        # ejection: put it back where the ejected packet's core was.
        for slot, ready in enumerate(self._rx_ready):
            for src in [s for s in ready if before.get(s, slot) != slot]:
                ready.discard(src)
                self._rx_ready[before[src]].add(src)
    return mutant


def _ejection_leaving_a_flit_uncounted(original):
    def mutant(self, cycle):
        metrics = self.arch.metrics
        delivered = metrics.flits_delivered
        original(self, cycle)
        if metrics.flits_delivered > delivered:
            metrics.flits_delivered -= 1  # one flit reached its core unseen
    return mutant


def _fill_completion_skipped(original):
    def mutant(self, cycle):
        if any(port.fill_end == cycle for port in self.inputs):
            return  # the stage skips the cycle a fill's tail enters in
        original(self, cycle)
    return mutant


def _open_fill_total_drifting(original):
    def mutant(self, cycle):
        original(self, cycle)
        self.arch._filling += 1  # the fabric counts a fill nobody opened
    return mutant


def _landing_leaving_dst_asleep(original):
    def mutant(self, cycle):
        wakes = {dst: dst._wake
                 for _n, (_buffer, dst, _src) in self._landings[0][1]}
        original(self, cycle)
        for dst, wake in wakes.items():
            dst._wake = wake  # flits landing never wake the destination
    return mutant


def _stream_end_leaving_its_drain(original):
    def mutant(self, cycle):
        port = self.inputs[self._tx_slot]
        drain, port.drain = port.drain, None
        original(self, cycle)
        port.drain = drain  # the VC's last feeds are never applied
    return mutant


def _dropping_the_due_it_adds(original):
    def mutant(self, *args, **kwargs):
        due = self.due
        landing = original(self, *args, **kwargs)
        self.due = due  # the channel never learns it carries this
        return landing
    return mutant


def _vc_free_leaving_the_inject_stage_asleep(original):
    def mutant(self, reservation, accepted):
        due = self._inject_due
        original(self, reservation, accepted)
        self._inject_due = due  # a packet waiting for the VC never learns
    return mutant


def _submit_leaving_the_gateway_asleep(original):
    def mutant(self, packet, cycle):
        wake, first = self._wake, self.arch._next_wake
        accepted = original(self, packet, cycle)
        self._wake, self.arch._next_wake = wake, first
        return accepted
    return mutant


def _delivered_twice(original):
    def mutant(self, *args, **kwargs):
        original(self, *args, **kwargs)
        original(self, *args, **kwargs)  # the core is credited again
    return mutant


def _release_keeping_one(original):
    def mutant(self, count):
        released = original(self, count)
        self._dynamic.extend(released[:1])  # the token has it back; so has the table
        return released
    return mutant


def _folding_nothing(original):
    def mutant(self, request_table, current):
        pass  # the per-destination entries keep what the last fold wrote
    return mutant


def _landing_dropping_a_credit(original):
    def mutant(self, cycle):
        landing = [entry for entry in self._credits_due if entry[0] <= cycle]
        original(self, cycle)
        if landing:
            _due, row, vc = landing[0]
            row[vc] -= 1  # the first credit due this cycle never arrived
    return mutant


def _landing_returning_a_credit_twice(original):
    def mutant(self, cycle):
        landing = [entry for entry in self._credits_due if entry[0] <= cycle]
        original(self, cycle)
        if landing:
            _due, row, vc = landing[0]
            row[vc] += 1  # the first credit due this cycle arrived twice
    return mutant


def _landing_leaving_occupied_stale(original):
    def mutant(self, cycle):
        landing = {node for due, _, node, _ in self._flits_due if due <= cycle}
        before = set(self._occupied)
        original(self, cycle)
        # A router a flit landed in was never marked as holding one.
        self._occupied -= landing - before
    return mutant


def _sink_swallowing_a_tail(original):
    def mutant(self, flit):
        if flit.is_tail:
            self.flits_in_network -= 1  # it left the mesh, and no core has it
            return
        original(self, flit)
    return mutant


#: A sleeping gateway's wake against the one its state gives.
WAKE_LAW = r"gateway \d+: _wake is .*, (its state is due|asleep while a stage was due)"
#: The shell's flit conservation.
CONSERVATION = r"^audit at cycle \d+: [\w-]+: \d+ flits carried across the"
#: The d-HetPNoC cluster holding the most after a warm start, which the
#: ring law must name when it goes quiet (``hot_cluster_going_quiet``).
HOT = 2


def queued(arch_name, config, packets):
    """A run of *arch_name* on *config* with no traffic source, and
    *packets* -- ``(source core, destination core, flits)``, of the
    config's flit width -- submitted before its first cycle; the fault
    goes in first (the mesh binds its network's methods when built)."""
    def scenario(plant):
        plant()
        run = wire_run(arch_name, config.bw_set, "uniform", FIDELITY, seed=1,
                       config=config)
        for src, dst, n_flits in packets:
            assert run.arch.submit(Packet(src=src, dst=dst, n_flits=n_flits,
                                          flit_bits=config.bw_set.flit_bits))
        return run
    return scenario


#: Three clusters each queue a packet for core 0 and then one for core 1
#: (8 x 256-bit flits): the three share core 0's ejection, so each
#: source's second packet lands behind its first, and the first's tail
#: leaving must move the source to core 1's ready set (cycle ~33). Each
#: packet fills its VC over 8 cycles, so fills open and close from the
#: first cycle; with one VC per port, each second packet waits for its
#: first to stream out.
THREE_SOURCES = queued(
    "dhetpnoc", SystemConfig(bw_set=BW_SET_3, n_vcs=1),
    [(4 * cluster, dst, BW_SET_3.packet_flits)
     for cluster in (1, 2, 3) for dst in (0, 1)])
#: One 8 x 32-bit packet between the two clusters of a Firefly whose
#: channels are 32 wavelengths wide: its plan's last feed is in its last
#: launch's cycle, so only the stream's end applies it (an ``audit=1``
#: run settles, and so applies a drain's feeds, after every cycle).
LONE_WIDE_STREAM = queued(
    "firefly", SystemConfig(bw_set=BW_SET_1, n_clusters=2, cores_per_cluster=32),
    [(32, 0, 8)])
#: One packet between two cores of cluster 0: the electronic hop
#: delivers it whole.
ONE_LOCAL_PACKET = queued(
    "dhetpnoc", SystemConfig(bw_set=BW_SET_3), [(1, 2, BW_SET_3.packet_flits)])
#: Four 4-phit packets from row 0 of the mesh to row 7, east along the
#: links of row 0 they share: flits wait in routers from the first
#: cycles, and the tails reach their cores within 50.
SHORT_MESH_PACKETS = queued(
    "electrical", SystemConfig(bw_set=BW_SET_1),
    [(src, 63 - src, 4) for src in (0, 2, 4, 6)])


def hot_cluster_going_quiet(plant):
    """d-HetPNoC under skewed3 whose cluster holding the most drops its
    demand to nothing: the token's first visit there (within one 16-hop
    round) releases what it held. The fault goes in after the warm start."""
    run = loaded("dhetpnoc", "skewed3", 400.0)
    arch = run.arch
    hot = max(arch.controllers, key=lambda c: c.held_count).cluster
    assert hot == HOT and arch.controllers[hot].current_table.dynamic_ids
    for slot in range(arch.config.cores_per_cluster):
        arch.remap_demand(hot, slot, {dst: 0 for dst in range(16) if dst != hot})
    plant()
    return run


#: (owner, method, mutant, the law that names it, scenario, what refuses
#: the run at ``audit=0`` or None). A scenario takes the fault's
#: ``plant()`` and returns a run ready to simulate.
PLANTED_FAULTS = [
    pytest.param(PhotonicCrossbarNoC, "_stream_pass",
                 _launch_skipping_dst_held, r"gateway \d+: _held is",
                 THREE_SOURCES, None,
                 id="_stream_pass-_launch_skipping_dst_held-_held"),
    pytest.param(ClusterGateway, "_eject_step", _tail_leaving_rx_ready_stale,
                 r"gateway \d+: _rx_ready is", THREE_SOURCES, None,
                 id="_eject_step-_tail_leaving_rx_ready_stale-_rx_ready"),
    pytest.param(ClusterGateway, "_inject_step", _fill_completion_skipped,
                 r"gateway \d+: inputs\[\d+\]\.fill_end is \d+, its tail was due",
                 THREE_SOURCES, None, id="fill-completion-skipped"),
    pytest.param(ClusterGateway, "_inject_step", _open_fill_total_drifting,
                 r"d-hetpnoc: _filling is \d+, the gateways' open fills give",
                 THREE_SOURCES, None, id="open-fill-total-drifting"),
    pytest.param(ClusterGateway, "end_stream", _stream_end_leaving_its_drain,
                 r"gateway \d+: inputs\[\d+\]\.counts\[\d+\] is",
                 LONE_WIDE_STREAM, None, id="stream-end-leaving-its-drain"),
    # Each drops one hand-off's wake, leaving asleep with a stage due:
    # the destination flits land at, the reservation channel of a
    # reservation or a response, the gateway a packet is submitted to,
    # and the inject stage of a gateway whose ACKed stream drains the VC
    # a packet waits for.
    pytest.param(PhotonicCrossbarNoC, "_land", _landing_leaving_dst_asleep,
                 WAKE_LAW, THREE_SOURCES, None, id="wake-dropped-on-a-landing"),
    pytest.param(ReservationBroadcastChannel, "broadcast",
                 _dropping_the_due_it_adds, WAKE_LAW, THREE_SOURCES, None,
                 id="wake-dropped-on-a-reservation"),
    pytest.param(ReservationBroadcastChannel, "respond",
                 _dropping_the_due_it_adds, WAKE_LAW, THREE_SOURCES, None,
                 id="wake-dropped-on-a-response"),
    pytest.param(ClusterGateway, "try_submit",
                 _submit_leaving_the_gateway_asleep, WAKE_LAW, THREE_SOURCES, None,
                 id="wake-dropped-on-a-submit"),
    pytest.param(ClusterGateway, "on_reservation_response",
                 _vc_free_leaving_the_inject_stage_asleep, WAKE_LAW,
                 THREE_SOURCES, None, id="wake-dropped-on-a-vc-free"),
    pytest.param(ClusterGateway, "_eject_step",
                 _ejection_leaving_a_flit_uncounted, CONSERVATION,
                 THREE_SOURCES, None, id="ejected-flit-uncounted"),
    pytest.param(PhotonicCrossbarNoC, "note_packet_delivered_whole",
                 _delivered_twice, CONSERVATION, ONE_LOCAL_PACKET, None,
                 id="packet-delivered-twice"),
    # Unaudited, the token refuses to take back a wavelength twice.
    pytest.param(CurrentTable, "remove_dynamic", _release_keeping_one,
                 rf"d-hetpnoc ring: cluster {HOT} holds dynamic wavelengths",
                 hot_cluster_going_quiet, r"cannot release .* at cycle \d+$",
                 id="kept-released-wavelength"),
    pytest.param(WavelengthAllocator, "_update_per_destination",
                 _folding_nothing,
                 rf"d-hetpnoc ring: cluster {HOT} allocates \d+ wavelengths to "
                 r"cluster \d+, holds 1$",
                 hot_cluster_going_quiet, None, id="stale-per-destination-entry"),
    pytest.param(ElectricalNetwork, "tick", _landing_dropping_a_credit,
                 r"emesh: emesh\.\d+->\d+ credits is", SHORT_MESH_PACKETS, None,
                 id="dropped-credit"),
    # Unaudited, the credit loop refuses a credit it has no slot for.
    pytest.param(ElectricalNetwork, "tick", _landing_returning_a_credit_twice,
                 r"emesh: emesh\.\d+->\d+ credits is", SHORT_MESH_PACKETS,
                 r"credit overflow on port \d+ vc \d+ at cycle \d+$",
                 id="credit-returned-twice"),
    pytest.param(ElectricalNetwork, "tick", _landing_leaving_occupied_stale,
                 r"emesh: _occupied is", SHORT_MESH_PACKETS, None, id="stale-occupied"),
    pytest.param(ElectricalNetwork, "_eject", _sink_swallowing_a_tail,
                 CONSERVATION, SHORT_MESH_PACKETS, None,
                 id="tail-swallowed-at-the-mesh-sink"),
]


@pytest.mark.parametrize("owner,method,mutate,law,scenario,refused", PLANTED_FAULTS)
def test_an_audit_names_a_planted_fault(monkeypatch, owner, method, mutate,
                                        law, scenario, refused):
    """Each planted fault is named by ``simulate(audit=1)`` within 50
    cycles of its scenario; at ``audit=0`` the run finishes, silently
    wrong, unless *refused* names what stops it."""
    def plant():
        monkeypatch.setattr(owner, method, mutate(getattr(owner, method)))

    with pytest.raises(SimulationError, match=law):
        scenario(plant).simulate(50, 0, audit=1)
    monkeypatch.undo()
    refusal = pytest.raises(SimulationError, match=refused)
    with refusal if refused else nullcontext():
        scenario(plant).simulate(50, 0)


#: What ``WiredRun.simulate(audit=N)`` must leave bitwise alone: both
#: photonic fabrics past the knee, the mesh, a near-idle d-HetPNoC and
#: a fault-storm replay (700 cycles, 100 of them warm-up).
AUDITED_CASES = [
    ("dhetpnoc", "skewed3", 600.0, None),
    ("firefly", "skewed3", 600.0, None),
    ("electrical", "skewed3", 600.0, None),
    ("dhetpnoc", "uniform", 20.0, None),
    ("dhetpnoc", "skewed3", 400.0, "fault_storm"),
]


@pytest.mark.parametrize("arch,pattern,offered,scenario", AUDITED_CASES)
def test_an_audited_run_equals_the_unaudited_one(monkeypatch, arch, pattern,
                                                 offered, scenario):
    """``audit=7`` audits before the warm-up, after every 7 or fewer
    cycles, again right after the warm-up reset and at the end; the
    result is the ``audit=0`` one, field for field."""
    simulate = runner.WiredRun.simulate
    audited_at = []

    def audited(self, total_cycles, reset_cycles):
        law = self.arch.audit
        self.arch.audit = lambda: (audited_at.append(self.sim.cycle), law())
        simulate(self, total_cycles, reset_cycles, audit=7)

    def run():
        return runner._run_once(arch, BW_SET_1, pattern, offered,
                                fidelity=TINY, seed=1, scenario=scenario)

    plain = run()
    monkeypatch.setattr(runner.WiredRun, "simulate", audited)
    assert run() == plain
    assert audited_at[:17] == [0, *range(7, 99, 7), 100, 100]
    assert audited_at[-1] == TINY.total_cycles
    assert max(b - a for a, b in zip(audited_at, audited_at[1:])) == 7


def test_an_audited_run_names_a_planted_fault_and_its_cycle():
    """A scheduled event bumps one gateway's held-flit counter at cycle
    250: ``audit=7`` stops the run at the first audit after it, naming
    the cycle and the counter; ``audit=0`` finishes, silently wrong."""
    def planted():
        run = loaded("dhetpnoc", "skewed3", 400.0)

        def bump():
            run.arch.gateways[3]._held += 1
        run.sim.schedule(250, bump)
        return run

    law = r"^audit at cycle (\d+): gateway 3: _held is"
    with pytest.raises(SimulationError, match=law) as caught:
        planted().simulate(TINY.total_cycles, TINY.reset_cycles, audit=7)
    assert 250 < int(re.match(law, str(caught.value))[1]) <= 257
    planted().simulate(TINY.total_cycles, TINY.reset_cycles)


def test_a_negative_audit_interval_is_refused():
    run = wire_run("dhetpnoc", BW_SET_1, "uniform", TINY, seed=1)
    with pytest.raises(ValueError, match="audit must be >= 0, got -1"):
        run.simulate(TINY.total_cycles, TINY.reset_cycles, audit=-1)
    assert run.sim.cycle == 0
