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
from repro.photonic.channel import ReservationBroadcastChannel
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1
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


def audited_run(arch_name, bw_set, pattern_name, offered, scenario=None):
    """The runner's own wiring under generated traffic, for tests that
    audit state mid-run and so step the simulator themselves."""
    run = wire_run(arch_name, bw_set, pattern_name, FIDELITY, seed=1,
                   scenario=scenario)
    attach_traffic(run, offered, FIDELITY)
    return run.sim, run.arch


def step_auditing(sim, arch, cycles):
    """Step *cycles* cycles, auditing *arch* after each."""
    for _ in range(cycles):
        sim.step()
        arch.audit()


@pytest.mark.parametrize("arch,pattern,offered,scenario", CASES)
def test_audit_holds_on_every_case(arch, pattern, offered, scenario):
    """``arch.audit`` -- on d-HetPNoC the ring law included -- holds all
    through every equivalence row, checked every 10 cycles: under
    ``fault_storm`` through two wavelength deaths and a token freeze."""
    sim, noc = audited_run(arch, BW_SET_1, pattern, offered, scenario)
    for _ in range(FIDELITY.total_cycles // 10):
        sim.run(10)
        noc.audit()


def test_gateway_held_counter_matches_enumeration():
    """The O(1) counters never drift from the state they count.

    ``ClusterGateway.audit`` re-derives the held-flit count by
    enumerating every pipe, buffer and in-flight launch, and the counts
    that gate the gateway's stages each against what it stands for; it
    must pass at every cycle, across injection, transmission, ejection
    and abandonment (``arch.audit`` runs it on every gateway, then the
    ring law).
    """
    sim, arch = audited_run("dhetpnoc", BW_SET_1, "skewed3", 400.0)
    arch.audit()
    step_auditing(sim, arch, 300)


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
        port = self.inputs[self._tx_slot]
        if port.drain is not None:
            port.catch_up(cycle)  # as the abandon does first: exact counts
        waiting = any(
            pipe and self._pipe_active_vc[slot] is None
            and self.inputs[slot] is port and 0 not in port.counts
            for slot, pipe in enumerate(self._pipes))
        abandon(self, cycle)
        if waiting:
            freed_for_a_waiter.append(cycle)

    monkeypatch.setattr(ClusterGateway, "_abandon_packet", counting)
    config = SystemConfig(bw_set=BW_SET_1, n_vcs=1, **SWAMPED)
    run = wire_run("dhetpnoc", BW_SET_1, "skewed3", FIDELITY, 1, config)
    attach_traffic(run, 900.0, FIDELITY)
    run.simulate(FIDELITY.total_cycles, FIDELITY.reset_cycles, audit=1)
    assert freed_for_a_waiter


def _launch_skipping_dst_held(original):
    def mutant(self, cycle):
        before = {stream[4]: stream[4]._held
                  for stream in self._streams.get(cycle, ())}
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


#: A sleeping gateway's wake against the one its state gives.
WAKE_LAW = r"gateway \d+: _wake is .*, (its state is due|asleep while a stage was due)"


@pytest.mark.parametrize("owner,method,mutate,law", [
    pytest.param(PhotonicCrossbarNoC, "_stream_pass",
                 _launch_skipping_dst_held, r"gateway \d+: _held is",
                 id="_stream_pass-_launch_skipping_dst_held-_held"),
    pytest.param(ClusterGateway, "_eject_step", _tail_leaving_rx_ready_stale,
                 r"gateway \d+: _rx_ready is",
                 id="_eject_step-_tail_leaving_rx_ready_stale-_rx_ready"),
    pytest.param(ClusterGateway, "_inject_step", _fill_completion_skipped,
                 r"gateway \d+: inputs\[\d+\]\.fill_end is \d+, its tail was due",
                 id="fill-completion-skipped"),
    pytest.param(ClusterGateway, "_inject_step", _open_fill_total_drifting,
                 r"d-hetpnoc: _filling is \d+, the gateways' open fills give",
                 id="open-fill-total-drifting"),
    pytest.param(PhotonicCrossbarNoC, "_land", _landing_leaving_dst_asleep,
                 WAKE_LAW, id="wake-dropped-on-a-landing"),
    pytest.param(ReservationBroadcastChannel, "broadcast",
                 _dropping_the_due_it_adds, WAKE_LAW,
                 id="wake-dropped-on-a-reservation"),
    pytest.param(ReservationBroadcastChannel, "respond",
                 _dropping_the_due_it_adds, WAKE_LAW,
                 id="wake-dropped-on-a-response"),
    pytest.param(ClusterGateway, "try_submit",
                 _submit_leaving_the_gateway_asleep, WAKE_LAW,
                 id="wake-dropped-on-a-submit"),
    pytest.param(ClusterGateway, "on_reservation_response",
                 _vc_free_leaving_the_inject_stage_asleep, WAKE_LAW,
                 id="wake-dropped-on-a-vc-free"),
])
def test_gateway_audit_catches_a_planted_fault(monkeypatch, owner, method,
                                                mutate, law):
    """Each planted fault is named by ``simulate(audit=1)`` within 50
    cycles.

    Three clusters each queue a packet for core 0 and then one for core
    1 (8 x 256-bit flits): the three share core 0's ejection, so each
    source's second packet lands behind its first, and the first's tail
    leaving must move the source to core 1's ready set (cycle ~33).
    Each packet fills its VC over 8 cycles, so fills open and close
    from the first cycle; with one VC per port, each second packet waits
    for its first to stream out. The last five rows each drop one
    hand-off's wake, leaving asleep with a stage due: the destination
    flits land at, the reservation channel of a reservation or a
    response, the gateway a packet is submitted to, and the inject stage
    of a gateway whose ACKed stream drains the VC a packet waits for.
    """
    from repro.arch.registry import architectures
    from repro.noc.flit import Packet
    from repro.sim.engine import SimulationError
    from repro.sim.rng import RandomStreams
    from repro.traffic.bandwidth_sets import BW_SET_3
    from repro.traffic.patterns import pattern_by_name

    monkeypatch.setattr(owner, method, mutate(getattr(owner, method)))
    config = SystemConfig(bw_set=BW_SET_3, n_vcs=1)
    sim = Simulator(seed=1)
    pattern = pattern_by_name("uniform").bind(
        BW_SET_3, config.n_clusters, config.cores_per_cluster)
    arch = architectures.get("dhetpnoc")(sim, config, pattern)
    for cluster in (1, 2, 3):
        for dst in (0, 1):
            arch.submit(Packet(src=4 * cluster, dst=dst,
                               n_flits=BW_SET_3.packet_flits,
                               flit_bits=BW_SET_3.flit_bits))
    run = runner.WiredRun(config, RandomStreams(1), sim, pattern, arch)
    with pytest.raises(SimulationError, match=law):
        run.simulate(50, 0, audit=1)


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


@pytest.mark.parametrize("owner,method,mutate,law", [
    (CurrentTable, "remove_dynamic", _release_keeping_one,
     "holds dynamic wavelengths"),
    (WavelengthAllocator, "_update_per_destination", _folding_nothing,
     r"allocates \d+ wavelengths to cluster \d+, holds 1$"),
], ids=["kept-released-wavelength", "stale-per-destination-entry"])
def test_ring_audit_catches_a_planted_fault(monkeypatch, owner, method,
                                            mutate, law):
    """Each planted fault is named by ``audit`` within 50 cycles. The
    cores of the cluster holding the most drop their demand to nothing,
    so the token's first visit there (within one 16-hop round) releases
    what the cluster held: a controller that keeps a wavelength the
    token has back, or entries that still allocate the old holdings,
    break the ring law."""
    from repro.sim.engine import SimulationError

    sim, arch = audited_run("dhetpnoc", BW_SET_1, "skewed3", 400.0)
    hot = max(arch.controllers, key=lambda c: c.held_count).cluster
    assert arch.controllers[hot].current_table.dynamic_ids
    monkeypatch.setattr(owner, method, mutate(getattr(owner, method)))
    for slot in range(arch.config.cores_per_cluster):
        arch.remap_demand(hot, slot, {dst: 0 for dst in range(16) if dst != hot})
    with pytest.raises(SimulationError,
                       match=rf"d-hetpnoc ring: cluster {hot} {law}"):
        step_auditing(sim, arch, 50)


@pytest.mark.parametrize("bw_set_index", [1])
@pytest.mark.parametrize("pattern_name,offered", [("skewed3", 600.0), ("uniform", 20.0)])
def test_mesh_counters_match_enumeration(pattern_name, offered, bw_set_index):
    """What the mesh keeps in O(1) never drifts from a full enumeration.

    ``ElectricalNetwork.audit`` recounts the flits in the network
    (``drain`` trusts it), the set of routers holding a flit (only those
    tick), the order of the two due queues for everything in flight and
    ``vc_depth`` slots around every credit loop; it must pass after every
    cycle, so the simulator is stepped by hand.

    BW set 1 only: every set's packet is the same 64 phits on the mesh,
    and the other sets' phit conservation under load is
    ``test_electrical_baseline.py::test_phits_are_conserved_under_load``.
    """
    from repro.traffic.bandwidth_sets import bandwidth_set_by_index

    sim, arch = audited_run(
        "electrical", bandwidth_set_by_index(bw_set_index), pattern_name, offered
    )
    net = arch.network
    assert len(net._links) == 224
    most_held = most_backlogged = idle_cycles = 0

    for _ in range(1000):
        sim.step()
        arch.audit()
        idle_cycles += net.is_idle()
        most_held = max(most_held, net.flits_in_network)
        most_backlogged = max(most_backlogged, len(net._occupied))

    # Each regime is really visited: past the knee flits queue in many
    # routers at once and the mesh is never quiet; at low load a router
    # forwards what it gets at once and most cycles are idle.
    if offered > 100:
        assert most_backlogged >= 8 and idle_cycles < 100
    else:
        assert most_held > 0 and most_backlogged <= 2 and idle_cycles > 500


def _landing_dropping_a_credit(original):
    def mutant(self, cycle):
        landing = [entry for entry in self._credits_due if entry[0] <= cycle]
        original(self, cycle)
        if landing:
            _due, row, vc = landing[0]
            row[vc] -= 1  # the first credit due this cycle never arrived
    return mutant


def _landing_leaving_occupied_stale(original):
    def mutant(self, cycle):
        landing = {node for due, _, node, _ in self._flits_due if due <= cycle}
        before = set(self._occupied)
        original(self, cycle)
        # A router a flit landed in was never marked as holding one.
        self._occupied -= landing - before
    return mutant


@pytest.mark.parametrize("mutate,counter", [
    (_landing_dropping_a_credit, r"emesh\.\d+->\d+ credits"),
    (_landing_leaving_occupied_stale, "_occupied"),
], ids=["dropped-credit", "stale-occupied"])
def test_mesh_audit_catches_a_planted_fault(monkeypatch, mutate, counter):
    """Each planted fault in landing what is due is named by ``audit``
    within 50 cycles of a loaded mesh."""
    from repro.noc.network import ElectricalNetwork
    from repro.sim.engine import SimulationError

    monkeypatch.setattr(ElectricalNetwork, "tick", mutate(ElectricalNetwork.tick))
    sim, arch = audited_run("electrical", BW_SET_1, "skewed3", 600.0)
    with pytest.raises(SimulationError, match=rf"emesh: {counter} is"):
        step_auditing(sim, arch, 50)


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
    from repro.sim.engine import SimulationError

    def planted():
        run = wire_run("dhetpnoc", BW_SET_1, "skewed3", TINY, seed=1)
        attach_traffic(run, 400.0, TINY)

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
