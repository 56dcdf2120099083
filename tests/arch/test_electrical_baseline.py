"""Tests for the electrical-mesh baseline and the chapter-1 comparison."""

import pytest

from repro.arch.config import SystemConfig
from repro.arch.electrical_baseline import ElectricalMeshNoC
from repro.arch.firefly import FireflyNoC
from repro.noc.flit import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1, bandwidth_set_by_index
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import UniformRandomTraffic, pattern_by_name


def build_mesh(seed=3, offered=None):
    streams = RandomStreams(seed)
    config = SystemConfig(bw_set=BW_SET_1)
    sim = Simulator(seed=seed)
    noc = ElectricalMeshNoC(sim, config)
    pattern = None
    if offered is not None:
        pattern = UniformRandomTraffic().bind(
            BW_SET_1, config.n_clusters, config.cores_per_cluster,
            streams.get("placement"),
        )
        generator = TrafficGenerator.for_offered_gbps(
            pattern, offered, streams.get("traffic"), noc.submit, config.clock_hz
        )
        noc.attach_generator(generator)
    return sim, noc


class TestElectricalMesh:
    def test_requires_square_core_count(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ElectricalMeshNoC(sim, SystemConfig(bw_set=BW_SET_1, n_clusters=15))

    def test_single_packet_delivery(self):
        sim, noc = build_mesh()
        noc.submit(Packet(src=0, dst=63, n_flits=4, flit_bits=32, created_cycle=0))
        sim.run(300)
        assert noc.metrics.packets_delivered == 1

    def test_latency_scales_with_hops(self):
        sim, noc = build_mesh()
        noc.submit(Packet(src=0, dst=1, n_flits=4, flit_bits=32, created_cycle=0))
        sim.run(200)
        near = noc.metrics.latency.mean
        sim2, noc2 = build_mesh()
        noc2.submit(Packet(src=0, dst=63, n_flits=4, flit_bits=32, created_cycle=0))
        sim2.run(200)
        far = noc2.metrics.latency.mean
        assert far > near

    def test_queue_cap_refuses(self):
        sim, noc = build_mesh()
        for i in range(noc.max_queued):
            assert noc.submit(Packet(src=0, dst=9 + i, n_flits=64, flit_bits=32))
        assert not noc.submit(Packet(src=0, dst=30, n_flits=64, flit_bits=32))
        assert noc.metrics.packets_refused == 1

    @pytest.mark.parametrize("bw_set_index", [1, 2, 3])
    def test_queued_packets_count_at_their_phit_length(self, bw_set_index):
        """Every set's packet is 2048 bits = 64 phits once re-flitted,
        whatever its own flit width."""
        bw_set = bandwidth_set_by_index(bw_set_index)
        sim = Simulator()
        noc = ElectricalMeshNoC(sim, SystemConfig(bw_set=bw_set))
        for dst in (61, 62, 63):
            assert noc.submit(Packet(src=0, dst=dst, n_flits=bw_set.packet_flits,
                                     flit_bits=bw_set.flit_bits))
        sim.run(5)
        assert noc.flits_in_system() == 192

    @pytest.mark.parametrize("bw_set_index", [1, 2, 3])
    def test_phits_are_conserved_under_load(self, bw_set_index):
        """accepted == delivered + in system, audited every 50 cycles
        past saturation (queues full, packets mid-injection, links and
        buffers busy)."""
        bw_set = bandwidth_set_by_index(bw_set_index)
        streams = RandomStreams(5)
        config = SystemConfig(bw_set=bw_set)
        sim = Simulator(seed=5)
        noc = ElectricalMeshNoC(sim, config)
        pattern = pattern_by_name("skewed3").bind(
            bw_set, config.n_clusters, config.cores_per_cluster,
            streams.get("placement"),
        )
        accepted_phits = 0

        def submit(packet):
            nonlocal accepted_phits
            accepted = noc.submit(packet)
            if accepted:
                accepted_phits += -(-packet.size_bits // noc.phit_bits)
            return accepted

        noc.attach_generator(TrafficGenerator.for_offered_gbps(
            pattern, 600.0, streams.get("traffic"), submit, config.clock_hz
        ))
        queued = 0
        for _ in range(12):
            sim.run(50)
            queued += sum(len(ep.queue) for ep in noc.network.endpoints.values())
            assert accepted_phits == (
                noc.metrics.flits_delivered + noc.flits_in_system()
            ), f"cycle {sim.cycle}"
        # The audits saw packets waiting whole in a queue, in flight and out.
        assert queued > 0 and noc.metrics.flits_delivered > 0

    def test_traffic_generator_integration(self):
        sim, noc = build_mesh(offered=80.0)
        sim.run(1200)
        assert noc.metrics.packets_delivered > 0

    def test_energy_accounting_at_finalize(self):
        sim, noc = build_mesh()
        noc.submit(Packet(src=0, dst=63, n_flits=4, flit_bits=32))
        sim.run(300)
        assert noc.energy.breakdown.total_pj == 0.0
        noc.finalize()
        assert noc.energy.breakdown.router_pj > 0
        assert noc.energy.breakdown.buffer_pj > 0

    def test_no_photonics(self):
        _sim, noc = build_mesh()
        assert noc.lit_wavelengths() == 0
        assert noc.laser_power_mw() == 0.0

    def test_mean_hop_count(self):
        _sim, noc = build_mesh()
        # 8x8 mesh: mean Manhattan distance = 2*(side^2-1)/(3*side) ~ 5.33.
        assert noc.mean_hop_count() == pytest.approx(16 / 3, rel=0.02)


class TestChapterOneComparison:
    """The motivation claims: electrical wins short-range latency at low
    load; the photonic crossbar wins aggregate bandwidth."""

    def _run(self, noc_cls, offered, bw_set=BW_SET_1, seed=17, cycles=1500):
        streams = RandomStreams(seed)
        config = SystemConfig(bw_set=bw_set)
        sim = Simulator(seed=seed)
        noc = noc_cls(sim, config)
        pattern = UniformRandomTraffic().bind(
            bw_set, config.n_clusters, config.cores_per_cluster,
            streams.get("placement"),
        )
        generator = TrafficGenerator.for_offered_gbps(
            pattern, offered, streams.get("traffic"), noc.submit, config.clock_hz
        )
        noc.attach_generator(generator)
        sim.run(cycles)
        noc.finalize()
        return noc

    def test_mesh_latency_lower_at_low_load(self):
        mesh_noc = self._run(ElectricalMeshNoC, offered=40.0)
        photonic = self._run(FireflyNoC, offered=40.0)
        assert mesh_noc.metrics.latency.mean < photonic.metrics.latency.mean

    def test_photonic_bandwidth_higher_at_scale(self):
        """The DWDM budget scales the crossbar (BW set 3: 6.4 Tb/s
        aggregate) far past the mesh's wire-limited capacity -- section
        1.5's scalability argument."""
        from repro.traffic.bandwidth_sets import BW_SET_3

        offered = 4000.0
        mesh_noc = self._run(ElectricalMeshNoC, offered, bw_set=BW_SET_3)
        photonic = self._run(FireflyNoC, offered, bw_set=BW_SET_3)
        clock = 2.5e9
        assert (
            photonic.metrics.delivered_gbps(clock)
            > 1.3 * mesh_noc.metrics.delivered_gbps(clock)
        )

    def test_photonic_energy_per_message_lower(self):
        """Multi-hop router + wire energy makes mesh messages costlier
        than single-photonic-hop messages (section 1.5's energy
        argument)."""
        mesh_noc = self._run(ElectricalMeshNoC, offered=300.0)
        photonic = self._run(FireflyNoC, offered=300.0)
        assert photonic.energy_per_message_pj < mesh_noc.energy_per_message_pj
