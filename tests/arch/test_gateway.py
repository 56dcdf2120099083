"""Tests for the cluster gateway (photonic router of fig. 3-2)."""

import pytest

from repro.arch.config import SystemConfig
from repro.arch.firefly import FireflyNoC
from repro.arch.photonic_router import ClusterGateway, TxPlan
from repro.noc.flit import Packet
from repro.sim.engine import SimulationError, Simulator
from repro.traffic.bandwidth_sets import BW_SET_1


def make_noc(seed=1, **config_kwargs):
    config = SystemConfig(bw_set=BW_SET_1, **config_kwargs)
    sim = Simulator(seed=seed)
    noc = FireflyNoC(sim, config)
    return sim, noc


def packet(src=0, dst=8, created=0):
    return Packet(src=src, dst=dst, n_flits=64, flit_bits=32, created_cycle=created)


class TestSubmission:
    def test_inter_cluster_accepted(self):
        sim, noc = make_noc()
        assert noc.submit(packet(src=0, dst=8))
        assert noc.metrics.packets_accepted == 1

    def test_pipe_cap_refuses(self):
        sim, noc = make_noc(max_pending_packets_per_core=2)
        assert noc.submit(packet(src=0, dst=8))
        assert noc.submit(packet(src=0, dst=12))
        assert not noc.submit(packet(src=0, dst=16))
        assert noc.metrics.packets_refused == 1

    def test_caps_are_per_core(self):
        sim, noc = make_noc(max_pending_packets_per_core=1)
        assert noc.submit(packet(src=0, dst=8))
        assert noc.submit(packet(src=1, dst=8))  # different core, same cluster

    def test_a_run_keeps_its_first_flit_width(self):
        """Every per-flit charge inside the fabric is counted with the
        run's one width, so a packet of another width is refused loudly
        (inter- or intra-cluster, before anything is queued)."""
        sim, noc = make_noc()
        assert noc.submit(packet(src=0, dst=8))
        for dst in (12, 5):
            wide = Packet(src=4, dst=dst, n_flits=16, flit_bits=128)
            with pytest.raises(SimulationError, match="128-bit flit in a run of 32-bit"):
                noc.submit(wide)
        assert noc.metrics.packets_accepted == 1
        assert noc.flits_in_system() == 64

    def test_intra_cluster_bypasses_photonics(self):
        sim, noc = make_noc()
        assert noc.submit(packet(src=0, dst=2))  # same cluster
        sim.run(80)
        assert noc.metrics.packets_delivered == 1
        assert noc.metrics.packets_delivered_photonic == 0
        assert noc.metrics.reservations_sent == 0


class TestPhotonicDelivery:
    def test_single_packet_end_to_end(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        sim.run(300)
        assert noc.metrics.packets_delivered == 1
        assert noc.metrics.packets_delivered_photonic == 1
        assert noc.metrics.bits_delivered == 2048

    def test_reservation_precedes_data(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        sim.run(300)
        assert noc.metrics.reservations_sent == 1
        assert noc.metrics.reservations_nacked == 0

    def test_latency_includes_serialization(self):
        """64 flits over a 4-wavelength channel: >= 64 (pipe) + ~103
        (serialization) cycles of latency."""
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        sim.run(400)
        assert noc.metrics.latency.mean > 100

    def test_flits_arrive_at_correct_core(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=9))  # core 9 = cluster 2, slot 1
        sim.run(300)
        assert noc.metrics.packets_delivered == 1

    def test_multiple_sources_same_destination_cluster(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        noc.submit(packet(src=4, dst=9))
        noc.submit(packet(src=12, dst=10))
        sim.run(600)
        assert noc.metrics.packets_delivered == 3

    #: A lone 64 x 32-bit packet from core 0 to core 8 over one and over
    #: eight wavelengths: the stream's steps, then the latency, the
    #: source channel's busy, lit, flit, bit and packet counts, the two
    #: gateways' buffer flit-cycles and the energy breakdown (launch,
    #: modulation, tuning, buffer, router, demodulation, reservation) as
    #: the gateway that stepped its source through every stream step
    #: left them.
    LONE_STREAM = {
        1: (410, 476.0, (410, 410, 64, 2048, 1), 14732, 0,
            (307.2000000000004, 81.92000000000004, 491.5200000000004,
             1215.46875, 3840.0, 82.4, 12.64)),
        8: (52, 130.0, (52, 416, 64, 2048, 1), 3745, 390,
            (307.2000000000002, 81.92000000000004, 491.5200000000003,
             801.5234375, 3840.0, 82.4, 12.64)),
    }

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "naive"])
    @pytest.mark.parametrize("n_wavelengths", sorted(LONE_STREAM))
    def test_a_stream_costs_its_source_a_bounded_number_of_ticks(
            self, monkeypatch, n_wavelengths, fast_path):
        """The source hands its stream over at the ACK and the fabric's
        stream pass plays it: on the fast path the source is ticked in
        the ACK's cycle and the next, however many steps the stream
        takes, and every count is what a source stepped through the
        stream left."""
        steps, latency, channel, source_cycles, dst_cycles, energy = (
            self.LONE_STREAM[n_wavelengths])
        sim, noc = make_noc()
        sim.fast_path = fast_path
        noc._plan = TxPlan(n_wavelengths=n_wavelengths, wavelength_ids=(),
                           reservation_cycles=1)
        ticked, acked, ended = [], [], []
        for method, seen in (("tick", ticked),
                             ("on_reservation_response", acked),
                             ("end_stream", ended)):
            def spy(self, *args, _original=getattr(ClusterGateway, method),
                    _seen=seen):
                if self.cluster_id == 0:
                    _seen.append(sim.cycle)
                return _original(self, *args)
            monkeypatch.setattr(ClusterGateway, method, spy)
        noc.submit(packet(src=0, dst=8))
        sim.run(600)
        noc.finalize()
        (ack,), (end,) = acked, ended
        assert end - ack == steps - 1
        during = [cycle for cycle in ticked if ack <= cycle <= end]
        assert during == ([ack, ack + 1] if fast_path
                          else list(range(ack, end + 1)))
        source, dst = noc.gateways[0], noc.gateways[2]
        assert noc.metrics.latency.mean == latency
        assert (source.channel.busy_cycles,
                source.channel.wavelength_cycles_lit,
                source.channel.flits_transmitted,
                source.channel.bits_transmitted,
                source.channel.packets_transmitted) == channel
        assert source.buffer_flit_cycles() == source_cycles
        assert dst.buffer_flit_cycles() == dst_cycles
        e = noc.energy.breakdown
        assert (e.launch_pj, e.modulation_pj, e.tuning_pj, e.buffer_pj,
                e.router_pj, e.demodulation_pj, e.reservation_pj) == energy

    def test_serial_use_of_write_channel(self):
        """Two packets from one cluster share its single write channel,
        so they serialize: total time ~2x one packet."""
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        noc.submit(packet(src=1, dst=12))
        sim.run(180)
        assert noc.metrics.packets_delivered <= 1
        sim.run(400)
        assert noc.metrics.packets_delivered == 2


class TestBackpressure:
    def test_rx_full_causes_nack_and_retry(self):
        """Swamp one destination cluster from many sources: receive
        buffers fill, reservations NACK, sources retry, and everything is
        eventually delivered (thesis 1.4 retransmission)."""
        sim, noc = make_noc(rx_buffer_packets=1)
        for src_cluster in range(1, 9):
            for slot in range(2):
                noc.submit(packet(src=src_cluster * 4 + slot, dst=0))
        sim.run(6000)
        assert noc.metrics.reservations_nacked > 0
        assert noc.metrics.packets_delivered == 16

    def test_abandon_after_max_retries(self):
        """With an impossible destination backlog and a tiny retry budget
        the source eventually gives up (counted, not lost silently)."""
        sim, noc = make_noc(rx_buffer_packets=1, max_retries=2,
                            retry_backoff_cycles=4)
        # Fill the destination's buffer from cluster 1 and keep its
        # ejection busy... simplest: many senders, tiny buffer.
        for src_cluster in range(1, 16):
            noc.submit(packet(src=src_cluster * 4, dst=0))
        sim.run(4000)
        assert (
            noc.metrics.packets_delivered + noc.metrics.packets_abandoned == 15
        )


class TestEnergyCharging:
    def test_photonic_bits_charged_once_delivered(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        sim.run(300)
        b = noc.energy.breakdown
        # 2048 data bits at 0.15/0.04/0.24 pJ/bit.
        assert b.launch_pj == pytest.approx(2048 * 0.15)
        assert b.modulation_pj == pytest.approx(2048 * 0.04)
        assert b.tuning_pj == pytest.approx(2048 * 0.24)

    def test_demodulation_window_charged(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        sim.run(300)
        assert noc.energy.breakdown.demodulation_pj > 0

    def test_reservation_energy_charged(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        sim.run(300)
        assert noc.energy.breakdown.reservation_pj > 0

    def test_retention_charged_at_finalize(self):
        sim, noc = make_noc()
        noc.submit(packet(src=0, dst=8))
        sim.run(300)
        before = noc.energy.breakdown.buffer_pj
        noc.finalize()
        assert noc.energy.breakdown.buffer_pj >= before
