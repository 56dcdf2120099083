"""Tests for the electrical-mesh baseline.

Its chapter-1 comparison with the photonic crossbar is
``examples/electrical_vs_photonic.py``'s; ``tests/test_examples.py``
checks the three claims the example prints.
"""

import pytest

from repro.arch.config import SystemConfig
from repro.arch.electrical_baseline import ElectricalMeshNoC
from repro.experiments.runner import QUICK_FIDELITY, attach_traffic, wire_run
from repro.noc.flit import Packet
from repro.sim.engine import Simulator
from repro.traffic.bandwidth_sets import BW_SET_1, bandwidth_set_by_index


def build_mesh(seed=3, offered=None, bw_set=BW_SET_1):
    run = wire_run("electrical", bw_set, "uniform", QUICK_FIDELITY, seed)
    if offered is not None:
        attach_traffic(run, offered, QUICK_FIDELITY)
    return run.sim, run.arch


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
        sim, noc = build_mesh(bw_set=bw_set)
        for dst in (61, 62, 63):
            assert noc.submit(Packet(src=0, dst=dst, n_flits=bw_set.packet_flits,
                                     flit_bits=bw_set.flit_bits))
        sim.run(5)
        assert noc.flits_in_system() == 192

    @pytest.mark.parametrize("bw_set_index", [1, 2, 3])
    def test_phits_are_conserved_under_load(self, bw_set_index):
        """Flit conservation, in phits, audited every 50 cycles past
        saturation (queues full, packets mid-injection, links and buffers
        busy) and across the warm-up reset."""
        run = wire_run("electrical", bandwidth_set_by_index(bw_set_index),
                       "skewed3", QUICK_FIDELITY, 5)
        attach_traffic(run, 600.0, QUICK_FIDELITY)
        run.simulate(600, 100, audit=50)
        # The last audit saw packets waiting whole in a queue, and some out.
        assert any(ep.queue for ep in run.arch.network.endpoints.values())
        assert run.arch.metrics.flits_delivered

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
