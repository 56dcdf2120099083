"""Warm-up boundary accounting: settle-then-reset semantics.

The thesis discards the first 1 000 cycles of every 10 000-cycle run
(table 3-3). These tests pin the boundary bookkeeping: buffer residency
accrued during warm-up must land in the discarded bucket, drain cycles
after the measured window must not dilute bandwidth, and the buffers
must re-base their clocks at the boundary. The *other* end of the window
is stated too: where ``finalize`` stops charging residency.
"""

import pytest

from repro.experiments.runner import Fidelity, attach_traffic, wire_run
from repro.noc.buffer import PortBuffer, VirtualChannelBuffer
from repro.noc.flit import Packet, packetize
from repro.noc.network import ElectricalNetwork
from repro.noc.topology import mesh
from repro.sim.engine import Simulator
from repro.sim.stats import Histogram
from repro.traffic.bandwidth_sets import BW_SET_1


def make_flits(n_flits=1, src=0, dst=1, flit_bits=32):
    return packetize(Packet(src=src, dst=dst, n_flits=n_flits,
                            flit_bits=flit_bits, created_cycle=0))


class TestBufferBoundary:
    def test_reset_at_boundary_rebases_the_accounting_clock(self):
        vcb = VirtualChannelBuffer(depth=8)
        for flit in make_flits(3):
            vcb.push(flit, cycle=0)
        # Warm-up boundary at cycle 100: the 300 warm-up flit-cycles are
        # settled into the counters and then discarded with them.
        vcb.reset_stats(at_cycle=100)
        assert vcb.flit_cycles == 0
        # Only post-boundary residency is measured: 3 flits x 10 cycles.
        vcb.settle(110)
        assert vcb.flit_cycles == 30

    def test_counters_cleared_either_way(self):
        vcb = VirtualChannelBuffer(depth=8)
        for flit in make_flits(2):
            vcb.push(flit, cycle=0)
        vcb.pop(cycle=5)
        vcb.reset_stats(at_cycle=5)
        assert vcb.flit_cycles == 0
        assert len(vcb) == 1  # contents untouched, only stats cleared

    def test_port_buffer_threads_the_boundary_to_every_vc(self):
        port = PortBuffer(n_vcs=2, depth=8)
        head, tail = make_flits(2)
        head.vc = 0
        tail.vc = 1
        port.push(head, cycle=0)
        port.push(tail, cycle=0)
        port.reset_stats(at_cycle=50)
        port.settle(60)
        assert port.flit_cycles == 2 * 10


class TestMeasurementWindow:
    def _network(self):
        sim = Simulator(seed=1)
        net = sim.register(ElectricalNetwork(mesh(2, 2)))
        return sim, net

    def test_drain_after_measured_run_freezes_the_window(self):
        sim, net = self._network()
        net.submit(Packet(src=0, dst=3, n_flits=6, flit_bits=32,
                          created_cycle=0))
        sim.run(3)  # measured cycles accumulate; packet still in flight
        measured_before = net.metrics.measured_cycles
        assert measured_before > 0
        assert net.drain(sim, max_cycles=500)
        # Drain flushed the packet without growing the window.
        assert net.metrics.measured_cycles == measured_before
        assert net.metrics.packets_delivered == 1
        # Conservation bits keep counting; window bits do not.
        assert net.metrics.bits_delivered == 6 * 32
        assert net.metrics.measured_bits < net.metrics.bits_delivered

    def test_cold_start_drain_keeps_the_window_open(self):
        # The drive-and-drain pattern unit tests use: nothing measured
        # yet, so the drain itself is the measurement.
        sim, net = self._network()
        net.submit(Packet(src=0, dst=3, n_flits=4, flit_bits=32,
                          created_cycle=0))
        assert net.drain(sim, max_cycles=500)
        assert net.metrics.measured_cycles > 0
        assert net.metrics.delivered_gbps(2.5e9) > 0

    def test_reset_stats_reopens_the_window(self):
        sim, net = self._network()
        net.submit(Packet(src=0, dst=3, n_flits=4, flit_bits=32,
                          created_cycle=0))
        sim.run(2)
        assert net.drain(sim, max_cycles=500)
        net.reset_stats(sim.cycle)
        net.submit(Packet(src=1, dst=2, n_flits=4, flit_bits=32,
                          created_cycle=sim.cycle))
        sim.run(50)
        assert net.metrics.measured_bits == 4 * 32
        assert net.metrics.measured_cycles == 50

    def test_skipped_idle_spans_count_as_measured_cycles(self):
        # An idle network inside an open window still accrues measured
        # cycles — the fast path must not shrink the denominator.
        sim, net = self._network()
        sim.run(200)
        assert net.metrics.measured_cycles == 200


class TestEndOfRunBoundary:
    """``finalize()`` settles buffers at ``current_cycle``, the *last
    ticked* cycle, while the warm-up reset re-bases them at ``reset`` and
    ``measured_cycles`` counts ``total - reset``: the last measured cycle
    of buffer residency is never charged. Fixing that moves every
    ``energy_per_message_pj`` and ``sim_digest``, so it waits for the
    versioned digest boundary (ROADMAP item 5); until then this is the
    one place the relation is written down."""

    TOTAL, RESET = 600, 100
    #: Residency is charged over ``[RESET, LAST_CHARGED)``. Epoch 2 makes
    #: this ``TOTAL``; flip it here.
    LAST_CHARGED = TOTAL - 1

    @staticmethod
    def _vcs(arch):
        """Every buffer whose residency ``finalize`` charges."""
        if hasattr(arch, "gateways"):
            return [
                vc for gateway in arch.gateways
                for vc in (*(vc for port in gateway.inputs for vc in port),
                           *gateway.rx_buffers.values())
            ]
        return [
            vc for router in arch.network.routers.values()
            for port in router.inputs for vc in port
        ]

    @pytest.mark.parametrize("arch_name", ["dhetpnoc", "electrical"])
    def test_last_cycle_uncharged(self, arch_name):
        fidelity = Fidelity("boundary", self.TOTAL, self.RESET, (0.4,))
        run = wire_run(arch_name, BW_SET_1, "skewed3", fidelity, seed=1)
        attach_traffic(run, 480.0, fidelity)
        arch, vcs = run.arch, self._vcs(run.arch)
        # A flit pushed in cycle c and popped in cycle d accounts d - c
        # flit-cycles: it is resident at the *end* of cycles c .. d-1. A
        # tick hook runs before cycle c's work, so it sees the end of c-1.
        resident_after = {}

        def enumerate_buffers(cycle):
            resident_after[cycle - 1] = sum(len(vc) for vc in vcs)

        arch.add_tick_hook(enumerate_buffers)
        run.sim.run_with_reset(self.TOTAL, self.RESET)
        enumerate_buffers(self.TOTAL)
        arch.finalize()

        assert arch.metrics.measured_cycles == self.TOTAL - self.RESET
        assert arch.current_cycle == self.TOTAL - 1
        charged = range(self.RESET, self.LAST_CHARGED)
        assert sum(vc.flit_cycles for vc in vcs) == sum(
            resident_after[c] for c in charged
        )
        # The run ends busy, so the uncharged last cycle is not nothing.
        assert resident_after[self.TOTAL - 1] > 0


class TestStatsPrimitives:
    def test_percentile_skips_leading_empty_buckets(self):
        h = Histogram(bucket_width=10.0, n_buckets=10)
        h.add(55.0)
        # p=0 must report where the smallest sample lies, not bucket 0.
        assert h.percentile(0) == 60.0
        assert h.percentile(100) == 60.0

    def test_percentile_interior_gap(self):
        h = Histogram(bucket_width=10.0, n_buckets=10)
        h.add(5.0)
        h.add(95.0)
        assert h.percentile(0) == 10.0
        assert h.percentile(50) == 10.0
        assert h.percentile(100) == 100.0

    def test_percentile_overflow_bucket_edge(self):
        h = Histogram(bucket_width=10.0, n_buckets=4)
        h.add(1e9)
        assert h.percentile(0) == 50.0
        assert h.percentile(100) == 50.0

    def test_percentile_empty_histogram(self):
        assert Histogram(bucket_width=10.0, n_buckets=4).percentile(50) == 0.0
