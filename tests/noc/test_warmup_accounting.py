"""Warm-up boundary accounting: settle-then-reset semantics.

The thesis discards the first 1 000 cycles of every 10 000-cycle run
(table 3-3). These tests pin the boundary bookkeeping: buffer residency
accrued during warm-up must land in the discarded bucket, drain cycles
after the measured window must not dilute bandwidth, and the stats
primitives must re-base their clocks at the boundary.
"""

import pytest

from repro.noc.buffer import PortBuffer, VirtualChannelBuffer
from repro.noc.flit import Packet, packetize
from repro.noc.network import ElectricalNetwork
from repro.noc.topology import mesh
from repro.sim.engine import Simulator
from repro.sim.stats import BandwidthMeter, Histogram


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

    def test_legacy_no_arg_reset_keeps_the_old_clock(self):
        # The pre-fix behaviour, kept for callers that reset an *empty*
        # buffer between independent drains: counters zero but the clock
        # stays where the last push/pop left it.
        vcb = VirtualChannelBuffer(depth=8)
        for flit in make_flits(3):
            vcb.push(flit, cycle=0)
        vcb.reset_stats()
        vcb.settle(110)
        assert vcb.flit_cycles == 3 * 110

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


class TestStatsPrimitives:
    def test_bandwidth_meter_rebases_start_cycle_on_reset(self):
        meter = BandwidthMeter()
        meter.add_bits(10_000)  # warm-up bits, about to be discarded
        meter.reset(at_cycle=1_000)
        meter.add_bits(25_000)
        # Window is [1000, 2000): exactly 1000 cycles at 2.5 GHz.
        assert meter.bits_per_second(2_000, 2.5e9) == pytest.approx(
            25_000 * 2.5e9 / 1_000
        )

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
