"""Tests for the Bernoulli traffic generator."""

import random
import re

import pytest

from repro.traffic.bandwidth_sets import BW_SET_1
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import SkewedTraffic, UniformRandomTraffic


def bound_pattern(pattern=None, seed=3):
    pattern = pattern or UniformRandomTraffic()
    return pattern.bind(BW_SET_1, 16, 4, random.Random(seed))


class CollectingSink:
    def __init__(self, accept=True):
        self.packets = []
        self.accept = accept

    def __call__(self, packet):
        if self.accept:
            self.packets.append(packet)
            return True
        return False


class TestTrafficGenerator:
    def test_injection_rate_approximates_offered_load(self):
        pattern = bound_pattern()
        sink = CollectingSink()
        gen = TrafficGenerator(pattern, 0.5, random.Random(1), sink)
        for cycle in range(4000):
            gen.tick(cycle)
        rate = gen.packets_offered / 4000
        assert rate == pytest.approx(0.5, rel=0.1)

    def test_for_offered_gbps_conversion(self):
        pattern = bound_pattern()
        sink = CollectingSink()
        # 2048-bit packets at 2.5 GHz: 512 Gb/s == 0.1 packets/cycle.
        gen = TrafficGenerator.for_offered_gbps(
            pattern, 512.0, random.Random(1), sink, clock_hz=2.5e9
        )
        assert gen.offered_load == pytest.approx(0.1)

    def test_packet_geometry_from_bw_set(self):
        pattern = bound_pattern()
        sink = CollectingSink()
        gen = TrafficGenerator(pattern, 1.0, random.Random(1), sink)
        for cycle in range(50):
            gen.tick(cycle)
        assert sink.packets
        for packet in sink.packets:
            assert packet.n_flits == 64
            assert packet.flit_bits == 32

    def test_refusals_counted(self):
        pattern = bound_pattern()
        sink = CollectingSink(accept=False)
        gen = TrafficGenerator(pattern, 1.0, random.Random(1), sink)
        for cycle in range(100):
            gen.tick(cycle)
        assert gen.packets_refused == gen.packets_offered > 0
        assert gen.acceptance_ratio == 0.0

    def test_skewed_sources_dominate(self):
        pattern = bound_pattern(SkewedTraffic(3))
        sink = CollectingSink()
        gen = TrafficGenerator(pattern, 2.0, random.Random(2), sink)
        for cycle in range(3000):
            gen.tick(cycle)
        by_class = {0: 0, 1: 0, 2: 0, 3: 0}
        for packet in sink.packets:
            by_class[pattern.class_of_cluster(pattern.cluster_of(packet.src))] += 1
        total = sum(by_class.values())
        assert by_class[3] / total == pytest.approx(0.90, abs=0.04)

    def test_bw_class_recorded_on_packets(self):
        pattern = bound_pattern(SkewedTraffic(1))
        sink = CollectingSink()
        gen = TrafficGenerator(pattern, 1.0, random.Random(3), sink)
        for cycle in range(100):
            gen.tick(cycle)
        for packet in sink.packets:
            assert packet.bw_class == pattern.class_of_cluster(
                pattern.cluster_of(packet.src)
            )

    def test_determinism(self):
        results = []
        for _ in range(2):
            pattern = bound_pattern(seed=5)
            sink = CollectingSink()
            gen = TrafficGenerator(pattern, 0.7, random.Random(42), sink)
            for cycle in range(500):
                gen.tick(cycle)
            results.append([(p.src, p.dst) for p in sink.packets])
        assert results[0] == results[1]

    def test_zero_load_generates_nothing(self):
        pattern = bound_pattern()
        sink = CollectingSink()
        gen = TrafficGenerator(pattern, 0.0, random.Random(1), sink)
        for cycle in range(100):
            gen.tick(cycle)
        assert gen.packets_offered == 0

    def test_reset_stats(self):
        pattern = bound_pattern()
        sink = CollectingSink()
        gen = TrafficGenerator(pattern, 1.0, random.Random(1), sink)
        for cycle in range(50):
            gen.tick(cycle)
        gen.reset_stats()
        assert gen.packets_offered == 0
        assert gen.acceptance_ratio == 1.0

    def test_unbound_pattern_rejected(self):
        with pytest.raises(ValueError):
            TrafficGenerator(UniformRandomTraffic(), 1.0, random.Random(1), lambda p: True)

    @pytest.mark.parametrize("load", [-1.0, float("nan"), float("inf")])
    def test_negative_or_non_finite_load_rejected(self, load):
        message = (f"offered_load_packets_per_cycle must be finite and "
                   f">= 0, got {load!r}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrafficGenerator(bound_pattern(), load, random.Random(1), lambda p: True)
