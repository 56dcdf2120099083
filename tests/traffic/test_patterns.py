"""Tests for traffic patterns, including table 3-2 frequency properties."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.bandwidth_sets import BW_SET_1, BW_SET_2
from repro.traffic.patterns import (
    SKEW_FREQUENCIES,
    BitComplementTraffic,
    HotspotSkewedTraffic,
    PatternError,
    RealApplicationTraffic,
    SkewedTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
    pattern_by_name,
)


def bind(pattern, bw_set=BW_SET_1, seed=7):
    return pattern.bind(bw_set, 16, 4, random.Random(seed))


class TestUniform:
    def test_equal_weights(self):
        pattern = bind(UniformRandomTraffic())
        weights = pattern.source_weights()
        assert len(weights) == 64
        assert all(w == pytest.approx(1 / 64) for w in weights)

    def test_destination_never_self(self):
        pattern = bind(UniformRandomTraffic())
        rng = random.Random(1)
        assert all(pattern.pick_destination(5, rng) != 5 for _ in range(200))

    def test_demand_equals_firefly_split(self):
        """Uniform demand == static split: d-HetPNoC configures itself
        identically to Firefly (the thesis's equality case)."""
        pattern = bind(UniformRandomTraffic())
        assert pattern.demand_wavelengths(0, 1) == 4

    def test_unbound_use_rejected(self):
        with pytest.raises(PatternError):
            UniformRandomTraffic().source_weights()


class TestSkewed:
    def test_table_3_2_frequencies(self):
        assert SKEW_FREQUENCIES[1] == (0.50, 0.25, 0.125, 0.125)
        assert SKEW_FREQUENCIES[2] == (0.75, 0.125, 0.0625, 0.0625)
        assert SKEW_FREQUENCIES[3] == (0.90, 0.05, 0.025, 0.025)

    def test_frequencies_sum_to_one(self):
        for freqs in SKEW_FREQUENCIES.values():
            assert sum(freqs) == pytest.approx(1.0)

    def test_four_clusters_per_class(self):
        pattern = bind(SkewedTraffic(3))
        counts = Counter(pattern.class_of_cluster(c) for c in range(16))
        assert counts == {0: 4, 1: 4, 2: 4, 3: 4}

    def test_weights_sum_to_one(self):
        for level in (1, 2, 3):
            pattern = bind(SkewedTraffic(level))
            assert sum(pattern.source_weights()) == pytest.approx(1.0)

    def test_class_shares_match_table(self):
        """Offered-traffic share of each class equals the table 3-2 row."""
        pattern = bind(SkewedTraffic(3))
        weights = pattern.source_weights()
        share = Counter()
        for core, w in enumerate(weights):
            share[pattern.class_of_cluster(pattern.cluster_of(core))] += w
        assert share[3] == pytest.approx(0.90)
        assert share[2] == pytest.approx(0.05)
        assert share[1] == pytest.approx(0.025)
        assert share[0] == pytest.approx(0.025)

    def test_demand_follows_source_class(self):
        pattern = bind(SkewedTraffic(2))
        for src in range(16):
            cls = pattern.class_of_cluster(src)
            expected = BW_SET_1.class_wavelengths(cls)
            for dst in range(16):
                if dst != src:
                    assert pattern.demand_wavelengths(src, dst) == expected

    def test_destination_outside_cluster(self):
        pattern = bind(SkewedTraffic(1))
        rng = random.Random(2)
        for _ in range(200):
            dst = pattern.pick_destination(0, rng)
            assert pattern.cluster_of(dst) != 0

    def test_placement_seed_determinism(self):
        a = bind(SkewedTraffic(3), seed=11)
        b = bind(SkewedTraffic(3), seed=11)
        assert [a.class_of_cluster(c) for c in range(16)] == [
            b.class_of_cluster(c) for c in range(16)
        ]

    def test_invalid_level(self):
        with pytest.raises(PatternError):
            SkewedTraffic(4)

    @settings(max_examples=20)
    @given(st.integers(1, 3), st.integers(0, 2**16))
    def test_weights_always_normalised(self, level, seed):
        pattern = bind(SkewedTraffic(level), seed=seed)
        assert sum(pattern.source_weights()) == pytest.approx(1.0)


class TestHotspot:
    def test_variant_definitions(self):
        """Section 3.4.2: variants pair {10%, 20%} with skewed {2, 3}."""
        assert HotspotSkewedTraffic.VARIANTS[1] == (0.10, 2)
        assert HotspotSkewedTraffic.VARIANTS[2] == (0.10, 3)
        assert HotspotSkewedTraffic.VARIANTS[3] == (0.20, 2)
        assert HotspotSkewedTraffic.VARIANTS[4] == (0.20, 3)

    def test_hotspot_receives_extra_traffic(self):
        pattern = bind(HotspotSkewedTraffic(3))  # 20% hotspot
        rng = random.Random(3)
        hits = sum(
            1 for _ in range(4000) if pattern.pick_destination(20, rng) == 0
        )
        # Expect ~20% plus the uniform share; far above uniform-only.
        assert hits / 4000 > 0.15

    def test_hotspot_cluster_does_not_self_target(self):
        pattern = bind(HotspotSkewedTraffic(1, hotspot_core=0))
        rng = random.Random(4)
        for src in (0, 1, 2, 3):  # cores of the hotspot's own cluster
            for _ in range(100):
                assert pattern.cluster_of(pattern.pick_destination(src, rng)) != 0

    def test_invalid_variant(self):
        with pytest.raises(PatternError):
            HotspotSkewedTraffic(5)


class TestRealApplication:
    def test_placement_matches_thesis(self):
        pattern = bind(RealApplicationTraffic())
        apps = Counter(pattern.cluster_app.get(c) for c in range(12))
        assert apps == {"MUM": 5, "BFS": 1, "CP": 1, "RAY": 1, "LPS": 4}
        assert pattern.memory_clusters == [12, 13, 14, 15]

    def test_gpu_sends_to_memory(self):
        pattern = bind(RealApplicationTraffic())
        rng = random.Random(5)
        for _ in range(200):
            dst = pattern.pick_destination(0, rng)  # a MUM core
            assert pattern.cluster_of(dst) in pattern.memory_clusters

    def test_memory_sends_to_gpus(self):
        pattern = bind(RealApplicationTraffic())
        rng = random.Random(6)
        src = 12 * 4  # first memory core
        for _ in range(200):
            dst = pattern.pick_destination(src, rng)
            assert pattern.cluster_of(dst) not in pattern.memory_clusters

    def test_memory_demand_follows_destination_app(self):
        """Memory write channels demand what the consuming app needs --
        the mechanism behind fig. 3-5's memory-bandwidth story."""
        pattern = bind(RealApplicationTraffic())
        mem = 12
        mum_cluster = 0  # class 3
        ray_cluster = 7  # class 0
        assert pattern.demand_wavelengths(mem, mum_cluster) == 8
        assert pattern.demand_wavelengths(mem, ray_cluster) == 1

    def test_weights_sum_to_one(self):
        pattern = bind(RealApplicationTraffic())
        assert sum(pattern.source_weights()) == pytest.approx(1.0)

    def test_memory_carries_reply_share(self):
        pattern = bind(RealApplicationTraffic(request_share=0.35))
        weights = pattern.source_weights()
        memory_weight = sum(weights[12 * 4:])
        assert memory_weight == pytest.approx(0.65)


class TestClassicPatterns:
    def test_transpose_permutation(self):
        pattern = bind(TransposeTraffic())
        rng = random.Random(7)
        assert pattern.pick_destination(1, rng) == 8  # (0,1) -> (1,0)

    def test_bit_complement(self):
        pattern = bind(BitComplementTraffic())
        rng = random.Random(8)
        assert pattern.pick_destination(0, rng) == 63

    def test_transpose_diagonal_redirects(self):
        pattern = bind(TransposeTraffic())
        rng = random.Random(9)
        assert pattern.pick_destination(0, rng) != 0


class TestFactory:
    @pytest.mark.parametrize(
        "name",
        ["uniform", "skewed1", "skewed2", "skewed3", "skewed_hotspot1",
         "skewed_hotspot4", "real_app", "transpose", "bit_complement"],
    )
    def test_known_names(self, name):
        assert pattern_by_name(name).name == name

    def test_unknown_name(self):
        with pytest.raises(PatternError):
            pattern_by_name("nonsense")

    def test_bind_other_bw_set(self):
        pattern = bind(SkewedTraffic(3), bw_set=BW_SET_2)
        cls = pattern.class_of_cluster(0)
        assert pattern.demand_wavelengths(0, 1) == BW_SET_2.class_wavelengths(cls)
