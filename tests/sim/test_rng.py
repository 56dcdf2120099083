"""Tests for seeded random-stream management."""

from repro.sim.rng import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "traffic") == derive_seed(1, "traffic")

    def test_name_sensitivity(self):
        assert derive_seed(1, "traffic") != derive_seed(1, "placement")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "traffic") != derive_seed(2, "traffic")

    def test_64_bit_range(self):
        seed = derive_seed(123456789, "x")
        assert 0 <= seed < 2**64


class TestRandomStreams:
    def test_same_name_same_stream(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(42).get("traffic")
        b = RandomStreams(42).get("traffic")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_independent(self):
        streams = RandomStreams(7)
        first = streams.get("a").random()
        # Consuming stream b must not perturb stream a's future draws.
        fresh = RandomStreams(7)
        fresh.get("b").random()
        fresh_first = fresh.get("a").random()
        assert first == fresh_first

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        assert streams.get("a").random() != streams.get("b").random()
