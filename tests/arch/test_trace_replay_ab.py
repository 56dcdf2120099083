"""A/B comparisons on identical injection streams via trace replay.

The load sweeps compare architectures under statistically identical but
not bit-identical traffic (each run draws its own Bernoulli stream).
These tests remove even that noise: record one injection trace, replay it
bit-identically into both architectures, and compare.
"""


import pytest

from repro.arch.config import SystemConfig
from repro.arch.dhetpnoc import DHetPNoC
from repro.arch.firefly import FireflyNoC
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import TraceReplayGenerator, TrafficTrace

CYCLES = 1500
SEED = 23


def record_trace(pattern_name: str, offered: float) -> TrafficTrace:
    """Record the injection stream of an unconstrained generator."""
    streams = RandomStreams(SEED)
    pattern = pattern_by_name(pattern_name).bind(
        BW_SET_1, 16, 4, streams.get("placement")
    )
    trace = TrafficTrace()
    submit = TrafficTrace.recording_submit(trace, lambda p: True)
    generator = TrafficGenerator.for_offered_gbps(
        pattern, offered, streams.get("traffic"), submit
    )
    for cycle in range(CYCLES):
        generator.tick(cycle)
    return trace


def replay_into(arch_cls, pattern_name: str, trace: TrafficTrace):
    streams = RandomStreams(SEED)
    config = SystemConfig(bw_set=BW_SET_1)
    sim = Simulator(seed=SEED)
    pattern = pattern_by_name(pattern_name).bind(
        BW_SET_1, 16, 4, streams.get("placement")
    )
    if arch_cls is DHetPNoC:
        noc = arch_cls(sim, config, pattern=pattern)
    else:
        noc = arch_cls(sim, config)
    noc.add_tick_hook(TraceReplayGenerator(trace, BW_SET_1, noc.submit).tick)
    sim.run(CYCLES)
    return noc


class TestTraceReplayAB:
    def test_identical_offered_stream(self):
        """Both architectures see exactly the same offered packets."""
        trace = record_trace("skewed3", offered=400.0)
        firefly = replay_into(FireflyNoC, "skewed3", trace)
        dhet = replay_into(DHetPNoC, "skewed3", trace)
        offered = len(trace)
        assert (
            firefly.metrics.packets_accepted + firefly.metrics.packets_refused
            == offered
        )
        assert (
            dhet.metrics.packets_accepted + dhet.metrics.packets_refused
            == offered
        )

    def test_dhet_beats_firefly_on_identical_stream(self):
        """The skewed-traffic win holds with generator noise removed."""
        trace = record_trace("skewed3", offered=450.0)
        firefly = replay_into(FireflyNoC, "skewed3", trace)
        dhet = replay_into(DHetPNoC, "skewed3", trace)
        assert dhet.metrics.bits_delivered > firefly.metrics.bits_delivered
        assert dhet.metrics.latency.mean < firefly.metrics.latency.mean

    def test_uniform_tie_on_identical_stream(self):
        trace = record_trace("uniform", offered=300.0)
        firefly = replay_into(FireflyNoC, "uniform", trace)
        dhet = replay_into(DHetPNoC, "uniform", trace)
        assert dhet.metrics.bits_delivered == pytest.approx(
            firefly.metrics.bits_delivered, rel=0.01
        )

    def test_replay_is_deterministic(self):
        trace = record_trace("skewed2", offered=350.0)
        runs = [
            replay_into(DHetPNoC, "skewed2", trace).metrics.bits_delivered
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_trace_roundtrip_through_disk(self, tmp_path):
        trace = record_trace("skewed2", offered=300.0)
        path = tmp_path / "ab.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        direct = replay_into(FireflyNoC, "skewed2", trace)
        from_disk = replay_into(FireflyNoC, "skewed2", loaded)
        assert direct.metrics.bits_delivered == from_disk.metrics.bits_delivered
