"""A/B comparisons on identical injection streams via trace replay.

The load sweeps compare architectures under statistically identical but
not bit-identical traffic (each run draws its own Bernoulli stream).
These tests remove even that noise: record one injection trace, replay it
bit-identically into both architectures, and compare.
"""


import pytest

from repro.experiments.runner import Fidelity, wire_run
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import TraceReplayGenerator, TrafficTrace

CYCLES = 1500
SEED = 23
FIDELITY = Fidelity("trace-replay-ab", CYCLES, 0, (0.5,))


def record_trace(pattern_name: str, offered: float) -> TrafficTrace:
    """Record the injection stream of an unconstrained generator.

    Wired by hand: the stream is recorded with no architecture behind
    it (every packet accepted), which is not a run ``wire_run`` builds.
    """
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


def replay_into(arch_name: str, pattern_name: str, trace: TrafficTrace):
    """The runner's own wiring with *trace* as the traffic source, as
    ``trace replay`` attaches it."""
    run = wire_run(arch_name, BW_SET_1, pattern_name, FIDELITY, seed=SEED)
    run.attach(TraceReplayGenerator(trace, BW_SET_1, run.arch.submit))
    run.sim.run(CYCLES)
    return run.arch


class TestTraceReplayAB:
    def test_identical_offered_stream(self):
        """Both architectures see exactly the same offered packets."""
        trace = record_trace("skewed3", offered=400.0)
        firefly = replay_into("firefly", "skewed3", trace)
        dhet = replay_into("dhetpnoc", "skewed3", trace)
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
        firefly = replay_into("firefly", "skewed3", trace)
        dhet = replay_into("dhetpnoc", "skewed3", trace)
        assert dhet.metrics.bits_delivered > firefly.metrics.bits_delivered
        assert dhet.metrics.latency.mean < firefly.metrics.latency.mean

    def test_uniform_tie_on_identical_stream(self):
        trace = record_trace("uniform", offered=300.0)
        firefly = replay_into("firefly", "uniform", trace)
        dhet = replay_into("dhetpnoc", "uniform", trace)
        assert dhet.metrics.bits_delivered == pytest.approx(
            firefly.metrics.bits_delivered, rel=0.01
        )

    def test_replay_is_deterministic(self):
        trace = record_trace("skewed2", offered=350.0)
        runs = [
            replay_into("dhetpnoc", "skewed2", trace).metrics.bits_delivered
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_trace_roundtrip_through_disk(self, tmp_path):
        trace = record_trace("skewed2", offered=300.0)
        path = tmp_path / "ab.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        direct = replay_into("firefly", "skewed2", trace)
        from_disk = replay_into("firefly", "skewed2", loaded)
        assert direct.metrics.bits_delivered == from_disk.metrics.bits_delivered
