"""The runner's assembly seam: ``wire_run`` then a traffic source.

``runner._run_once`` is ``wire_run`` -> ``attach_traffic`` ->
``simulate``; ``trace record`` taps ``arch.submit`` *between* the first
two and ``trace replay`` attaches a ``TraceReplayGenerator`` instead of
the second. These tests pin that both are the run everyone else runs,
not a second copy of the wiring.
"""

import pytest

from repro.api.session import Session
from repro.arch.config import SystemConfig
from repro.arch.registry import architectures
from repro.experiments.cli import main
from repro.experiments.runner import Fidelity, attach_traffic, wire_run
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1
from repro.traffic.patterns import pattern_by_name
from repro.traffic.trace import TraceReplayGenerator, TrafficTrace

TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))
SEED = 3


def record(arch, pattern, offered, scenario):
    """What ``trace record`` does: the tap goes around ``submit``
    before any source captures it."""
    run = wire_run(arch, BW_SET_1, pattern, TINY, SEED, scenario=scenario)
    trace = TrafficTrace()
    run.arch.submit = TrafficTrace.recording_submit(trace, run.arch.submit)
    attach_traffic(run, offered, TINY)
    run.simulate(TINY.total_cycles, TINY.reset_cycles)
    return run, trace


class TestRecordingIsATapNotASecondRun:
    @pytest.mark.parametrize("arch, pattern, scenario", [
        ("dhetpnoc", "skewed3", None),
        ("firefly", "uniform", "bursty_uniform"),
        ("dhetpnoc", "skewed2", "closed_loop_shedding"),
    ])
    def test_recorded_run_equals_run_one_bitwise(self, arch, pattern, scenario):
        offered = 0.8 * BW_SET_1.aggregate_gbps
        expected = Session().run_one(
            arch, BW_SET_1, pattern, offered,
            fidelity=TINY, seed=SEED, scenario=scenario,
        )
        run, trace = record(arch, pattern, offered, scenario)
        metrics = run.arch.metrics
        assert len(trace) > 0
        assert metrics.delivered_gbps(run.config.clock_hz) == expected.delivered_gbps
        assert metrics.latency.mean == expected.mean_latency_cycles
        assert metrics.packets_delivered == expected.packets_delivered
        assert run.source.acceptance_ratio == expected.acceptance_ratio

    def test_wire_run_attaches_no_source(self):
        run = wire_run("firefly", BW_SET_1, "uniform", TINY, SEED)
        assert run.source is None and run.schedule is None
        scripted = wire_run(
            "firefly", BW_SET_1, "uniform", TINY, SEED, scenario="steady"
        )
        assert scripted.schedule.name == "steady"


class TestReplayVerb:
    def test_row_equals_a_hand_wired_replay(self, tmp_path, capsys):
        _run, trace = record("dhetpnoc", "skewed3", 500.0, None)
        path = tmp_path / "trace.jsonl"
        trace.save(path)

        assert main(["trace", "replay", str(path), "--arch", "firefly",
                     "--seed", str(SEED)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]

        # The wiring, by hand, from the public pieces.
        config = SystemConfig(bw_set=BW_SET_1)
        sim = Simulator(clock_hz=config.clock_hz, seed=SEED)
        pattern = pattern_by_name("uniform").bind(
            BW_SET_1, config.n_clusters, config.cores_per_cluster,
            RandomStreams(SEED).get("placement"),
        )
        arch = architectures.get("firefly")(sim, config, pattern)
        generator = TraceReplayGenerator(
            TrafficTrace.load(path), BW_SET_1, arch.submit
        )
        arch.attach_generator(generator)
        sim.run_with_reset(1500, 200)  # the quick fidelity outspans the trace
        arch.finalize()
        metrics = arch.metrics
        assert [cell.strip() for cell in row.split("|")] == [
            "firefly",
            f"{metrics.delivered_gbps(config.clock_hz):.1f}",
            f"{metrics.latency.mean:.1f}",
            f"{generator.acceptance_ratio:.3f}",
            str(metrics.packets_delivered),
        ]
        assert metrics.packets_delivered > 0
