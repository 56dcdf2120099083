"""Determinism guarantees of the sweep orchestrator.

The orchestration layer must never change physics: the same
:class:`ExperimentSpec` must produce bitwise-identical :class:`RunResult`
lists whether points run serially, through a 2-worker pool, or through a
4-worker pool, and whether they are computed fresh or replayed from a
store. These tests are the contract every future parallelism change has
to keep.
"""

import pytest

import repro.experiments.sweep as sweep_mod
from repro.api import ExperimentSpec, Session
from repro.experiments.runner import Fidelity, QUICK_FIDELITY
from repro.experiments.store import ResultStore
from repro.experiments.sweep import SweepExecutor, derive_seed
from repro.traffic.bandwidth_sets import BW_SET_1

TINY = Fidelity("tiny", 700, 100, (0.3, 0.8))

SPEC = ExperimentSpec(
    archs=("firefly", "dhetpnoc"),
    bw_sets=(1,),
    patterns=("uniform", "skewed3"),
    seeds=(1,),
    fidelity=TINY,
)


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(1, "firefly", 1, "uniform") == derive_seed(
            1, "firefly", 1, "uniform"
        )

    def test_decorrelated_across_curves_and_bases(self):
        seeds = {
            derive_seed(base, arch, bw, pattern)
            for base in (1, 2)
            for arch in ("firefly", "dhetpnoc")
            for bw in (1, 2, 3)
            for pattern in ("uniform", "skewed3")
        }
        assert len(seeds) == 2 * 2 * 3 * 2  # no collisions

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(999, "dhetpnoc", 3, "real_app") < 2**63

    def test_points_of_one_curve_share_their_seed(self):
        points = SPEC.expand()
        by_curve = {}
        for p in points:
            by_curve.setdefault(p.curve, set()).add(p.seed)
        assert all(len(seeds) == 1 for seeds in by_curve.values())

    def test_fixed_mode_uses_base_seed_verbatim(self):
        spec = ExperimentSpec(
            archs=("firefly",), bw_sets=(1,), patterns=("uniform",),
            seeds=(7,), fidelity=TINY, derive_seeds=False,
        )
        assert all(p.seed == 7 for p in spec.expand())


class TestSpecExpansion:
    def test_point_count(self):
        assert len(SPEC.expand()) == SPEC.n_points() == 2 * 1 * 2 * 1 * 2

    def test_expansion_is_deterministic(self):
        assert SPEC.expand() == SPEC.expand()

    def test_offered_load_scales_with_capacity(self):
        point = SPEC.expand()[0]
        assert point.offered_gbps == pytest.approx(
            point.load_fraction * BW_SET_1.aggregate_gbps
        )

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(archs=())
        with pytest.raises(ValueError):
            ExperimentSpec(load_fractions=())

    def test_duplicate_axis_values_rejected(self):
        """A repeated seed (or any axis value) would double-count one
        simulation as two replicates; refuse it loudly."""
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(seeds=(1, 1), fidelity=TINY)
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(patterns=("uniform", "uniform"), fidelity=TINY)

    def test_duplicate_points_simulate_once(self):
        """Identical keys within one batch run a single simulation."""
        points = SPEC.expand()
        executor = SweepExecutor(workers=1)
        results = executor.run_points(points + points, SPEC.fidelity)
        assert executor.executed_count == len(points)
        assert results[: len(points)] == results[len(points):]


class TestSerialParallelIdentity:
    """Acceptance criterion: parallel results == serial results, bitwise."""

    def test_identical_across_worker_counts(self):
        serial = SweepExecutor(workers=1).run(SPEC)
        two = SweepExecutor(workers=2).run(SPEC)
        four = SweepExecutor(workers=4).run(SPEC)
        assert serial == two == four

    def test_parallel_matches_legacy_serial_sweep(self):
        spec = ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed2",),
            seeds=(9,), fidelity=TINY, derive_seeds=False,
        )
        parallel = SweepExecutor(workers=4).run(spec)
        curve = Session().curve("dhetpnoc", BW_SET_1, "skewed2", TINY, seed=9)
        assert parallel == curve

    def test_result_order_follows_spec_order(self):
        points = SPEC.expand()
        results = SweepExecutor(workers=2).run(SPEC)
        for point, result in zip(points, results):
            assert (result.arch, result.bw_set_index, result.pattern) == (
                point.arch, point.bw_set_index, point.pattern
            )
            assert result.offered_gbps == pytest.approx(point.offered_gbps)


class TestQuickFidelityAcceptance:
    """The PR's acceptance criterion, verbatim: a quick-fidelity
    multi-point sweep through ``SweepExecutor(workers=4)`` is identical
    to the serial path, and re-running against the same store executes
    zero new simulations."""

    SPEC = ExperimentSpec(
        archs=("dhetpnoc",),
        bw_sets=(1,),
        patterns=("skewed1",),
        seeds=(1,),
        fidelity=QUICK_FIDELITY,
    )

    def test_parallel_equals_serial_and_resume_is_free(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        parallel = SweepExecutor(workers=4, store=ResultStore(path))
        parallel_results = parallel.run(self.SPEC)
        assert parallel.executed_count == self.SPEC.n_points() > 1

        serial = SweepExecutor(workers=1)
        assert serial.run(self.SPEC) == parallel_results

        resumed = SweepExecutor(workers=4, store=ResultStore(path))
        assert resumed.run(self.SPEC) == parallel_results
        assert resumed.executed_count == 0


class TestResumeExecutesNothing:
    def test_second_run_simulates_zero_points(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        first = SweepExecutor(workers=4, store=ResultStore(path))
        results = first.run(SPEC)
        assert first.executed_count == SPEC.n_points()

        second = SweepExecutor(workers=1, store=ResultStore(path))
        replayed = second.run(SPEC)
        assert second.executed_count == 0
        assert replayed == results

    def test_cache_hit_never_calls_the_simulator(self, tmp_path, monkeypatch):
        path = str(tmp_path / "store.jsonl")
        SweepExecutor(workers=1, store=ResultStore(path)).run(SPEC)

        def explode(*_args, **_kwargs):
            raise AssertionError("cache hit must not re-simulate")

        monkeypatch.setattr(sweep_mod, "_run_once", explode)
        replay = SweepExecutor(workers=1, store=ResultStore(path)).run(SPEC)
        assert len(replay) == SPEC.n_points()


class TestReplication:
    def test_summary_shape_and_determinism(self):
        spec = ExperimentSpec(
            archs=("firefly",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1, 2, 3), fidelity=TINY,
        )
        with Session(workers=2) as pooled:
            a = pooled.replicated(spec)
        b = Session().replicated(spec)
        assert a == b
        (row,) = a
        assert row.seeds == (1, 2, 3)
        assert row.delivered_gbps.n == 3
        assert row.delivered_gbps.lo <= row.delivered_gbps.mean <= row.delivered_gbps.hi
        assert row.delivered_gbps.spread >= 0

    def test_distinct_seeds_give_distinct_scenarios(self):
        spec = ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
            seeds=(1, 2), fidelity=TINY,
        )
        peaks = Session().peaks(spec)
        (a, b) = peaks.values()
        assert a != b  # replicated scenarios actually vary
