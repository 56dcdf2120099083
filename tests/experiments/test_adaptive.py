"""Tests for the adaptive knee-seeking sweep mode.

The contract: the bisection search must land on the same knee a dense
fixed grid would find (within one resolution step), spend measurably
fewer simulations doing it, and cost zero simulations on resume — the
same guarantees the grid sweeps give, at a fraction of the simulation
budget. That it is bitwise identical on every lane is the ``knee`` row
of ``test_lane_matrix.py``.
"""

import pytest

from repro.api import ExperimentSpec, Session
from repro.arch.config import SystemConfig
from repro.experiments.costing import adaptive_probe_count
from repro.experiments.knee import (
    adaptive_knee_sweep,
    analytic_knee_gbps,
    knee_search,
)
from repro.experiments.runner import QUICK_FIDELITY
from repro.experiments.store import ResultStore
from repro.experiments.sweep import SweepExecutor
from repro.traffic.bandwidth_sets import BW_SET_1

from support import TINY

RESOLUTION = 0.1
MAX_FRACTION = 1.0
GRID = tuple(round(RESOLUTION * i, 9) for i in range(1, 11))  # 0.1 .. 1.0


def _grid_knee(results, margin=0.10):
    """Reference implementation: leftmost grid point at the plateau."""
    plateau = results[-1].delivered_gbps
    threshold = (1 - margin) * plateau
    for r in results:
        if r.delivered_gbps >= threshold:
            return r.offered_gbps / BW_SET_1.aggregate_gbps
    return results[-1].offered_gbps / BW_SET_1.aggregate_gbps


def _adaptive(executor, arch="dhetpnoc", **kwargs):
    return adaptive_knee_sweep(
        arch, 1, "skewed3", TINY, executor, seed=1,
        resolution=RESOLUTION, max_fraction=MAX_FRACTION,
        **kwargs,
    )


class TestAnalyticSeed:
    def test_analytic_knee_positive_and_ordered_under_skew(self):
        ff = analytic_knee_gbps("firefly", 1, "skewed3")
        dh = analytic_knee_gbps("dhetpnoc", 1, "skewed3")
        assert ff > 0 and dh > 0
        assert dh > 1.5 * ff  # the thesis's structural advantage

    def test_uniform_knees_tie(self):
        ff = analytic_knee_gbps("firefly", 1, "uniform")
        dh = analytic_knee_gbps("dhetpnoc", 1, "uniform")
        assert dh == pytest.approx(ff, rel=0.01)

    def test_search_is_seeded_from_the_sessions_config(self):
        """The fluid model must see the config the points simulate
        under: two reserved wavelengths per cluster move d-HetPNoC's
        skewed1 knee from 396 to 742 Gb/s, and the estimate (what the
        ``saturation_knees`` exhibit and the CLI's "analytic knee"
        column print) has to report the latter."""
        config = SystemConfig(bw_set=BW_SET_1, reserved_wavelengths_per_cluster=2)
        default = analytic_knee_gbps("dhetpnoc", 1, "skewed1")
        reserved = analytic_knee_gbps("dhetpnoc", 1, "skewed1", config=config)
        assert default == pytest.approx(396.1, abs=0.1)
        assert reserved == pytest.approx(742.0, abs=0.1)
        with Session(config=config) as session:
            est = session.knee("dhetpnoc", 1, "skewed1", TINY, resolution=0.25)
        assert est.analytic_knee_gbps == reserved


class TestAdaptiveVsGrid:
    def test_knee_matches_grid_within_one_step_with_fewer_sims(self):
        # Dense fixed grid: every multiple of RESOLUTION up to 1.0.
        grid_exec = SweepExecutor(store=ResultStore())
        spec = ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
            seeds=(1,), fidelity=TINY, load_fractions=GRID,
            derive_seeds=False,
        )
        grid_results = grid_exec.run(spec)
        grid_sims = grid_exec.executed_count
        assert grid_sims == len(GRID)

        est = _adaptive(SweepExecutor(store=ResultStore()))
        # Same knee within one resolution step of the reference scan.
        assert est.knee_fraction == pytest.approx(
            _grid_knee(grid_results), abs=RESOLUTION + 1e-9
        )
        # Measurably fewer simulations than the dense grid.
        assert est.n_simulated < grid_sims
        assert est.n_simulated == est.n_evaluated <= 6

    def test_adaptive_points_share_grid_store_keys(self):
        """A grid sweep warms the store for the adaptive search: every
        adaptive probe lands on a grid fraction, so resume is free."""
        store = ResultStore()
        SweepExecutor(store=store).run(
            ExperimentSpec(
                archs=("dhetpnoc",), bw_sets=(1,),
                patterns=("skewed3",), seeds=(1,), fidelity=TINY,
                load_fractions=GRID, derive_seeds=False,
            )
        )
        est = _adaptive(SweepExecutor(store=store))
        assert est.n_simulated == 0

    def test_peak_within_one_step_of_grid_peak(self):
        grid_exec = SweepExecutor(store=ResultStore())
        spec = ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
            seeds=(1,), fidelity=TINY, load_fractions=GRID,
            derive_seeds=False,
        )
        grid_peak = max(grid_exec.run(spec), key=lambda r: r.delivered_gbps)
        est = _adaptive(SweepExecutor(store=ResultStore()))
        step_gbps = RESOLUTION * BW_SET_1.aggregate_gbps
        assert abs(est.peak.offered_gbps - grid_peak.offered_gbps) <= (
            step_gbps + 1e-9
        )


class TestDeterminism:
    def test_resume_simulates_nothing(self, tmp_path):
        import dataclasses

        path = str(tmp_path / "store.jsonl")
        first = _adaptive(SweepExecutor(store=ResultStore(path)))
        assert first.n_simulated > 0
        again = _adaptive(SweepExecutor(store=ResultStore(path)))
        assert again.n_simulated == 0
        # Identical estimate apart from the simulation count itself.
        assert again == dataclasses.replace(first, n_simulated=0)

    def test_derive_seeds_mode_changes_points_deterministically(self):
        a = _adaptive(SweepExecutor(), derive_seeds=True)
        b = _adaptive(SweepExecutor(), derive_seeds=True)
        assert a == b
        assert all(r.offered_gbps > 0 for r in a.results)


class TestEstimateShape:
    def test_results_sorted_and_peak_consistent(self):
        est = _adaptive(SweepExecutor())
        offered = [r.offered_gbps for r in est.results]
        assert offered == sorted(offered)
        assert est.peak in est.results
        assert est.peak.delivered_gbps == max(
            r.delivered_gbps for r in est.results
        )
        assert est.knee_gbps == pytest.approx(
            est.knee_fraction * BW_SET_1.aggregate_gbps
        )

    def test_probes_never_exceed_max_fraction(self):
        est = adaptive_knee_sweep(
            "dhetpnoc", 1, "skewed3", TINY, SweepExecutor(), seed=1,
            resolution=0.1, max_fraction=0.55,
        )
        cap = 0.55 * BW_SET_1.aggregate_gbps
        assert all(r.offered_gbps <= cap + 1e-9 for r in est.results)
        # The grid floor keeps the top probe at 0.5, not 0.6.
        assert max(r.offered_gbps for r in est.results) == pytest.approx(
            0.5 * BW_SET_1.aggregate_gbps
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            _adaptive(SweepExecutor(), plateau_margin=0.0)
        with pytest.raises(ValueError):
            adaptive_knee_sweep(
                "dhetpnoc", 1, "skewed3", TINY, SweepExecutor(),
                resolution=0.0,
            )


class TestQuickFidelityGoldenAcceptance:
    """Acceptance criterion, verbatim: adaptive localizes the
    quick-fidelity golden knee to within one grid step of the
    fixed-grid result, with fewer simulations, bitwise identical
    serial vs parallel (the last clause is ``test_lane_matrix.py``'s
    ``knee`` row)."""

    def test_adaptive_peak_near_golden_grid_peak(self):
        curve = dict(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
            seeds=(1,), fidelity=QUICK_FIDELITY, derive_seeds=False,
        )
        (grid_peak,) = Session().peaks(ExperimentSpec(**curve)).values()
        (adaptive_peak,) = Session().peaks(
            ExperimentSpec(**curve, mode="adaptive", resolution=0.1)
        ).values()
        # One quick-grid step: the grid's largest fraction gap.
        fractions = sorted(QUICK_FIDELITY.load_fractions)
        step = max(
            b - a for a, b in zip(fractions, fractions[1:])
        ) * BW_SET_1.aggregate_gbps
        assert abs(
            adaptive_peak.offered_gbps - grid_peak.offered_gbps
        ) <= step + 1e-9
        assert adaptive_peak.delivered_gbps == pytest.approx(
            grid_peak.delivered_gbps, rel=0.05
        )

    def test_fewer_simulations_than_equivalent_grid(self):
        est = adaptive_knee_sweep(
            "dhetpnoc", 1, "skewed3", QUICK_FIDELITY,
            SweepExecutor(store=ResultStore()), seed=1, resolution=0.05,
        )
        equivalent_grid = round(
            max(QUICK_FIDELITY.load_fractions) / 0.05
        )
        assert est.n_simulated < equivalent_grid / 2


#: ``adaptive_probe_count(n, start, knee, model_seeded)`` as the commit
#: before the policy was extracted computed it, one digit per
#: combination: n = 1..6, start and knee = 0..n+1 (the clamps
#: included), analytic then model-seeded.
PARENT_PROBE_COUNTS = (
    "1111111111111111112222222222222222222222222222222222223333332222"
    "3333333333332222333333222233333322222222334444442222334444443333"
    "3333333334344443222234344443222234344443222222224444444444222244"
    "4444444433333333444444343444433333334545454443222245454544432222"
    "4545454443222222224444445555552222444444555555333333444444444434"
    "3444433344444445454544433333334545454555532222454545455553222245"
    "45454555532222"
)


class TestOneKneeSearchPolicy:
    def test_probe_counts_equal_the_parents_exhaustively(self):
        counts = "".join(
            str(adaptive_probe_count(n, start, knee, seeded))
            for n in range(1, 7)
            for start in range(n + 2)
            for knee in range(n + 2)
            for seeded in (False, True)
        )
        assert counts == PARENT_PROBE_COUNTS

    @pytest.mark.parametrize("seeded", [False, True])
    def test_search_finds_every_knee_on_a_monotone_curve(self, seeded):
        for n in range(1, 25):
            for start in range(n + 2):
                for knee in range(1, n + 1):
                    found = knee_search(n, start, seeded, lambda i: i >= knee)
                    assert found == knee
