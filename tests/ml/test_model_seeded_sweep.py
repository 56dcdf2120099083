"""Model-seeded adaptive sweeps: same knee, no extra simulations.

The acceptance contract the CI ml lane also checks end to end: seeding
the knee bisection from a fitted predictor must converge to the exact
same ``KneeEstimate`` the analytic seed finds (the seed only moves the
search's starting point, never its answer), and a model trained on the
very curve being searched must not cost *more* simulations.
"""

import pytest

pytest.importorskip("numpy")

from repro.experiments.costing import adaptive_curve_estimates
from repro.experiments.knee import adaptive_knee_sweep
from repro.experiments.store import ResultStore
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor
from repro.ml.dataset import export_dataset
from repro.ml.model import fit_model, predictors

from support import TINY

RESOLUTION = 0.1
GRID = tuple(round(RESOLUTION * i, 9) for i in range(1, 11))


@pytest.fixture(scope="module")
def trained():
    """(dataset, knn model) fitted on a dense grid of the test curve."""
    store = ResultStore()
    executor = SweepExecutor(store=store)
    executor.run(ExperimentSpec(
        archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
        seeds=(1,), fidelity=TINY, load_fractions=GRID,
        derive_seeds=False,
    ))
    dataset = export_dataset(store)
    model = predictors.get("knn")(dataset, seed=0, k=1)
    return dataset, model


def _search(model=None):
    return adaptive_knee_sweep(
        "dhetpnoc", 1, "skewed3", TINY,
        SweepExecutor(store=ResultStore()), seed=1,
        resolution=RESOLUTION, max_fraction=1.0, model=model,
    )


class TestEquivalence:
    def test_model_seed_finds_the_same_knee(self, trained):
        _, model = trained
        analytic = _search()
        seeded = _search(model)
        assert seeded.knee_fraction == analytic.knee_fraction
        assert seeded.knee_gbps == analytic.knee_gbps
        assert seeded.saturated == analytic.saturated
        assert seeded.peak.offered_gbps == analytic.peak.offered_gbps
        assert seeded.model_knee_gbps is not None
        assert analytic.model_knee_gbps is None

    def test_model_seed_needs_no_extra_simulations(self, trained):
        _, model = trained
        assert _search(model).n_simulated <= _search().n_simulated

    def test_ridge_seed_also_converges(self, trained):
        # A linear model cannot represent the plateau, so its seed may
        # be poor — the search must still localise the identical knee.
        dataset, _ = trained
        ridge = fit_model(dataset, kind="ridge", seed=0)
        analytic = _search()
        seeded = _search(ridge)
        assert seeded.knee_fraction == analytic.knee_fraction
        assert seeded.knee_gbps == analytic.knee_gbps

    def test_no_model_path_is_unchanged(self):
        # model=None must be bit-identical to the pre-model behaviour:
        # same knee from the same analytic seed, no model estimate.
        est = _search()
        assert est.model_knee_gbps is None
        assert est.analytic_knee_gbps is not None


class TestCosting:
    def test_model_estimate_never_exceeds_the_grid_fallback(self, trained):
        from repro.api.spec import ExperimentSpec

        _, model = trained
        spec = ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
            seeds=(1,), fidelity=TINY, mode="adaptive",
            resolution=RESOLUTION,
        )
        with_model = sum(adaptive_curve_estimates(spec, model))
        without = sum(adaptive_curve_estimates(spec, None))
        assert 1 <= with_model <= without
