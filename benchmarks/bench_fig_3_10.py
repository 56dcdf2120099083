"""Benchmark regenerating figure 3-10: Firefly scaling across BW sets.

Same scaling study as figure 3-7 but for the baseline; the thesis's
comparison point is that "the absolute values of peak bandwidth are lower
and energy per message are higher than that of d-HetPNoC" at every
wavelength count for skewed patterns.
"""

from benchmarks.conftest import SEED, emit
from repro.experiments.figures import figure_3_10, figure_3_7


def test_figure_3_10(benchmark, fidelity, results_dir, session):
    result = benchmark.pedantic(
        lambda: figure_3_10(fidelity=fidelity, seed=SEED, session=session), rounds=1, iterations=1
    )
    emit(results_dir, "figure-3-10", result.render())

    # Cross-check against the (cached) d-HetPNoC data of figure 3-7.
    dhet = figure_3_7(fidelity=fidelity, seed=SEED, session=session)
    for ff_row, dhet_row in zip(result.rows, dhet.rows):
        assert ff_row[0] == dhet_row[0] and ff_row[1] == dhet_row[1]
        if ff_row[1] == "skewed3":
            assert dhet_row[3] > ff_row[3], (
                f"d-HetPNoC should out-deliver Firefly at {ff_row[0]}"
            )
