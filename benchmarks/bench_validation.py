"""Headline-claim validation as a benchmark: the whole reproduction in
one pass/fail table (also available as ``dhetpnoc-repro validate``)."""

from benchmarks.conftest import SEED, emit
from repro.experiments.validation import render_validation, validate_all


def test_headline_claims(benchmark, fidelity, results_dir, session):
    results = benchmark.pedantic(
        lambda: validate_all(fidelity, SEED, session=session),
        rounds=1, iterations=1,
    )
    emit(results_dir, "headline-claims", render_validation(results))
    failing = [r.claim for r in results if not r.passed]
    assert not failing, f"claims not reproduced: {failing}"
