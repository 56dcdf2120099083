"""The record ``run --spec --dry-run`` prices from.

One format: a perf-ledger record, read for one number
(``photonic_busy``'s ``sim_cycles_per_s``). Anything else prices
nothing, and the committed record itself must keep pricing.
"""

import json
import math
import os

import pytest

from repro.experiments import costing
from repro.experiments.runner import QUICK_FIDELITY, Fidelity

FIDELITY = Fidelity("x", 1400, 100, (0.5,))


def ledger_record(value=14000.0) -> dict:
    return {"workloads": {"photonic_busy": {"metrics": {
        "sim_cycles_per_s": {"value": value, "unit": "cycles/s"}}}}}


@pytest.fixture
def records_dir(tmp_path, monkeypatch):
    """An empty ``benchmarks/ledger/records`` under a stand-in checkout."""
    monkeypatch.delenv(costing.BASELINE_ENV, raising=False)
    monkeypatch.setattr(
        costing, "__file__",
        str(tmp_path / "src" / "repro" / "experiments" / "costing.py"),
    )
    records = tmp_path / "benchmarks" / "ledger" / "records"
    records.mkdir(parents=True)
    return records


class TestPerPointSeconds:
    def test_a_ledger_record_prices_a_point(self):
        assert costing.per_point_seconds(FIDELITY, ledger_record()) == 0.1
        assert costing.describe_cost(
            8, FIDELITY, workers=4, baseline=ledger_record()
        ) == "estimated cost: ~0.2s wall (8 sims x ~0.10s each across 4 workers)"

    @pytest.mark.parametrize(
        "record",
        [
            {},
            {"benches": {"run_steady": {"seconds": 0.05}}},  # the old layout
            {"workloads": {"electrical_busy": {}}},
            {"workloads": {"photonic_busy": {"metrics": {"op_s": {"value": 1}}}}},
            {"workloads": ["photonic_busy"]},
            ledger_record(0.0),
            ledger_record(-7000.0),
            ledger_record(float("nan")),
            ledger_record("fast"),
            ledger_record(None),
        ],
        ids=["empty", "old-layout", "no-photonic_busy", "no-sim_cycles_per_s",
             "wrong-shape", "zero", "negative", "nan", "non-numeric", "null"],
    )
    def test_an_unusable_record_prices_nothing(self, record):
        assert costing.per_point_seconds(FIDELITY, record) is None
        assert costing.describe_cost(8, FIDELITY, baseline=record) is None


class TestRecordLookup:
    @pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"],
                             ids=["missing", "not-json", "not-an-object"])
    def test_an_unreadable_file_is_no_record(self, tmp_path, monkeypatch, text):
        path = tmp_path / "BENCH_1.json"
        if text is not None:
            path.write_text(text)
        assert costing.load_baseline(str(path)) is None
        monkeypatch.setenv(costing.BASELINE_ENV, str(path))
        assert costing.describe_cost(8, FIDELITY) is None

    def test_an_empty_records_directory_is_no_record(self, records_dir):
        assert costing.default_baseline_path() is None
        assert costing.load_baseline() is None
        assert costing.describe_cost(8, FIDELITY) is None

    def test_the_newest_record_is_the_highest_numbered(self, records_dir):
        for n, rate in ((9, 9000.0), (100, 14000.0), (11, 11000.0)):
            (records_dir / f"BENCH_{n}.json").write_text(
                json.dumps(ledger_record(rate))
            )
        (records_dir / "README.md").write_text("not a record")
        assert os.path.basename(costing.default_baseline_path()) == "BENCH_100.json"
        assert costing.per_point_seconds(FIDELITY, costing.load_baseline()) == 0.1

    def test_the_override_wins_over_the_checkout(self, records_dir, monkeypatch):
        (records_dir / "BENCH_11.json").write_text(json.dumps(ledger_record()))
        monkeypatch.setenv(costing.BASELINE_ENV, "elsewhere.json")
        assert costing.default_baseline_path() == "elsewhere.json"

    def test_the_committed_record_prices_a_point(self, monkeypatch):
        # A ledger schema change that would silence --dry-run fails here.
        monkeypatch.delenv(costing.BASELINE_ENV, raising=False)
        path = costing.default_baseline_path()
        assert os.path.basename(path).startswith("BENCH_")
        assert os.path.dirname(path).endswith(
            os.path.join("benchmarks", "ledger", "records")
        )
        seconds = costing.per_point_seconds(QUICK_FIDELITY, costing.load_baseline())
        assert seconds is not None and math.isfinite(seconds) and seconds > 0
        assert costing.describe_cost(8, QUICK_FIDELITY).startswith(
            "estimated cost: ~"
        )
