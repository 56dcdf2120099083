"""Dataset export goldens: schema, determinism, round-trip.

The export contract is byte-level: the same store contents must produce
the identical dataset regardless of insertion order or backend, because
the dataset digest is the provenance identity fitted models embed.
"""

import pytest

from repro.experiments.runner import RunResult
from repro.experiments.store import ResultStore
from repro.api.spec import ExperimentSpec
from repro.experiments.sweep import SweepExecutor
from repro.ml.dataset import (
    DATASET_VERSION,
    FEATURES,
    TARGETS,
    Dataset,
    export_dataset,
)
from repro.scenarios.coverage import DIMENSIONS
from repro.traffic.bandwidth_sets import BW_SET_1

from support import TINY


def make_result(arch="dhetpnoc", offered=400.0, delivered=380.0):
    return RunResult(
        arch=arch, pattern="uniform", bw_set_index=1,
        offered_gbps=offered, delivered_gbps=delivered,
        photonic_gbps=delivered, per_core_gbps=delivered / 64,
        energy_per_message_pj=4000.0, mean_latency_cycles=40.0,
        acceptance_ratio=0.99, packets_delivered=100,
        reservations_nacked=3, laser_power_mw=10.0, lit_wavelengths=8,
    )


class TestSchema:
    def test_feature_and_target_columns_are_pinned(self):
        # The schema is a compatibility contract with fitted models:
        # changing it must be a deliberate, visible edit here.
        assert FEATURES == (
            "arch", "bw_set_index", "pattern", "scenario",
            "load_fraction", "offered_gbps",
        ) + DIMENSIONS
        assert TARGETS == (
            "delivered_gbps", "mean_latency_cycles",
            "energy_per_message_pj", "acceptance_ratio",
        )

    def test_row_values_golden(self):
        store = ResultStore()
        store.put("k1", make_result(offered=400.0, delivered=380.0))
        dataset = export_dataset(store)
        assert len(dataset) == 1
        assert dataset.version == DATASET_VERSION
        row = dataset.rows[0]
        assert set(row) == set(FEATURES) | set(TARGETS)
        assert row["arch"] == "dhetpnoc"
        assert row["scenario"] == ""
        assert row["load_fraction"] == pytest.approx(
            400.0 / BW_SET_1.aggregate_gbps
        )
        assert row["delivered_gbps"] == 380.0
        # Stationary runs have flat coverage dimensions.
        assert all(row[d] == 0.0 for d in DIMENSIONS)


class TestDeterminism:
    def test_export_twice_is_byte_identical(self):
        store = ResultStore()
        store.put("a", make_result(arch="firefly"))
        store.put("b", make_result(arch="dhetpnoc"))
        assert export_dataset(store).to_json() == export_dataset(store).to_json()

    def test_export_is_insertion_order_independent(self):
        first, second = ResultStore(), ResultStore()
        first.put("a", make_result(arch="firefly"))
        first.put("b", make_result(arch="dhetpnoc"))
        second.put("b", make_result(arch="dhetpnoc"))
        second.put("a", make_result(arch="firefly"))
        assert export_dataset(first).to_json() == export_dataset(second).to_json()
        assert export_dataset(first).digest() == export_dataset(second).digest()


class TestRoundTrip:
    def test_json_round_trip_preserves_digest(self):
        store = ResultStore()
        store.put("a", make_result())
        dataset = export_dataset(store)
        clone = Dataset.from_json(dataset.to_json())
        assert clone.digest() == dataset.digest()
        assert clone.rows == dataset.rows

    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore()
        store.put("a", make_result())
        dataset = export_dataset(store)
        path = str(tmp_path / "dataset.json")
        dataset.save(path)
        assert Dataset.load(path).digest() == dataset.digest()

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset fields"):
            Dataset.from_dict({"rows": [], "bogus": 1})


class TestScenarioRows:
    def test_scenario_runs_carry_coverage_dimensions(self):
        store = ResultStore()
        SweepExecutor(store=store).run(ExperimentSpec(
            archs=("dhetpnoc",), bw_sets=(1,), patterns=("uniform",),
            seeds=(1,), fidelity=TINY, load_fractions=(0.4,),
            scenarios=("bursty_uniform",), derive_seeds=False,
        ))
        dataset = export_dataset(store)
        assert len(dataset) == 1
        row = dataset.rows[0]
        assert row["scenario"] == "bursty_uniform"
        # The MMPP scenario scores on the burstiness dimension.
        assert row["burstiness"] > 0.0
