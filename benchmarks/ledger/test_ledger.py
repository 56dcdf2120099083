"""Tier-1 checks of the perf ledger itself (smoke fidelity, no gating).

The ledger's numbers are only as good as its harness, so this suite
pins what a wrong harness would silently break: the output schema and
names, that every workload reports every end-to-end metric that applies
to it, that no op fails, that the seeded stores really resume without
simulating, and that the replicated single-point construction the
trace times is ``Session.run_one`` field for field.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from repro.api.session import Session
from repro.experiments.store import ResultStore

from benchmarks.ledger import catalog
from benchmarks.ledger.trace import Tracer, traced_run_one
from benchmarks.ledger.workloads import (
    WORKLOADS,
    _fidelity,
    _paper_spec,
    seed_store,
    simulate_donors,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: End-to-end metrics each workload must report (the throughput rows
#: apply only where the op simulates cycles / returns sweep points).
EVERYWHERE = {"setup_s", "op_s", "op_cpu_s", "peak_rss_mb", "failed_ratio"}
APPLICABLE = {
    "photonic_busy": EVERYWHERE | {"sim_cycles_per_s"},
    "electrical_busy": EVERYWHERE | {"sim_cycles_per_s"},
    "sparse_scenarios": EVERYWHERE | {"sim_cycles_per_s"},
    "sweep_cold": EVERYWHERE | {"sim_cycles_per_s", "points_per_s"},
    "sweep_resume": EVERYWHERE | {"points_per_s"},
    "service_job": EVERYWHERE | {"sim_cycles_per_s", "points_per_s"},
}


def _ledger(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    proc = _ledger("--smoke", "--quiet", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == catalog.benchmark_json()


def test_catalogue_names_and_limits():
    spec = catalog.benchmark_json()
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"] for m in spec["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert set(WORKLOADS) == set(catalog.WORKLOADS)


def test_smoke_record_schema_and_metrics(smoke_record):
    assert smoke_record["kind"] == "perf-ledger-record"
    assert smoke_record["smoke"] is True
    assert set(smoke_record["workloads"]) == set(catalog.WORKLOADS)
    units = {name: unit for name, unit, _b, _bound in catalog.END_TO_END}
    for name, row in smoke_record["workloads"].items():
        assert set(row["metrics"]) == APPLICABLE[name], name
        assert row["errors"] == [], name
        assert row["attempted"] >= 2 and row["failed"] == 0, name
        assert re.fullmatch(r"[0-9a-f]{64}", row["sim_digest"]), name
        for metric, m in row["metrics"].items():
            assert NAME.match(metric)
            assert m["unit"] == units[metric]
            assert m["n"] >= 1 and m["q1"] <= m["median"] <= m["q3"]
            if metric == "failed_ratio":
                assert m["value"] == 0
            else:
                assert m["value"] > 0, (name, metric)


def test_simulator_changes_cannot_move_sweep_resume(smoke_record):
    # The bypass prediction, checked where it is cheap: the resume
    # workload advances no simulated cycle at all.
    assert smoke_record["workloads"]["sweep_resume"]["cycles_per_op"] == 0
    assert smoke_record["workloads"]["sweep_resume"]["points_per_op"] == 288 + 32


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out = tmp_path / "traced.json"
    proc = _ledger(
        "--smoke", "--quiet", "--trace", "--workload", "electrical_busy",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    assert set(record["per_layer"]) == {n for n, *_ in catalog.PER_LAYER}
    layers = {k: v["value"] for k, v in record["per_layer"].items()}
    assert all(isinstance(v, (int, float)) for v in layers.values())
    # Bypass predictions: the mesh never enters photonic or DBA code.
    assert layers["photonic.calls_per_cycle.electrical_busy"] == 0
    assert layers["dba.calls_per_cycle.electrical_busy"] == 0
    assert layers["arch.gateway_ticks_per_cycle.electrical_busy"] == 0
    assert layers["noc.calls_per_cycle.electrical_busy"] > 0
    assert layers["host.trace_overhead_ratio"] > 0
    assert record["trace"]["electrical_busy"]["self_s"]["runner.run"] > 0


def test_seeded_store_resumes_without_simulating():
    spec = _paper_spec((1,))
    store = ResultStore()
    expected = seed_store(store, spec, simulate_donors(1, smoke=True))
    assert len(expected) == 288 and len(store) == 288
    with Session(store) as session:
        assert session.run(spec) == expected
        assert session.executed_count == 0


@pytest.mark.parametrize(
    "arch,pattern,gbps,scenario",
    [
        ("dhetpnoc", "skewed3", 600.0, None),
        ("firefly", "uniform", 300.0, "diurnal"),
        ("electrical", "skewed3", 600.0, None),
    ],
)
def test_replicated_construction_is_run_one(arch, pattern, gbps, scenario):
    fidelity = _fidelity("ledger-test", 1_500, 200, (0.5,), smoke=True)
    traced = traced_run_one(
        Tracer(), arch, 1, pattern, gbps, fidelity, 3, scenario
    )
    with Session() as session:
        direct = session.run_one(
            arch, 1, pattern, gbps, fidelity=fidelity, seed=3,
            scenario=scenario,
        )
    assert dataclasses.asdict(traced.result) == dataclasses.asdict(direct)
    assert traced.gen_ticks > 0 and traced.run_s > 0


def test_benchmark_fails_cleanly_without_the_program(tmp_path):
    # The driver also runs the command where only the benchmark's own
    # files exist: it must fail without printing a result.
    lone = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(HERE, lone, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(lone / "run.py"), "--workload", "sweep_resume",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
