"""Store-key compatibility with stores written before ``Session`` was
the only execution path.

``data/parent_store_fig_3_3.jsonl`` was written at commit ``8b33359`` by
``figure_3_3(TINY, seed=3, bw_sets=[BW_SET_1], patterns=("uniform",))``
reading through the then process-wide default store (one record per
load point, two architectures). Every key in it must still be the key
the session path computes, so an existing store stays a 100% cache hit.

That fixture's records carry no phases, so
``data/parent_store_fault_storm.jsonl`` pins the phased form: written at
commit ``912b3ff`` by ``Session.run`` of :data:`PHASED_SPEC` (one
``fault_storm`` d-HetPNoC point, two phases) into a JSONL store. Every
line of both fixtures must re-encode to the same bytes.
"""

import json
import pathlib
import shutil

import pytest

from repro.api import ExperimentSpec, Session
from repro.experiments.figures import figure_3_3
from repro.experiments.runner import Fidelity
from repro.experiments.store import _record_line, result_from_dict, result_key
from repro.traffic.bandwidth_sets import BW_SET_1

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE = DATA / "parent_store_fig_3_3.jsonl"
PHASED_FIXTURE = DATA / "parent_store_fault_storm.jsonl"

TINY = Fidelity("tiny", 900, 150, (0.5, 0.9))

PHASED_SPEC = ExperimentSpec(
    archs=("dhetpnoc",), bw_sets=(1,), patterns=("skewed3",),
    scenarios=("fault_storm",), seeds=(3,),
    fidelity=Fidelity("tiny", 900, 150, (0.5,)), derive_seeds=False,
)

#: The key the parent commit wrote for the one point of PHASED_SPEC.
PHASED_KEY = "23683c84d5a1ed003184a3be7d5e2f67d4237478dbc1e974d1d9074219225eca"

#: The rows the parent commit rendered when it wrote the fixture.
PARENT_ROWS = [["BW Set 1", "uniform", 664.0, 664.0, 0.0]]


@pytest.fixture
def store_path(tmp_path):
    """A scratch copy: a miss would append to the file it ran against."""
    path = tmp_path / FIXTURE.name
    shutil.copy(FIXTURE, path)
    return str(path)


def test_parent_written_store_is_a_full_hit_for_session_peaks(store_path):
    spec = ExperimentSpec(
        archs=("firefly", "dhetpnoc"), bw_sets=(1,), patterns=("uniform",),
        seeds=(3,), fidelity=TINY, derive_seeds=False,
    )
    with Session(store_path) as session:
        assert len(session.store) == spec.n_points()
        peaks = session.peaks(spec)
        assert session.executed_count == 0
    assert {arch: round(peak.delivered_gbps, 1)
            for (arch, *_rest), peak in peaks.items()} == {
        "firefly": 664.0, "dhetpnoc": 664.0,
    }


def test_parent_written_store_is_a_full_hit_for_figure_3_3(store_path):
    with Session(store_path) as session:
        result = figure_3_3(
            TINY, seed=3, bw_sets=[BW_SET_1], patterns=("uniform",),
            session=session,
        )
        assert session.executed_count == 0
        assert session.store.misses == 0
    assert result.rows == PARENT_ROWS



@pytest.mark.parametrize("fixture", [FIXTURE, PHASED_FIXTURE], ids=["flat", "phased"])
def test_parent_written_lines_re_encode_byte_for_byte(fixture):
    lines = fixture.read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        result = result_from_dict(record["result"])
        assert _record_line(record["key"], result) == line


def test_parent_written_phased_key_is_the_key_computed_today():
    (line,) = PHASED_FIXTURE.read_text(encoding="utf-8").splitlines()
    record = json.loads(line)
    assert record["key"] == PHASED_KEY
    assert len(record["result"]["phases"]) == 2
    assert result_key(
        "dhetpnoc", 1, "skewed3", 400.0, 3, PHASED_SPEC.fidelity,
        scenario="fault_storm",
    ) == PHASED_KEY


def test_parent_written_phased_store_is_a_full_hit(tmp_path):
    path = tmp_path / PHASED_FIXTURE.name
    shutil.copy(PHASED_FIXTURE, path)
    (line,) = PHASED_FIXTURE.read_text(encoding="utf-8").splitlines()
    with Session(str(path)) as session:
        results = session.run(PHASED_SPEC)
        assert session.executed_count == 0
    assert results == [result_from_dict(json.loads(line)["result"])]
    assert path.read_bytes() == PHASED_FIXTURE.read_bytes()
