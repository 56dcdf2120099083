"""Store-key compatibility with stores written before ``Session`` was
the only execution path.

``data/parent_store_fig_3_3.jsonl`` was written at commit ``8b33359`` by
``figure_3_3(TINY, seed=3, bw_sets=[BW_SET_1], patterns=("uniform",))``
reading through the then process-wide default store (one record per
load point, two architectures). Every key in it must still be the key
the session path computes, so an existing store stays a 100% cache hit.
"""

import pathlib
import shutil

import pytest

from repro.api import ExperimentSpec, Session
from repro.experiments.figures import figure_3_3
from repro.experiments.runner import Fidelity
from repro.traffic.bandwidth_sets import BW_SET_1

FIXTURE = pathlib.Path(__file__).parent / "data" / "parent_store_fig_3_3.jsonl"

TINY = Fidelity("tiny", 900, 150, (0.5, 0.9))

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

