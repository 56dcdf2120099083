"""Trace ingestion: fingerprint stability, CSV parsing, segmentation.

The load-bearing property: ingestion is a pure function of the trace
*content* — any record ordering produces the byte-identical schedule,
so store keys derived from ingested scenarios are reproducible across
recorders that interleave same-cycle records differently.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.scenarios.ingest import (
    IngestError,
    infer_phase_count,
    ingest_trace,
    load_csv_trace,
    trace_digest,
)
from repro.scenarios.schedule import ScenarioError
from repro.traffic.trace import TraceRecord, TrafficTrace

raw_records = st.lists(
    st.tuples(
        st.integers(0, 40), st.integers(0, 63), st.integers(0, 63)
    ).filter(lambda t: t[1] != t[2]),
    min_size=1,
    max_size=60,
)


def ramp_trace(low_rate=1, high_rate=4, half=200, dst=None):
    """Low-rate first half, high-rate second half (optionally hotspot)."""
    records = []
    for cycle in range(half):
        for i in range(low_rate):
            records.append(TraceRecord(cycle, src=i, dst=dst or (i + 1)))
    for cycle in range(half, 2 * half):
        for i in range(high_rate):
            records.append(TraceRecord(cycle, src=i, dst=dst or (i + 1)))
    return TrafficTrace(records)


class TestFingerprintStability:
    @given(raw_records, st.integers(0, 2**32 - 1))
    def test_any_record_order_ingests_identically(self, raw, perm_seed):
        records = [TraceRecord(cycle=c, src=s, dst=d) for c, s, d in raw]
        shuffled = list(records)
        random.Random(perm_seed).shuffle(shuffled)
        original = TrafficTrace(records)
        reordered = TrafficTrace(shuffled)
        assert trace_digest(original) == trace_digest(reordered)
        a = ingest_trace(original, register=False)
        b = ingest_trace(reordered, register=False)
        assert a.schedule.name == b.schedule.name
        assert a.schedule.fingerprint() == b.schedule.fingerprint()
        assert a.schedule.to_json() == b.schedule.to_json()

    def test_digest_differs_for_different_content(self):
        one = TrafficTrace([TraceRecord(0, 1, 2)])
        two = TrafficTrace([TraceRecord(0, 1, 3)])
        assert trace_digest(one) != trace_digest(two)


class TestSegmentation:
    def test_rate_jump_becomes_a_phase_boundary(self):
        trace = ramp_trace()
        assert infer_phase_count(trace) >= 2
        report = ingest_trace(trace, total_cycles=1000, register=False)
        assert len(report.schedule) >= 2
        assert report.schedule.phases[0].start_cycle == 0
        assert report.span_cycles == 400

    def test_hotspot_half_rebinds_the_hotspot_pattern(self):
        records = []
        for cycle in range(200):
            records.append(TraceRecord(cycle, src=cycle % 8, dst=8 + cycle % 8))
        for cycle in range(200, 400):
            for i in range(4):  # all traffic aims at core 7
                records.append(TraceRecord(cycle, src=i, dst=7))
        report = ingest_trace(
            TrafficTrace(records), total_cycles=1000, register=False
        )
        hotspot = [p for p in report.schedule.phases if p.pattern is not None]
        assert hotspot, "expected at least one hotspot phase"
        assert all(p.pattern == "skewed_hotspot1" for p in hotspot)
        assert all(p.hotspot_core == 7 for p in hotspot)

    def test_empty_trace_raises(self):
        with pytest.raises(IngestError, match="empty trace"):
            ingest_trace(TrafficTrace(), register=False)

    def test_bad_parameters_raise(self):
        trace = TrafficTrace([TraceRecord(0, 1, 2)])
        with pytest.raises(IngestError):
            ingest_trace(trace, total_cycles=0, register=False)
        with pytest.raises(IngestError):
            ingest_trace(trace, n_windows=0, register=False)


class TestRegistration:
    def test_reingesting_the_same_trace_is_idempotent(self):
        trace = ramp_trace()
        first = ingest_trace(trace, register=True)
        second = ingest_trace(trace, register=True)
        assert first.schedule.fingerprint() == second.schedule.fingerprint()
        from repro.scenarios.library import scenario_names

        assert first.schedule.name in scenario_names()

    def test_different_content_under_a_taken_name_raises(self):
        name = "ingest_collision_probe"
        ingest_trace(ramp_trace(), name=name, register=True)
        other = TrafficTrace(
            [TraceRecord(c, src=0, dst=1) for c in range(0, 300, 3)]
        )
        with pytest.raises(ScenarioError):
            ingest_trace(other, name=name, register=True)


class TestCsv:
    def test_aliased_headers_and_corrupt_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "time,source,dest,class,flow_id\n"
            "0,1,2,0,extra\n"
            "1.0,3,4,,ignored\n"
            "oops,not,a,row,x\n"
            "2,5,5,0,self-loop\n"
        )
        trace = load_csv_trace(path)
        assert len(trace) == 2
        assert trace.corrupt_lines == 2
        assert trace.records[0] == TraceRecord(0, 1, 2, bw_class=0)
        assert trace.records[1] == TraceRecord(1, 3, 4, bw_class=None)

    def test_bursty_csv_through_the_cli_fits_burst_modulators(
        self, tmp_path, capsys
    ):
        """Eight injections in each of five cycles out of every fifty:
        per-cycle counts far burstier than Poisson (Fano factor ~7), so
        ``scenarios ingest`` fits every phase an MMPP ``burst``."""
        from repro.experiments.cli import main

        rows = ["cycle,src,dst"]
        for start in range(0, 1000, 50):
            for cycle in range(start, start + 5):
                for i in range(8):
                    rows.append(f"{cycle},{(cycle + i) % 64},{(cycle + 8 * i + 1) % 64}")
        path = tmp_path / "bursty.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["scenarios", "ingest", str(path)]) == 0
        kinds = capsys.readouterr().out.split("[", 1)[1].split("]", 1)[0]
        assert set(kinds.split(", ")) == {"burst"}

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,source\n0,1\n")
        with pytest.raises(IngestError, match="missing columns"):
            load_csv_trace(path)

    def test_all_rows_corrupt_raises(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("cycle,src,dst\nx,y,z\n")
        with pytest.raises(IngestError, match="no valid records"):
            load_csv_trace(path)
