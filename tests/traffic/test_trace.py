"""Tests for traffic trace record/replay."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.noc.flit import Packet
from repro.traffic.bandwidth_sets import BW_SET_1
from repro.traffic.generator import TrafficGenerator
from repro.traffic.patterns import UniformRandomTraffic
from repro.traffic.trace import (
    TraceRecord,
    TraceReplayGenerator,
    TrafficTrace,
    trace_digest,
)


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(cycle=-1, src=0, dst=1)
        with pytest.raises(ValueError):
            TraceRecord(cycle=0, src=3, dst=3)


class TestTraceDigest:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40), st.integers(0, 63), st.integers(0, 63)
            ).filter(lambda t: t[1] != t[2]),
            min_size=1,
            max_size=60,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_any_record_order_gives_one_digest(self, raw, perm_seed):
        records = [TraceRecord(cycle=c, src=s, dst=d) for c, s, d in raw]
        shuffled = list(records)
        random.Random(perm_seed).shuffle(shuffled)
        assert trace_digest(TrafficTrace(records)) == trace_digest(
            TrafficTrace(shuffled)
        )

    def test_digest_differs_for_different_content(self):
        one = TrafficTrace([TraceRecord(0, 1, 2)])
        two = TrafficTrace([TraceRecord(0, 1, 3)])
        assert trace_digest(one) != trace_digest(two)

    def test_digest_tells_no_class_from_class_zero(self):
        unclassed = TrafficTrace([TraceRecord(0, 1, 2)])
        class_zero = TrafficTrace([TraceRecord(0, 1, 2, bw_class=0)])
        assert trace_digest(unclassed) != trace_digest(class_zero)

    def test_digest_survives_save_and_load(self, tmp_path):
        """``trace info`` digests the loaded file: the digest of what
        was recorded, whatever order it was appended in."""
        trace = TrafficTrace([
            TraceRecord(4, 3, 1, bw_class=2), TraceRecord(0, 1, 2),
            TraceRecord(4, 0, 5),
        ])
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        assert trace_digest(TrafficTrace.load(path)) == trace_digest(trace)


class TestTrafficTrace:
    def test_append_and_len(self):
        trace = TrafficTrace()
        trace.append(TraceRecord(0, 0, 1))
        trace.append(TraceRecord(1, 2, 3))
        assert len(trace) == 2

    def test_sort(self):
        trace = TrafficTrace()
        trace.append(TraceRecord(5, 0, 1))
        trace.append(TraceRecord(1, 2, 3))
        trace.sort()
        assert [r.cycle for r in trace] == [1, 5]

    def test_recording_wrapper_records_only_accepted(self):
        trace = TrafficTrace()
        accept_next = [True, False, True]
        submit = TrafficTrace.recording_submit(
            trace, lambda p: accept_next.pop(0)
        )
        for i in range(3):
            submit(Packet(src=0, dst=1, n_flits=4, flit_bits=32, created_cycle=i))
        assert len(trace) == 2

    def test_replay_produces_identical_packets(self):
        trace = TrafficTrace(
            [TraceRecord(0, 0, 5, bw_class=2), TraceRecord(3, 1, 6)]
        )
        replayed = []
        tick = TraceReplayGenerator(
            trace, BW_SET_1, lambda p: replayed.append(p) or True
        ).tick
        for cycle in range(5):
            tick(cycle)
        assert len(replayed) == 2
        assert replayed[0].src == 0 and replayed[0].dst == 5
        assert replayed[0].bw_class == 2
        assert replayed[0].n_flits == BW_SET_1.packet_flits

    def test_replay_timing(self):
        trace = TrafficTrace([TraceRecord(3, 0, 1)])
        seen_cycles = []
        tick = TraceReplayGenerator(
            trace, BW_SET_1,
            lambda p: seen_cycles.append(p.created_cycle) or True,
        ).tick
        for cycle in range(6):
            tick(cycle)
        assert seen_cycles == [3]

    def test_roundtrip_persistence(self, tmp_path):
        trace = TrafficTrace(
            [TraceRecord(0, 0, 5, bw_class=1), TraceRecord(2, 3, 4, bw_class=None)]
        )
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        assert loaded.records == trace.records

    def test_roundtrip_preserves_bw_class_none_distinctly(self, tmp_path):
        """``bw_class=None`` must survive the file round trip as None,
        not collapse into a missing field or 0."""
        trace = TrafficTrace(
            [TraceRecord(0, 0, 5, bw_class=0), TraceRecord(1, 3, 4)]
        )
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        assert loaded.records[0].bw_class == 0
        assert loaded.records[1].bw_class is None

    def test_load_skips_corrupt_lines(self, tmp_path):
        """Torn-write tolerance, mirroring ResultStore: garbled JSON, a
        truncated tail, unknown fields and invalid values are counted
        and skipped instead of poisoning the replay."""
        path = tmp_path / "trace.jsonl"
        good = TraceRecord(3, 1, 2, bw_class=1)
        path.write_text(
            "\n".join(
                [
                    '{"cycle": 3, "src": 1, "dst": 2, "bw_class": 1}',
                    "not json at all",
                    '{"cycle": 4, "src": 0',  # torn write
                    '{"cycle": 5, "src": 2, "dst": 2}',  # src == dst
                    '{"cycle": -1, "src": 0, "dst": 1}',  # invalid cycle
                    '{"cycle": 6, "src": 0, "dst": 1, "weird": true}',
                    '[1, 2, 3]',  # valid JSON, wrong shape
                    "",
                ]
            ),
            encoding="utf-8",
        )
        loaded = TrafficTrace.load(path)
        assert loaded.records == [good]
        assert loaded.corrupt_lines == 6

    def test_load_rejects_fully_corrupt_file(self, tmp_path):
        """Torn-tail tolerance must not mask systematic corruption: a
        file with zero parseable records (wrong schema, wrong file)
        raises instead of replaying as silent zero traffic."""
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"tick": 1, "from": 0, "to": 2}\n{"tick": 2, "from": 1, "to": 3}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="all 2 non-empty lines"):
            TrafficTrace.load(path)
        # An empty file stays an empty (valid) trace.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert len(TrafficTrace.load(empty)) == 0

    def test_save_writes_the_same_bytes_each_time(self, tmp_path):
        """One JSON object per line, fields in declaration order, so a
        trace recorded twice compares equal byte for byte."""
        trace = TrafficTrace([TraceRecord(0, 1, 2), TraceRecord(3, 4, 5, 1)])
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trace.save(first)
        trace.save(second)
        assert first.read_bytes() == second.read_bytes() == (
            b'{"cycle": 0, "src": 1, "dst": 2, "bw_class": null}\n'
            b'{"cycle": 3, "src": 4, "dst": 5, "bw_class": 1}\n'
        )

    def test_load_refuses_a_csv_trace(self, tmp_path):
        """A trace is JSONL: a CSV file's lines are all schema-
        incompatible, so it is refused rather than replayed as nothing."""
        path = tmp_path / "trace.csv"
        path.write_text("cycle,src,dst\n0,1,2\n1,3,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="all 3 non-empty lines"):
            TrafficTrace.load(path)

    def test_file_roundtrip_replays_identically(self, tmp_path):
        """record -> save -> load -> replay equals the direct replay."""
        pattern = UniformRandomTraffic().bind(BW_SET_1, 16, 4, random.Random(2))
        trace = TrafficTrace()
        submit = TrafficTrace.recording_submit(trace, lambda p: True)
        gen = TrafficGenerator(pattern, 0.4, random.Random(8), submit)
        for cycle in range(200):
            gen.tick(cycle)
        assert len(trace) > 0

        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        assert loaded.corrupt_lines == 0

        def replay(t):
            packets = []
            tick = TraceReplayGenerator(
                t,
                BW_SET_1,
                lambda p: packets.append(
                    (p.created_cycle, p.src, p.dst, p.bw_class, p.n_flits)
                )
                or True,
            ).tick
            for cycle in range(200):
                tick(cycle)
            return packets

        assert replay(loaded) == replay(trace)

    def test_end_to_end_record_replay_equivalence(self):
        """Recording a generator then replaying gives identical streams."""
        pattern = UniformRandomTraffic().bind(BW_SET_1, 16, 4, random.Random(1))
        trace = TrafficTrace()
        recorded = []
        submit = TrafficTrace.recording_submit(
            trace, lambda p: recorded.append((p.created_cycle, p.src, p.dst)) or True
        )
        gen = TrafficGenerator(pattern, 0.5, random.Random(9), submit)
        for cycle in range(300):
            gen.tick(cycle)

        replayed = []
        tick = TraceReplayGenerator(
            trace,
            BW_SET_1,
            lambda p: replayed.append((p.created_cycle, p.src, p.dst)) or True,
        ).tick
        for cycle in range(300):
            tick(cycle)
        assert replayed == recorded
