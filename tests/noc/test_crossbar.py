"""Tests for the conflict-checked crossbar."""

import pytest

from repro.noc.crossbar import Crossbar, CrossbarConflict


class TestCrossbar:
    def test_distinct_pairs_ok(self):
        xb = Crossbar(4, 4)
        xb.begin_cycle()
        xb.connect(0, 1)
        xb.connect(1, 0)
        xb.connect(2, 3)
        assert xb.traversals == 3

    def test_input_conflict(self):
        xb = Crossbar(4, 4)
        xb.begin_cycle()
        xb.connect(0, 1)
        with pytest.raises(CrossbarConflict):
            xb.connect(0, 2)

    def test_output_conflict(self):
        xb = Crossbar(4, 4)
        xb.begin_cycle()
        xb.connect(0, 1)
        with pytest.raises(CrossbarConflict):
            xb.connect(2, 1)

    def test_begin_cycle_clears(self):
        xb = Crossbar(2, 2)
        xb.begin_cycle()
        xb.connect(0, 0)
        xb.begin_cycle()
        xb.connect(0, 0)  # no conflict after new cycle
        assert xb.traversals == 2

    def test_bits_accumulate(self):
        xb = Crossbar(2, 2)
        xb.begin_cycle()
        xb.connect(0, 0, bits=32)
        xb.connect(1, 1, bits=32)
        assert xb.bits_switched == 64

    def test_port_range_checked(self):
        xb = Crossbar(2, 2)
        xb.begin_cycle()
        with pytest.raises(IndexError):
            xb.connect(2, 0)
        with pytest.raises(IndexError):
            xb.connect(0, 5)

    def test_is_free_queries(self):
        xb = Crossbar(2, 2)
        xb.begin_cycle()
        assert xb.is_input_free(0)
        xb.connect(0, 1)
        assert not xb.is_input_free(0)
        assert not xb.is_output_free(1)
        assert xb.is_output_free(0)

    def test_reset_stats(self):
        xb = Crossbar(2, 2)
        xb.begin_cycle()
        xb.connect(0, 0, bits=8)
        xb.reset_stats()
        assert xb.traversals == 0
        assert xb.bits_switched == 0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Crossbar(0, 4)
