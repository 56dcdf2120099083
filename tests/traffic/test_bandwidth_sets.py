"""Tests for the table 3-1 bandwidth sets."""

import pytest

from repro.traffic.bandwidth_sets import (
    BANDWIDTH_SETS,
    BW_SET_1,
    BW_SET_2,
    BW_SET_3,
    BandwidthSet,
    bandwidth_set_by_index,
)


class TestTable31Values:
    def test_set1(self):
        assert BW_SET_1.class_gbps == (12.5, 25.0, 50.0, 100.0)
        assert BW_SET_1.total_wavelengths == 64

    def test_set2(self):
        assert BW_SET_2.class_gbps == (50.0, 100.0, 200.0, 400.0)
        assert BW_SET_2.total_wavelengths == 256

    def test_set3(self):
        assert BW_SET_3.class_gbps == (100.0, 200.0, 400.0, 800.0)
        assert BW_SET_3.total_wavelengths == 512


class TestTable33Geometry:
    def test_packet_shapes(self):
        assert (BW_SET_1.packet_flits, BW_SET_1.flit_bits) == (64, 32)
        assert (BW_SET_2.packet_flits, BW_SET_2.flit_bits) == (16, 128)
        assert (BW_SET_3.packet_flits, BW_SET_3.flit_bits) == (8, 256)

    def test_all_packets_2048_bits(self, any_bw_set):
        assert any_bw_set.packet_bits == 2048

    def test_firefly_channel_widths(self):
        """'4 wavelengths per channel * 16 channels' etc. (table 3-3)."""
        assert BW_SET_1.firefly_lambda_per_channel == 4
        assert BW_SET_2.firefly_lambda_per_channel == 16
        assert BW_SET_3.firefly_lambda_per_channel == 32

    def test_dhet_max_channel(self):
        assert BW_SET_1.dhet_max_channel_wavelengths == 8
        assert BW_SET_2.dhet_max_channel_wavelengths == 32
        assert BW_SET_3.dhet_max_channel_wavelengths == 64


class TestDerivedQuantities:
    def test_waveguide_counts(self):
        assert BW_SET_1.n_waveguides == 1
        assert BW_SET_2.n_waveguides == 4
        assert BW_SET_3.n_waveguides == 8

    def test_class_wavelengths(self, any_bw_set):
        """Wavelengths = class bandwidth / 12.5 for every set."""
        for i, gbps in enumerate(any_bw_set.class_gbps):
            assert any_bw_set.class_wavelengths(i) == int(gbps / 12.5)

    def test_class_demands_fit_pool(self, any_bw_set):
        """4 clusters per class: total demand <= total wavelengths, the
        condition under which DBA settles without starvation."""
        demand = 4 * sum(
            any_bw_set.class_wavelengths(i) for i in range(any_bw_set.n_classes)
        )
        assert demand <= any_bw_set.total_wavelengths

    def test_aggregate_bandwidth(self):
        assert BW_SET_1.aggregate_gbps == pytest.approx(800.0)
        assert BW_SET_3.aggregate_gbps == pytest.approx(6400.0)

    def test_highest_class_equals_dhet_cap(self, any_bw_set):
        assert (
            any_bw_set.class_wavelengths(3)
            == any_bw_set.dhet_max_channel_wavelengths
        )


class TestValidation:
    def test_lookup_by_index(self):
        assert bandwidth_set_by_index(2) is BW_SET_2
        with pytest.raises(KeyError):
            bandwidth_set_by_index(9)

    def test_descending_classes_rejected(self):
        with pytest.raises(ValueError):
            BandwidthSet(9, "bad", (100.0, 50.0, 25.0, 12.5), 64, 32, 64, 8)

    def test_non_divisible_wavelengths_rejected(self):
        with pytest.raises(ValueError):
            BandwidthSet(9, "bad", (12.5, 25.0, 50.0, 100.0), 63, 32, 64, 8)

    def test_registry(self):
        assert BANDWIDTH_SETS == (BW_SET_1, BW_SET_2, BW_SET_3)
