"""Tests for the table 3-3 system configuration."""

import pytest

from repro.arch.config import PAPER_RESET_CYCLES, PAPER_TOTAL_CYCLES, SystemConfig
from repro.traffic.bandwidth_sets import BW_SET_1, BW_SET_2, BW_SET_3


class TestTable33Defaults:
    def test_system_size(self):
        config = SystemConfig()
        assert config.n_cores == 64
        assert config.n_clusters == 16
        assert config.cores_per_cluster == 4

    def test_clock(self):
        assert SystemConfig().clock_hz == 2.5e9

    def test_router_memory(self):
        config = SystemConfig()
        assert config.n_vcs == 16
        assert config.vc_depth_flits == 64

    def test_schedule_constants(self):
        assert PAPER_TOTAL_CYCLES == 10_000
        assert PAPER_RESET_CYCLES == 1_000

    def test_die(self):
        assert SystemConfig().die_mm == 20.0


class TestDerived:
    def test_cluster_of(self):
        config = SystemConfig()
        assert config.cluster_of(0) == 0
        assert config.cluster_of(63) == 15

    def test_cluster_of_out_of_range(self):
        with pytest.raises(ValueError):
            SystemConfig().cluster_of(64)

    def test_firefly_channel_width_per_set(self):
        assert SystemConfig(bw_set=BW_SET_1).firefly_channel_wavelengths == 4
        assert SystemConfig(bw_set=BW_SET_2).firefly_channel_wavelengths == 16
        assert SystemConfig(bw_set=BW_SET_3).firefly_channel_wavelengths == 32

    def test_rx_buffer_flits(self):
        config = SystemConfig(bw_set=BW_SET_1, rx_buffer_packets=4)
        assert config.rx_buffer_flits == 256


class TestValidation:
    def test_vc_must_hold_a_packet(self):
        with pytest.raises(ValueError):
            SystemConfig(bw_set=BW_SET_1, vc_depth_flits=32)

    def test_reserved_floor_required(self):
        with pytest.raises(ValueError):
            SystemConfig(reserved_wavelengths_per_cluster=0)

    def test_reserved_cannot_exhaust_pool(self):
        with pytest.raises(ValueError):
            SystemConfig(bw_set=BW_SET_1, reserved_wavelengths_per_cluster=4)

    def test_minimum_clusters(self):
        with pytest.raises(ValueError):
            SystemConfig(n_clusters=1)
