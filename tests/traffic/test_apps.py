"""Tests for the GPU application profiles (thesis 3.4.2 substitution)."""

import pytest

from repro.traffic.apps import APP_PROFILES, AppProfile, place_applications


class TestAppProfiles:
    def test_thesis_core_counts(self):
        """'MUM, BFS, CP, RAY and LPS are mapped to 20, 4, 4, 4 and 16
        cores respectively.'"""
        assert APP_PROFILES["MUM"].cores == 20
        assert APP_PROFILES["BFS"].cores == 4
        assert APP_PROFILES["CP"].cores == 4
        assert APP_PROFILES["RAY"].cores == 4
        assert APP_PROFILES["LPS"].cores == 16

    def test_gpu_clusters_total_12(self):
        assert sum(p.clusters for p in APP_PROFILES.values()) == 12

    def test_bandwidth_sensitive_apps_top_class(self):
        """'BFS and MUM show significant speedup with increase in
        GPU-memory bandwidth, while the other others do not.'"""
        assert APP_PROFILES["MUM"].demand_class == 3
        assert APP_PROFILES["BFS"].demand_class == 3
        for name in ("CP", "RAY", "LPS"):
            assert APP_PROFILES[name].demand_class < 3

    def test_validation(self):
        with pytest.raises(ValueError):
            AppProfile("X", cores=3, demand_class=0, intensity=1)
        with pytest.raises(ValueError):
            AppProfile("X", cores=4, demand_class=4, intensity=1)
        with pytest.raises(ValueError):
            AppProfile("X", cores=4, demand_class=0, intensity=0)


class TestPlacement:
    def test_default_placement(self):
        mapping, memory = place_applications()
        assert len(mapping) == 12
        assert memory == [12, 13, 14, 15]

    def test_placement_order(self):
        """MUM first (clusters 0-4), then BFS, CP, RAY, LPS."""
        mapping, _ = place_applications()
        assert [mapping[c] for c in range(12)] == (
            ["MUM"] * 5 + ["BFS", "CP", "RAY"] + ["LPS"] * 4
        )

    def test_wrong_cluster_count_rejected(self):
        with pytest.raises(ValueError):
            place_applications(n_clusters=10, n_memory_clusters=4)
