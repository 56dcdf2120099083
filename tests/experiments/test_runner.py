"""Tests for the experiment runner and saturation sweeps."""


import pytest

from repro.api.session import Session
from repro.experiments.runner import (
    Fidelity,
    PAPER_FIDELITY,
    peak_of,
)
from repro.traffic.bandwidth_sets import BW_SET_1

from support import TINY

run_one = Session().run_one


class TestFidelity:
    def test_paper_matches_table_3_3(self):
        assert PAPER_FIDELITY.total_cycles == 10_000
        assert PAPER_FIDELITY.reset_cycles == 1_000

    def test_validation(self):
        with pytest.raises(ValueError):
            Fidelity("bad", 100, 100, (0.5,))
        with pytest.raises(ValueError):
            Fidelity("bad", 100, 10, ())


class TestRunOnce:
    def test_result_fields(self):
        result = run_one("firefly", BW_SET_1, "uniform", 300.0, fidelity=TINY, seed=5)
        assert result.arch == "firefly"
        assert result.pattern == "uniform"
        assert result.bw_set_index == 1
        assert result.delivered_gbps > 0
        assert result.packets_delivered > 0
        assert 0 < result.acceptance_ratio <= 1

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            run_one("tokenring", BW_SET_1, "uniform", 100.0, fidelity=TINY)

    def test_reproducible(self):
        a = run_one("dhetpnoc", BW_SET_1, "skewed2", 300.0, fidelity=TINY, seed=9)
        b = run_one("dhetpnoc", BW_SET_1, "skewed2", 300.0, fidelity=TINY, seed=9)
        assert a == b
        # bw_set is also addressable by registry index.
        assert run_one("dhetpnoc", 1, "skewed2", 300.0, fidelity=TINY, seed=9) == a


class TestSweep:
    def test_sweep_covers_grid(self):
        results = Session().curve(
            "firefly", BW_SET_1, "uniform", TINY, seed=5
        )
        assert len(results) == len(TINY.load_fractions)
        offered = [r.offered_gbps for r in results]
        assert offered == sorted(offered)

    def test_peak_of_picks_max(self):
        results = Session().curve(
            "firefly", BW_SET_1, "skewed3", TINY, seed=5
        )
        peak = peak_of(results)
        assert peak.delivered_gbps == max(r.delivered_gbps for r in results)

    def test_peak_of_empty_rejected(self):
        with pytest.raises(ValueError):
            peak_of([])

    def test_peak_cache_hits(self):
        sweep = Session().curve
        first = peak_of(sweep("firefly", BW_SET_1, "uniform", TINY, seed=5))
        second = peak_of(sweep("firefly", BW_SET_1, "uniform", TINY, seed=5))
        assert first is second

    def test_same_fidelity_name_different_schedule_no_collision(self):
        """Regression: the old ``_PEAK_CACHE`` keyed on ``fidelity.name``
        only, so two fidelities sharing a name but differing in cycles
        silently returned each other's results. The content-hash store
        must keep them apart."""
        sweep = Session().curve
        short = Fidelity("clash", 700, 100, (0.3, 0.8))
        longer = Fidelity("clash", 1400, 100, (0.3, 0.8))
        a = peak_of(sweep("firefly", BW_SET_1, "uniform", short, seed=5))
        b = peak_of(sweep("firefly", BW_SET_1, "uniform", longer, seed=5))
        assert a != b  # twice the cycles cannot yield identical metrics
        # And each identity stays individually cached.
        assert peak_of(sweep("firefly", BW_SET_1, "uniform", short, seed=5)) is a
        assert peak_of(sweep("firefly", BW_SET_1, "uniform", longer, seed=5)) is b

    def test_customised_bw_set_is_simulated_as_passed(self):
        """Regression: the executor path must not rehydrate the canonical
        bandwidth set from the index — a customised set's capacity has to
        drive the offered-load grid."""
        import dataclasses

        sweep = Session().curve
        custom = dataclasses.replace(BW_SET_1, total_wavelengths=128)
        results = sweep("firefly", custom, "uniform", TINY, seed=5)
        assert [r.offered_gbps for r in results] == pytest.approx(
            [f * custom.aggregate_gbps for f in TINY.load_fractions]
        )
        assert all(r.lit_wavelengths == 128 for r in results)
        # And it must not collide with the canonical set's cache entries.
        canonical = sweep("firefly", BW_SET_1, "uniform", TINY, seed=5)
        assert canonical[0].offered_gbps != results[0].offered_gbps
        assert all(r.lit_wavelengths == 64 for r in canonical)

    def test_explicit_config_keeps_bw_set_argument(self):
        """Regression: with an explicit config whose (default) bandwidth
        set differs from the ``bw_set`` argument, the sweep must bind
        traffic to the argument — exactly what ``run_one`` does — not
        to ``config.bw_set``."""
        from repro.arch.config import SystemConfig
        from repro.traffic.bandwidth_sets import BW_SET_2

        config = SystemConfig(n_vcs=8)  # default bw_set is BW_SET_1
        swept = Session(config=config).curve(
            "firefly", BW_SET_2, "uniform", TINY, seed=5
        )
        direct = [
            run_one("firefly", BW_SET_2, "uniform", f * BW_SET_2.aggregate_gbps,
                    fidelity=TINY, seed=5, config=config)
            for f in TINY.load_fractions
        ]
        assert swept == direct
        assert all(r.bw_set_index == 2 for r in swept)

    def test_parallel_sweep_matches_serial(self):
        serial = Session().curve(
            "firefly", BW_SET_1, "uniform", TINY, seed=5
        )
        with Session(workers=4) as session:  # own store: re-simulates
            parallel = session.curve(
                "firefly", BW_SET_1, "uniform", TINY, seed=5
            )
            assert session.executed_count == len(TINY.load_fractions)
        assert serial == parallel
