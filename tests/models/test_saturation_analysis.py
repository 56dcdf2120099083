"""Tests for the analytical saturation model, including cross-validation
against the cycle-accurate simulator."""

import random

import pytest

from repro.analysis.saturation import (
    AnalysisError,
    SaturationModel,
    channel_capacity_gbps,
    channel_shares,
)
from repro.arch.config import SystemConfig
from repro.api.session import Session
from repro.experiments.runner import Fidelity
from repro.traffic.bandwidth_sets import BW_SET_1
from repro.traffic.patterns import SkewedTraffic, UniformRandomTraffic

run_one = Session().run_one


def bound(pattern, seed=11):
    config = SystemConfig(bw_set=BW_SET_1)
    return pattern.bind(BW_SET_1, 16, 4, random.Random(seed)), config


class TestChannelShares:
    def test_shares_sum_to_one(self):
        pattern, config = bound(SkewedTraffic(3))
        shares = channel_shares(pattern, config)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_uniform_shares_equal(self):
        pattern, config = bound(UniformRandomTraffic())
        shares = channel_shares(pattern, config)
        assert max(shares.values()) == pytest.approx(min(shares.values()))

    def test_skewed_hot_clusters_dominate(self):
        pattern, config = bound(SkewedTraffic(3))
        shares = channel_shares(pattern, config)
        hot = [c for c in range(16) if pattern.class_of_cluster(c) == 3]
        hot_share = sum(shares[c] for c in hot)
        assert hot_share == pytest.approx(0.90, abs=0.01)


class TestChannelCapacity:
    def test_firefly_uniform_width(self):
        pattern, config = bound(SkewedTraffic(3))
        caps = {
            c: channel_capacity_gbps("firefly", pattern, c, config)
            for c in range(16)
        }
        assert max(caps.values()) == pytest.approx(min(caps.values()))
        # 4 wavelengths * 12.5 Gb/s derated by the handshake duty cycle.
        assert caps[0] < 50.0
        assert caps[0] > 40.0

    def test_dhet_follows_class(self):
        pattern, config = bound(SkewedTraffic(3))
        hot = next(c for c in range(16) if pattern.class_of_cluster(c) == 3)
        cold = next(c for c in range(16) if pattern.class_of_cluster(c) == 0)
        hot_cap = channel_capacity_gbps("dhetpnoc", pattern, hot, config)
        cold_cap = channel_capacity_gbps("dhetpnoc", pattern, cold, config)
        assert hot_cap > 4 * cold_cap

    def test_unknown_arch(self):
        pattern, config = bound(SkewedTraffic(1))
        with pytest.raises(AnalysisError):
            channel_capacity_gbps("ring", pattern, 0, config)


class TestSaturationModel:
    def test_dhet_knee_above_firefly_under_skew(self):
        pattern, config = bound(SkewedTraffic(3))
        firefly = SaturationModel("firefly", pattern, config)
        dhet = SaturationModel("dhetpnoc", pattern, config)
        assert dhet.knee_gbps() > 1.5 * firefly.knee_gbps()

    def test_equal_knees_under_uniform(self):
        pattern, config = bound(UniformRandomTraffic())
        firefly = SaturationModel("firefly", pattern, config)
        dhet = SaturationModel("dhetpnoc", pattern, config)
        assert dhet.knee_gbps() == pytest.approx(firefly.knee_gbps(), rel=0.01)

    def test_delivered_monotone_and_capped(self):
        pattern, config = bound(SkewedTraffic(2))
        model = SaturationModel("firefly", pattern, config)
        values = [model.delivered_gbps(r) for r in (0, 100, 400, 1600, 100000)]
        assert values == sorted(values)
        assert values[-1] <= sum(model.capacities.values()) + 1e-9

    def test_bottleneck_is_hot_class_for_firefly(self):
        pattern, config = bound(SkewedTraffic(3))
        model = SaturationModel("firefly", pattern, config)
        hot = {c for c in range(16) if pattern.class_of_cluster(c) == 3}
        assert set(model.bottleneck_clusters()) <= hot

    def test_negative_offered_rejected(self):
        pattern, config = bound(SkewedTraffic(1))
        model = SaturationModel("firefly", pattern, config)
        with pytest.raises(AnalysisError):
            model.delivered_gbps(-1)


class TestCrossValidation:
    """The simulator should land near the fluid model's prediction."""

    FIDELITY = Fidelity("xval", 1500, 200, (0.6,))

    @pytest.mark.parametrize("arch", ["firefly", "dhetpnoc"])
    def test_simulated_delivery_within_model_envelope(self, arch):
        pattern, config = bound(SkewedTraffic(3))
        model = SaturationModel(arch, pattern, config)
        offered = 0.6 * BW_SET_1.aggregate_gbps  # 480 Gb/s
        predicted = model.delivered_gbps(offered)
        simulated = run_one(
            arch, BW_SET_1, "skewed3", offered, fidelity=self.FIDELITY, seed=11
        ).delivered_gbps
        assert simulated == pytest.approx(predicted, rel=0.35)

    def test_model_predicts_simulated_winner(self):
        pattern, config = bound(SkewedTraffic(3))
        predicted_ratio = (
            SaturationModel("dhetpnoc", pattern, config).delivered_gbps(480.0)
            / SaturationModel("firefly", pattern, config).delivered_gbps(480.0)
        )
        f, d = (
            run_one(arch, BW_SET_1, "skewed3", 480.0,
                    fidelity=self.FIDELITY, seed=11)
            for arch in ("firefly", "dhetpnoc")
        )
        simulated_ratio = d.delivered_gbps / f.delivered_gbps
        assert predicted_ratio > 1.0
        assert simulated_ratio > 1.0
