"""Cross-architecture integration tests: the paper's shape claims.

These run short full-system simulations and assert the *qualitative*
results of thesis chapter 3: equality under uniform traffic, a d-HetPNoC
advantage that grows with skew, lower d-HetPNoC packet energy under skew,
and conservation/determinism invariants.
"""

import pytest

from repro.api.session import Session
from repro.experiments.runner import Fidelity, attach_traffic, wire_run
from repro.traffic.bandwidth_sets import BW_SET_1

FAST = Fidelity("test", 1200, 200, (0.6,))
SEED = 11
run_one = Session().run_one
#: The invariant tests' architectures, under their historic test ids.
ARCHS = [pytest.param("firefly", id="FireflyNoC"),
         pytest.param("dhetpnoc", id="DHetPNoC")]


def run(arch, pattern, offered_gbps=480.0, fidelity=FAST, seed=SEED):
    return run_one(
        arch, BW_SET_1, pattern, offered_gbps, fidelity=fidelity, seed=seed
    )


class TestUniformEquality:
    """'with uniform traffic the d-HetPNoC and the baseline crossbar-based
    Firefly performs similarly ... as both architectures provide the exact
    same bandwidth between all pairs of clusters.'"""

    def test_delivered_bandwidth_nearly_equal(self):
        firefly = run("firefly", "uniform")
        dhet = run("dhetpnoc", "uniform")
        assert dhet.delivered_gbps == pytest.approx(
            firefly.delivered_gbps, rel=0.02
        )

    def test_latency_nearly_equal(self):
        firefly = run("firefly", "uniform")
        dhet = run("dhetpnoc", "uniform")
        assert dhet.mean_latency_cycles == pytest.approx(
            firefly.mean_latency_cycles, rel=0.05
        )

    def test_epm_within_identifier_overhead(self):
        firefly = run("firefly", "uniform")
        dhet = run("dhetpnoc", "uniform")
        # d-HetPNoC pays only the piggybacked-identifier overhead.
        assert dhet.energy_per_message_pj == pytest.approx(
            firefly.energy_per_message_pj, rel=0.02
        )


class TestSkewAdvantage:
    """'the d-HetPNoC architecture performs better than the Firefly
    architecture with an increased skew in the traffic.'"""

    def test_dhet_wins_under_skew(self):
        firefly = run("firefly", "skewed3")
        dhet = run("dhetpnoc", "skewed3")
        assert dhet.delivered_gbps > firefly.delivered_gbps * 1.05

    def test_advantage_grows_with_skew(self):
        gains = []
        for pattern in ("skewed1", "skewed2", "skewed3"):
            firefly = run("firefly", pattern)
            dhet = run("dhetpnoc", pattern)
            gains.append(dhet.delivered_gbps / firefly.delivered_gbps)
        assert gains[0] < gains[2]

    def test_dhet_epm_lower_under_skew(self):
        """'the d-HetPNoC dissipates up to 5% less energy' -- direction."""
        firefly = run("firefly", "skewed3")
        dhet = run("dhetpnoc", "skewed3")
        assert dhet.energy_per_message_pj < firefly.energy_per_message_pj

    def test_dhet_latency_lower_under_skew(self):
        firefly = run("firefly", "skewed3")
        dhet = run("dhetpnoc", "skewed3")
        assert dhet.mean_latency_cycles < firefly.mean_latency_cycles


class TestCaseStudies:
    def test_dhet_wins_hotspot(self):
        firefly = run("firefly", "skewed_hotspot2", offered_gbps=400.0)
        dhet = run("dhetpnoc", "skewed_hotspot2", offered_gbps=400.0)
        assert dhet.delivered_gbps >= firefly.delivered_gbps

    def test_dhet_wins_real_app(self):
        """'In all the cases the peak bandwidth of the d-HetPNoC is better
        than the Firefly architecture' (thesis 3.4.2)."""
        firefly = run("firefly", "real_app", offered_gbps=400.0)
        dhet = run("dhetpnoc", "real_app", offered_gbps=400.0)
        assert dhet.delivered_gbps > firefly.delivered_gbps


class TestInvariants:
    def _build(self, arch, pattern_name, seed=SEED, offered=480.0):
        run = wire_run(arch, BW_SET_1, pattern_name, FAST, seed)
        attach_traffic(run, offered, FAST)
        return run.sim, run.arch

    @pytest.mark.parametrize("arch", ARCHS)
    def test_flit_conservation(self, arch):
        sim, noc = self._build(arch, "skewed3")
        sim.run(1500)  # no warm-up reset: conservation over the whole run
        flits_per_packet = 64
        accepted = noc.metrics.packets_accepted * flits_per_packet
        accounted = (
            noc.metrics.flits_delivered
            + noc.flits_in_system()
            + noc.metrics.packets_abandoned * flits_per_packet
        )
        assert accounted == accepted

    @pytest.mark.parametrize("arch", ARCHS)
    def test_determinism(self, arch):
        results = []
        for _ in range(2):
            sim, noc = self._build(arch, "skewed2", seed=21)
            sim.run(800)
            results.append(
                (
                    noc.metrics.packets_delivered,
                    noc.metrics.bits_delivered,
                    round(noc.energy.breakdown.total_pj, 3),
                )
            )
        assert results[0] == results[1]

    def test_seed_changes_results(self):
        sims = []
        for seed in (1, 2):
            sim, noc = self._build("firefly", "skewed2", seed=seed)
            sim.run(800)
            sims.append(noc.metrics.bits_delivered)
        assert sims[0] != sims[1]

    def test_overload_refuses_but_never_loses(self):
        sim, noc = self._build("firefly", "skewed3", offered=1600.0)
        sim.run(1500)
        assert noc.metrics.packets_refused > 0
        accepted = noc.metrics.packets_accepted * 64
        accounted = (
            noc.metrics.flits_delivered
            + noc.flits_in_system()
            + noc.metrics.packets_abandoned * 64
        )
        assert accounted == accepted

    def test_delivered_never_exceeds_offered(self):
        # Short measurement windows inherit warm-up backlog, so allow a
        # modest drain bonus over the offered rate.
        result = run("dhetpnoc", "uniform", offered_gbps=200.0)
        assert result.delivered_gbps <= 200.0 * 1.15

    def test_energy_positive_when_traffic_flows(self):
        result = run("firefly", "uniform", offered_gbps=200.0)
        assert result.energy_per_message_pj > 0
        assert result.packets_delivered > 0
