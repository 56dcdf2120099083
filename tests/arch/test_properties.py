"""Property-based whole-system tests: random workloads never break
invariants.

Hypothesis drives the architecture with random patterns, loads and seeds;
every run must preserve flit conservation, deliver at least the traffic
it claims, and keep the DBA holdings inside the wavelength pool.
"""


from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.runner import QUICK_FIDELITY, attach_traffic, wire_run
from repro.traffic.bandwidth_sets import BW_SET_1

PATTERNS = ["uniform", "skewed1", "skewed2", "skewed3", "skewed_hotspot2",
            "real_app"]


def drive(arch_name: str, pattern_name: str, seed: int, offered: float,
          cycles: int = 400):
    run = wire_run(arch_name, BW_SET_1, pattern_name, QUICK_FIDELITY, seed)
    attach_traffic(run, offered, QUICK_FIDELITY)
    run.sim.run(cycles)
    return run.arch


common_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSystemProperties:
    @common_settings
    @given(
        pattern=st.sampled_from(PATTERNS),
        seed=st.integers(0, 10_000),
        offered=st.floats(50.0, 900.0),
        arch=st.sampled_from(["firefly", "dhetpnoc"]),
    )
    def test_flit_conservation_random_workloads(self, pattern, seed, offered, arch):
        noc = drive(arch, pattern, seed, offered)
        flits_per_packet = BW_SET_1.packet_flits
        accepted = noc.metrics.packets_accepted * flits_per_packet
        accounted = (
            noc.metrics.flits_delivered
            + noc.flits_in_system()
            + noc.metrics.packets_abandoned * flits_per_packet
        )
        assert accounted == accepted

    @common_settings
    @given(
        pattern=st.sampled_from(PATTERNS),
        seed=st.integers(0, 10_000),
        offered=st.floats(100.0, 900.0),
    )
    def test_dba_holdings_within_pool(self, pattern, seed, offered):
        noc = drive("dhetpnoc", pattern, seed, offered)
        total_held = sum(c.held_count for c in noc.controllers)
        assert total_held <= BW_SET_1.total_wavelengths
        assert all(c.held_count >= 1 for c in noc.controllers)
        assert noc.token.check_exclusive()

    @common_settings
    @given(
        pattern=st.sampled_from(PATTERNS),
        seed=st.integers(0, 10_000),
    )
    def test_energy_consistent_with_delivery(self, pattern, seed):
        noc = drive("dhetpnoc", pattern, seed, offered=400.0)
        if noc.metrics.packets_delivered > 0:
            assert noc.energy.breakdown.total_pj > 0
            assert noc.energy.messages_delivered == noc.metrics.packets_delivered
