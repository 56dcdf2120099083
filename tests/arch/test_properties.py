"""Property-based whole-system tests: random workloads never break
invariants.

Hypothesis drives the architecture with random patterns, loads and seeds;
every run must keep the audited laws (flit conservation across the
warm-up reset, the fabric's counters, the DBA holdings inside the
wavelength pool) and charge energy for what it delivers.
"""


import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.runner import QUICK_FIDELITY, attach_traffic, wire_run
from repro.traffic.bandwidth_sets import BW_SET_1

PATTERNS = ["uniform", "skewed1", "skewed2", "skewed3", "skewed_hotspot2",
            "real_app"]


def drive(arch_name: str, pattern_name: str, seed: int, offered: float,
          cycles: int = 400):
    """Run *cycles* (the first quarter warm-up), audited every 50."""
    run = wire_run(arch_name, BW_SET_1, pattern_name, QUICK_FIDELITY, seed)
    attach_traffic(run, offered, QUICK_FIDELITY)
    run.simulate(cycles, cycles // 4, audit=50)
    return run.arch


common_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSystemProperties:
    @pytest.mark.parametrize("arch", ["firefly", "dhetpnoc", "electrical"])
    @common_settings
    @given(
        pattern=st.sampled_from(PATTERNS),
        seed=st.integers(0, 10_000),
        offered=st.floats(50.0, 900.0),
    )
    def test_the_audit_holds_on_random_workloads(self, pattern, seed, offered,
                                                 arch):
        # On d-HetPNoC the ring law too: holdings match the token, within
        # the pool, none below the reserved floor.
        drive(arch, pattern, seed, offered)

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
