"""Shared fixtures for the d-HetPNoC reproduction test suite.

Also registers the hypothesis profiles the fuzz suites run under:

* ``ci`` (the default) — derandomized with a small example budget,
  plus ``print_blob`` so any failure prints the exact blob that
  reproduces it. The draws are deterministic run to run only for a
  given selection of test files: hypothesis (6.155) mixes into its
  draws constants harvested from every local module loaded so far,
  collected test files included
  (``hypothesis.internal.conjecture.providers._get_local_constants``),
  and has no public switch for it. So a test run alone may draw other
  examples than it draws inside tier-1; to reproduce a failure in a
  single-file run, pass the printed blob to
  ``@reproduce_failure``;
* ``nightly`` — randomized with a much larger budget, for the nightly
  lane that actually explores the scenario space.

Select with ``HYPOTHESIS_PROFILE=nightly`` (anything unregistered is an
error, so a typo cannot silently fuzz with the wrong budget).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.arch.config import SystemConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.bandwidth_sets import BW_SET_1, BW_SET_2, BW_SET_3

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - dev deps always include it
    pass
else:
    settings.register_profile(
        "ci",
        derandomize=True,
        print_blob=True,
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile(
        "nightly",
        derandomize=False,
        print_blob=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=1)


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(1234)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(99)


@pytest.fixture
def config_set1() -> SystemConfig:
    return SystemConfig(bw_set=BW_SET_1)


@pytest.fixture
def config_set2() -> SystemConfig:
    return SystemConfig(bw_set=BW_SET_2)


@pytest.fixture
def config_set3() -> SystemConfig:
    return SystemConfig(bw_set=BW_SET_3)


@pytest.fixture(params=[BW_SET_1, BW_SET_2, BW_SET_3], ids=["set1", "set2", "set3"])
def any_bw_set(request):
    return request.param
