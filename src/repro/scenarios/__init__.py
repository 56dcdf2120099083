"""Scenario engine: time-varying, scriptable, closed-loop workloads.

* :mod:`repro.scenarios.schedule` — the declarative script objects
  (phases, load modulators, fault events, feedback rules), their JSON
  round-trip and their content hashing;
* :mod:`repro.scenarios.compose` — the ``sequence``/``overlay``
  combinators building new schedules out of existing ones;
* :mod:`repro.scenarios.library` — the registry of named scenarios
  (built-ins such as ``steady``, ``fault_storm``,
  ``closed_loop_shedding``; plus combinator outputs and JSON files via
  ``register_schedule``/``load_scenario_file``);
* :mod:`repro.scenarios.player` — the runtime that replays a schedule
  into a simulation, deterministically, evaluating feedback rules
  against observed state on fixed cycle boundaries;
* :mod:`repro.scenarios.generate` — property-based generation of valid
  random schedules (hypothesis strategies + a seed-deterministic
  sampler);
* :mod:`repro.scenarios.coverage` — dimension-coverage reports
  (burstiness, hotspot mobility, fault density, rule activity) over any
  schedule set;
* :mod:`repro.scenarios.differential` — generated schedules run on
  every architecture, margin inversions flagged as structured findings.
"""

from repro.api.base import lazy_exports

#: Every export: name -> (module, attribute), imported on first use
#: (PEP 562).
_LAZY = {
    "BurstLoad": ("repro.scenarios.schedule", "BurstLoad"),
    "CoverageReport": ("repro.scenarios.coverage", "CoverageReport"),
    "FaultEvent": ("repro.scenarios.schedule", "FaultEvent"),
    "FeedbackRule": ("repro.scenarios.schedule", "FeedbackRule"),
    "Finding": ("repro.scenarios.differential", "Finding"),
    "LoadModulator": ("repro.scenarios.schedule", "LoadModulator"),
    "OffsetLoad": ("repro.scenarios.schedule", "OffsetLoad"),
    "Phase": ("repro.scenarios.schedule", "Phase"),
    "PhaseStats": ("repro.sim.stats", "PhaseStats"),
    "ProductLoad": ("repro.scenarios.schedule", "ProductLoad"),
    "RampLoad": ("repro.scenarios.schedule", "RampLoad"),
    "RuleFiring": ("repro.scenarios.player", "RuleFiring"),
    "ScenarioError": ("repro.scenarios.schedule", "ScenarioError"),
    "ScenarioPlayer": ("repro.scenarios.player", "ScenarioPlayer"),
    "ScenarioSchedule": ("repro.scenarios.schedule", "ScenarioSchedule"),
    "SinusoidLoad": ("repro.scenarios.schedule", "SinusoidLoad"),
    "StepLoad": ("repro.scenarios.schedule", "StepLoad"),
    "build_scenario": ("repro.scenarios.library", "build_scenario"),
    "coverage_report": ("repro.scenarios.coverage", "coverage_report"),
    "describe_scenario": ("repro.scenarios.library", "describe_scenario"),
    "differential_point": ("repro.scenarios.differential", "differential_point"),
    "initial_pattern": ("repro.scenarios.player", "initial_pattern"),
    "load_scenario_file": ("repro.scenarios.library", "load_scenario_file"),
    "overlay": ("repro.scenarios.compose", "overlay"),
    "register_scenario": ("repro.scenarios.library", "register_scenario"),
    "register_schedule": ("repro.scenarios.library", "register_schedule"),
    "run_differential": ("repro.scenarios.differential", "run_differential"),
    "sample_schedule": ("repro.scenarios.generate", "sample_schedule"),
    "scenario_catalog": ("repro.scenarios.library", "scenario_catalog"),
    "scenario_names": ("repro.scenarios.library", "scenario_names"),
    "schedules": ("repro.scenarios.generate", "schedules"),
    "sequence": ("repro.scenarios.compose", "sequence"),
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, globals(), _LAZY)
