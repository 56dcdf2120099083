"""Cycle-accurate simulation kernel.

The thesis evaluates d-HetPNoC with "a cycle accurate simulator that models
the progress of the data flits accurately per clock cycle accounting for
those flits that reach the destination as well as those that are dropped"
(thesis section 3.4.1). This package provides that substrate:

* :class:`~repro.sim.engine.Simulator` -- a deterministic, clocked
  simulation engine with an auxiliary event queue for timed callbacks
  (token handoffs, task remapping events).
* :class:`~repro.sim.engine.ClockedComponent` -- base class for anything
  stepped once per cycle in registration order.
* :mod:`repro.sim.stats` -- running means and histograms used for the
  reported latency metrics.
* :mod:`repro.sim.rng` -- seeded random-stream management so every
  experiment is reproducible from a single integer seed.
"""

from repro.sim.engine import ClockedComponent, Simulator, SimulationError
from repro.sim.rng import RandomStreams
from repro.sim.stats import Histogram, RunningMean

__all__ = [
    "ClockedComponent",
    "Histogram",
    "RandomStreams",
    "RunningMean",
    "SimulationError",
    "Simulator",
]
