"""``ExperimentService``: the name the perf ledger builds the daemon by.

The daemon is :class:`~repro.fabric.coordinator.Coordinator`, local
lanes included (see docs/service.md).
"""

from repro.fabric.coordinator import Coordinator

# The ledger's files change only together with the benchmark they
# define, so the name stays while they import it.
ExperimentService = Coordinator
