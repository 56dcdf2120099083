"""Conflict-checked crossbar model.

The routing/crossbar stage of the 3-stage switch (thesis contribution list;
Pande et al. [24]). The crossbar is non-blocking across distinct
(input, output) pairs but enforces that, within a cycle, each input drives
at most one output and each output is driven by at most one input.
"""

from __future__ import annotations

from typing import List


class CrossbarConflict(RuntimeError):
    """Raised when two connections collide on a port within one cycle."""


class Crossbar:
    """An ``n_inputs`` x ``n_outputs`` crossbar with per-cycle conflict checks.

    Usage per cycle: call :meth:`begin_cycle`, then :meth:`connect` for each
    granted (input, output) pair; traversal counts accumulate for stats.
    """

    def __init__(self, n_inputs: int, n_outputs: int):
        if n_inputs <= 0 or n_outputs <= 0:
            raise ValueError("crossbar dimensions must be positive")
        self.n_inputs = int(n_inputs)
        self.n_outputs = int(n_outputs)
        # Ports are stamped with the cycle epoch that claimed them, so
        # opening a new cycle is one increment instead of two fresh lists.
        self._epoch = 1
        self._input_used: List[int] = [0] * self.n_inputs
        self._output_used: List[int] = [0] * self.n_outputs
        self.traversals = 0
        self.bits_switched = 0

    def begin_cycle(self) -> None:
        self._epoch += 1

    def connect(self, input_port: int, output_port: int, bits: int = 0) -> None:
        """Claim the (input, output) pair for this cycle."""
        if not 0 <= input_port < self.n_inputs:
            raise IndexError(f"input_port {input_port} out of range")
        if not 0 <= output_port < self.n_outputs:
            raise IndexError(f"output_port {output_port} out of range")
        epoch = self._epoch
        if self._input_used[input_port] == epoch:
            raise CrossbarConflict(f"input {input_port} already connected this cycle")
        if self._output_used[output_port] == epoch:
            raise CrossbarConflict(f"output {output_port} already connected this cycle")
        self._input_used[input_port] = epoch
        self._output_used[output_port] = epoch
        self.traversals += 1
        self.bits_switched += bits

    def is_input_free(self, input_port: int) -> bool:
        return self._input_used[input_port] != self._epoch

    def is_output_free(self, output_port: int) -> bool:
        return self._output_used[output_port] != self._epoch

    def reset_stats(self) -> None:
        self.traversals = 0
        self.bits_switched = 0
