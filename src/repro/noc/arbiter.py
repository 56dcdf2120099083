"""The round-robin arbiter of the 3-stage switch pipeline.

"Arbitration will be done to use the link interconnecting the network
routers" (thesis 1.4). The router arbitrates round-robin at both the
input-arbitration and output-arbitration stages (the two arbitration
stages named in the thesis contribution list), and so does the cluster
gateway at its core and receiver ports.
"""

from __future__ import annotations

from typing import Optional, Sequence


class RoundRobinArbiter:
    """Classic rotating-priority arbiter over ``n`` requesters.

    The requester after the previous winner has highest priority, so every
    persistent requester is served within ``n`` grants (strong fairness).

    A lone requester wins and the pointer moves past it (``Router.tick``
    does this inline):

    >>> arb = RoundRobinArbiter(4)
    >>> [arb.grant([0, 2, 3]) for _ in range(4)]
    [0, 2, 3, 0]
    >>> arb.grant([3]), arb.grant([0, 2, 3])
    (3, 0)
    """

    def __init__(self, n_requesters: int):
        if n_requesters <= 0:
            raise ValueError(f"n_requesters must be positive, got {n_requesters}")
        self.n = int(n_requesters)
        self._next_priority = 0

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        """Return the winning index among *requests* (requester indices
        in ``[0, n)``), or None if there are none."""
        if not requests:
            return None
        # The winner is the requester the fewest steps past the pointer:
        # O(requests), and the request list is nearly always one long.
        n, first = self.n, self._next_priority
        steps = n
        for requester in requests:
            offset = (requester - first) % n
            if offset < steps:
                steps = offset
        winner = (first + steps) % n
        self._next_priority = (winner + 1) % n
        return winner
