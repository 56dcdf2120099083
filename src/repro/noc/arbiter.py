"""Arbiters used by the 3-stage switch pipeline.

"Arbitration will be done to use the link interconnecting the network
routers" (thesis 1.4). The router uses round-robin arbiters at both the
input-arbitration and output-arbitration stages (the two arbitration stages
named in the thesis contribution list); a matrix (least-recently-served)
arbiter is what ``RouterConfig.arbiter = "matrix"`` selects instead. No
exhibit, example or benchmark here runs with it: its unit tests are its
only caller.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class Arbiter:
    """Interface: pick one winner among requesting indices."""

    def __init__(self, n_requesters: int):
        if n_requesters <= 0:
            raise ValueError(f"n_requesters must be positive, got {n_requesters}")
        self.n = int(n_requesters)

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        """Return the winning index among *requests*, or None if empty.

        *requests* is an iterable of requester indices in ``[0, n)``.
        """
        raise NotImplementedError


class RoundRobinArbiter(Arbiter):
    """Classic rotating-priority arbiter.

    The requester after the previous winner has highest priority, so every
    persistent requester is served within ``n`` grants (strong fairness).

    >>> arb = RoundRobinArbiter(4)
    >>> [arb.grant([0, 2, 3]) for _ in range(4)]
    [0, 2, 3, 0]
    """

    def __init__(self, n_requesters: int):
        super().__init__(n_requesters)
        self._next_priority = 0

    def grant(self, requests: Sequence[int]) -> Optional[int]:
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

    def reset(self) -> None:
        self._next_priority = 0


class MatrixArbiter(Arbiter):
    """Least-recently-served matrix arbiter.

    Maintains a priority matrix ``w[i][j]`` meaning *i beats j*. The winner
    is the requester that beats every other requester; after a grant the
    winner's row is cleared and its column set, demoting it below everyone.
    """

    def __init__(self, n_requesters: int):
        super().__init__(n_requesters)
        # Upper-triangular init: lower index beats higher index initially.
        self._beats: List[List[bool]] = [
            [i < j for j in range(self.n)] for i in range(self.n)
        ]

    def grant(self, requests: Sequence[int]) -> Optional[int]:
        if not requests:
            return None
        req_list = sorted(set(requests))
        for i in req_list:
            if all(self._beats[i][j] for j in req_list if j != i):
                self._demote(i)
                return i
        # Unreachable for a consistent matrix, but keep a safe fallback.
        winner = req_list[0]
        self._demote(winner)
        return winner

    def _demote(self, winner: int) -> None:
        for j in range(self.n):
            if j != winner:
                self._beats[winner][j] = False
                self._beats[j][winner] = True

    def reset(self) -> None:
        self._beats = [[i < j for j in range(self.n)] for i in range(self.n)]


def make_arbiter(kind: str, n_requesters: int) -> Arbiter:
    """Factory: ``kind`` is ``"round_robin"`` or ``"matrix"``."""
    if kind == "round_robin":
        return RoundRobinArbiter(n_requesters)
    if kind == "matrix":
        return MatrixArbiter(n_requesters)
    raise ValueError(f"unknown arbiter kind {kind!r}")
