"""Capture/relinquish logic executed while a router holds the token.

Thesis section 3.2.1: "Once, the photonic router acquires the token it
captures or relinquishes wavelengths based on the request table and number
of currently acquired and available wavelengths. The cluster aims to
acquire the highest number of wavelengths among all the entries in the
request table ... Depending upon the availability of the wavelengths it
may not be possible to satisfy all the requests from all the clusters.
Hence, the request table is not modified after the wavelengths are
allocated ... This will enable the router to try to acquire additional
wavelengths if necessary the next time the token returns."

Table 3-3 additionally caps each cluster's write channel ("d-HetPNoC,
maximum channel bandwidth of 8 channels" for BW set 1, 32 for set 2, 64
for set 3); the allocator enforces that cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dba.tables import CurrentTable, RequestTable
from repro.dba.token import WavelengthToken
from repro.photonic.wavelength import WavelengthId

#: Allocation policies. ``max_request`` is the thesis mechanism: acquire
#: up to the request table's maximum entry, first come first served.
#: ``proportional`` is this reproduction's implementation of the thesis's
#: future work ("find better ways to effectively manage bandwidth
#: allocation"): when chip-wide demand exceeds the pool, each cluster's
#: target is capped at its demand-proportional share, preventing the
#: first-come hoarding the plain policy exhibits under oversubscription.
ALLOCATION_POLICIES = ("max_request", "proportional")


@dataclass
class AllocationResult:
    """Outcome of one token-holding allocation pass."""

    acquired: List[WavelengthId] = field(default_factory=list)
    released: List[WavelengthId] = field(default_factory=list)
    target: int = 0
    held_after: int = 0

    @property
    def satisfied(self) -> bool:
        return self.held_after >= self.target


class WavelengthAllocator:
    """Pure allocation policy for one cluster; operates on the token.

    Parameters
    ----------
    cluster:
        Owning cluster id.
    max_channel_wavelengths:
        The per-channel cap from table 3-3 (8/32/64 per BW set), or
        ``None`` for uncapped.
    policy:
        One of :data:`ALLOCATION_POLICIES`.
    """

    def __init__(
        self,
        cluster: int,
        max_channel_wavelengths: int | None = None,
        policy: str = "max_request",
    ):
        if max_channel_wavelengths is not None and max_channel_wavelengths < 1:
            raise ValueError("max_channel_wavelengths must be >= 1")
        if policy not in ALLOCATION_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; use one of {ALLOCATION_POLICIES}"
            )
        self.cluster = cluster
        self.max_channel_wavelengths = max_channel_wavelengths
        self.policy = policy
        self.passes = 0
        self.unsatisfied_passes = 0
        self._folded: Optional[tuple] = None  # see _update_per_destination

    def target_for(
        self,
        request_table: RequestTable,
        current: CurrentTable,
        pool_size: Optional[int] = None,
        total_demand: Optional[int] = None,
    ) -> int:
        """Total wavelengths the cluster wants to hold (reserved included).

        Under the ``proportional`` policy with known chip-wide
        *total_demand* exceeding *pool_size* (dynamic wavelengths plus the
        reserved floors), the target shrinks to the cluster's
        demand-proportional share.
        """
        request = request_table.max_request()
        target = max(request, len(current.reserved))
        if (
            self.policy == "proportional"
            and pool_size is not None
            and total_demand is not None
            and total_demand > pool_size > 0
        ):
            fair = math.floor(pool_size * request / total_demand)
            target = max(len(current.reserved), min(target, fair))
        if self.max_channel_wavelengths is not None:
            target = min(target, self.max_channel_wavelengths)
        return target

    def run_pass(
        self,
        token: WavelengthToken,
        request_table: RequestTable,
        current: CurrentTable,
        pool_size: Optional[int] = None,
        total_demand: Optional[int] = None,
    ) -> AllocationResult:
        """Adjust holdings toward the request-table target; update tables."""
        self.passes += 1
        result = AllocationResult(
            target=self.target_for(request_table, current, pool_size, total_demand)
        )
        held = current.held_count

        if held < result.target:
            wanted = result.target - held
            taken = token.acquire_up_to(wanted, self.cluster)
            current.add_dynamic(taken)
            result.acquired = taken
        elif held > result.target:
            surplus = min(held - result.target, len(current.dynamic_ids))
            released = current.remove_dynamic(surplus)
            for wid in released:
                token.release(wid, self.cluster)
            result.released = released

        result.held_after = current.held_count
        if not result.satisfied:
            self.unsatisfied_passes += 1

        self._update_per_destination(request_table, current)
        return result

    def _update_per_destination(
        self, request_table: RequestTable, current: CurrentTable
    ) -> None:
        """Current table entries: min(request, held) per destination.

        A transmission to destination *d* then uses
        ``current.wavelengths_for(d)`` -- the demanded subset of the held
        wavelengths (thesis 3.3.1).

        Skipped when both tables are at the versions last folded (no new
        demand, no wavelength gained or lost, no outside write to the
        current table): a quiescent token pass is O(1).
        """
        if self._folded == (request_table, request_table.version,
                            current, current.version):
            return
        held = current.held_count
        for dst, requested in request_table.as_dict().items():
            current.set_allocation(dst, min(requested, held))
        self._folded = (request_table, request_table.version,
                        current, current.version)
