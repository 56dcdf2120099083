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

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dba.tables import CurrentTable, RequestTable
from repro.dba.token import WavelengthToken
from repro.photonic.wavelength import WavelengthId


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
    """The allocation rule for one cluster; operates on the token.

    Parameters
    ----------
    cluster:
        Owning cluster id.
    max_channel_wavelengths:
        The per-channel cap from table 3-3 (8/32/64 per BW set).
    """

    def __init__(self, cluster: int, max_channel_wavelengths: int):
        if max_channel_wavelengths < 1:
            raise ValueError("max_channel_wavelengths must be >= 1")
        self.cluster = cluster
        self.max_channel_wavelengths = max_channel_wavelengths
        #: Passes that left the cluster short of its target (a sleeping
        #: ring's passes are all satisfied, so this needs no settling;
        #: the passes themselves are ``DBAController.token_visits``).
        self.unsatisfied_passes = 0
        self._folded: Optional[tuple] = None  # see _update_per_destination

    def target_for(self, request_table: RequestTable, current: CurrentTable) -> int:
        """Total wavelengths the cluster wants to hold (reserved included):
        the request table's largest entry, never below the reserved floor,
        capped at the channel limit.

        >>> from repro.dba.tables import DemandTable
        >>> allocator = WavelengthAllocator(0, max_channel_wavelengths=8)
        >>> demand = DemandTable(core_id=0, n_clusters=4, own_cluster=0)
        >>> request = RequestTable(n_clusters=4, own_cluster=0)
        >>> current = CurrentTable(4, 0, reserved=[WavelengthId.from_flat(0)])
        >>> def target(wavelengths):
        ...     demand.set_demand(1, wavelengths)
        ...     request.recompute([demand])
        ...     return allocator.target_for(request, current)
        >>> target(12)  # above the cap
        8
        >>> target(0)  # no demand: the reserved floor
        1
        >>> target(5)  # in between: the request itself
        5
        """
        target = max(request_table.max_request(), len(current.reserved))
        return min(target, self.max_channel_wavelengths)

    def run_pass(
        self,
        token: WavelengthToken,
        request_table: RequestTable,
        current: CurrentTable,
    ) -> AllocationResult:
        """Adjust holdings toward the request-table target; update tables."""
        result = AllocationResult(target=self.target_for(request_table, current))
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
