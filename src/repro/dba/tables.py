"""The photonic router's six DBA tables (thesis section 3.2.1).

"The photonic router consists of 6 tables; current table, request table
and 4 demand tables from the 4 cores. The current table consists of
current bandwidth allocated to the cluster for communication with the
other clusters. ... Each entry in the request table is the maximum of all
the corresponding entries in the demand tables."
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.photonic.wavelength import WavelengthId


class TableError(ValueError):
    """Raised for inconsistent table operations."""


class DemandTable:
    """Per-core demand: destination cluster -> wavelengths wanted.

    "If there is any change in the applications running on a particular
    core, it sends an updated demand for bandwidth to the photonic router.
    This information is in the form of a demand table, which contains the
    number of wavelengths required for communication with all the other
    clusters."
    """

    def __init__(self, core_id: int, n_clusters: int, own_cluster: int):
        if not 0 <= own_cluster < n_clusters:
            raise TableError(f"own_cluster {own_cluster} out of range")
        self.core_id = core_id
        self.n_clusters = n_clusters
        self.own_cluster = own_cluster
        self._demand: Dict[int, int] = {
            d: 0 for d in range(n_clusters) if d != own_cluster
        }
        self.updates = 0

    def set_demand(self, dst_cluster: int, wavelengths: int) -> None:
        self._validate_dst(dst_cluster)
        if wavelengths < 0:
            raise TableError(f"demand must be >= 0, got {wavelengths}")
        self._demand[dst_cluster] = wavelengths
        self.updates += 1

    def set_all(self, wavelengths: int) -> None:
        """Uniform demand to every other cluster (bulk task-remap update)."""
        if wavelengths < 0:
            raise TableError(f"demand must be >= 0, got {wavelengths}")
        for dst in self._demand:
            self._demand[dst] = wavelengths
        self.updates += 1

    def _validate_dst(self, dst: int) -> None:
        if dst not in self._demand:
            raise TableError(
                f"destination {dst} invalid for core {self.core_id} "
                f"(own cluster {self.own_cluster}, {self.n_clusters} clusters)"
            )


class RequestTable:
    """Element-wise max over the cluster's demand tables.

    "In this way, the entries in the request table always contain the
    highest demanded bandwidths or number of wavelengths to the other
    clusters." The table is *not* cleared after an allocation pass, so
    unsatisfied demand is retried on the next token round.

    Only :meth:`recompute` writes: it caches the maximum and bumps
    ``version``, so a token pass sees unchanged demand in O(1).
    """

    def __init__(self, n_clusters: int, own_cluster: int):
        self.n_clusters = n_clusters
        self.own_cluster = own_cluster
        self._request: Dict[int, int] = {
            d: 0 for d in range(n_clusters) if d != own_cluster
        }
        self._max = 0
        self.version = 0

    def recompute(self, demand_tables: Sequence[DemandTable]) -> None:
        """Fold the demand tables: request[d] = max_i demand_i[d]."""
        for table in demand_tables:
            if table.own_cluster != self.own_cluster:
                raise TableError(
                    f"demand table of core {table.core_id} belongs to cluster "
                    f"{table.own_cluster}, not {self.own_cluster}"
                )
        demands = [table._demand for table in demand_tables]
        request = self._request
        for dst in request:
            request[dst] = max([demand[dst] for demand in demands], default=0)
        self._max = max(request.values(), default=0)
        self.version += 1

    def max_request(self) -> int:
        """The acquisition target: "The cluster aims to acquire the highest
        number of wavelengths among all the entries in the request table"."""
        return self._max

    def as_dict(self) -> Dict[int, int]:
        return dict(self._request)


class CurrentTable:
    """Allocated bandwidth per destination plus the held wavelength ids.

    "Once, the wavelengths are acquired or relinquished the current table
    in the router is updated to reflect the current allocated bandwidths to
    all other clusters. The router also records the specific identifiers of
    all the wavelengths it has acquired."

    The table is initialised with the cluster's statically *reserved*
    wavelengths ("This ensures that no cluster starves ... at least 1
    wavelength per cluster").

    Every write, by the allocator or anyone else (fault injection clamps
    entries), bumps ``version``: what was derived from the table (the
    allocator's fold, a transmission plan) is stale when it differs.
    """

    def __init__(
        self,
        n_clusters: int,
        own_cluster: int,
        reserved: Sequence[WavelengthId],
    ):
        self.n_clusters = n_clusters
        self.own_cluster = own_cluster
        self.reserved: List[WavelengthId] = list(reserved)
        if not self.reserved:
            raise TableError(
                "every cluster must hold at least one reserved wavelength "
                "(thesis 3.2.1 starvation guarantee)"
            )
        self._dynamic: List[WavelengthId] = []
        self._allocated_per_dst: Dict[int, int] = {
            d: 0 for d in range(n_clusters) if d != own_cluster
        }
        self.version = 0

    # -- held wavelengths ------------------------------------------------
    @property
    def dynamic_ids(self) -> List[WavelengthId]:
        return list(self._dynamic)

    @property
    def held_ids(self) -> List[WavelengthId]:
        """Reserved + dynamically acquired, in stable order."""
        return self.reserved + self._dynamic

    @property
    def held_count(self) -> int:
        return len(self.reserved) + len(self._dynamic)

    def add_dynamic(self, ids: Iterable[WavelengthId]) -> None:
        for wid in ids:
            if wid in self._dynamic or wid in self.reserved:
                raise TableError(f"{wid} already held by cluster {self.own_cluster}")
            self._dynamic.append(wid)
        self.version += 1

    def remove_dynamic(self, count: int) -> List[WavelengthId]:
        """Drop *count* dynamic wavelengths (most recently acquired first)."""
        if count < 0:
            raise TableError("count must be >= 0")
        if count > len(self._dynamic):
            raise TableError(
                f"cannot release {count}; only {len(self._dynamic)} dynamic held"
            )
        self.version += 1
        return [self._dynamic.pop() for _ in range(count)]

    # -- per-destination allocation ---------------------------------------
    def set_allocation(self, dst_cluster: int, wavelengths: int) -> None:
        if dst_cluster not in self._allocated_per_dst:
            raise TableError(f"destination {dst_cluster} invalid")
        if wavelengths < 0:
            raise TableError("allocation must be >= 0")
        if wavelengths > self.held_count:
            raise TableError(
                f"allocation {wavelengths} exceeds held wavelengths {self.held_count}"
            )
        self._allocated_per_dst[dst_cluster] = wavelengths
        self.version += 1

    def allocation(self, dst_cluster: int) -> int:
        if dst_cluster not in self._allocated_per_dst:
            raise TableError(f"destination {dst_cluster} invalid")
        return self._allocated_per_dst[dst_cluster]

    def wavelengths_for(self, dst_cluster: int) -> List[WavelengthId]:
        """The specific identifiers to piggyback on a reservation to *dst*.

        "The specific wavelengths are chosen among the allocated ones for
        the cluster based on the corresponding entry in the demand table
        for the destination" (3.3.1): the first ``allocation(dst)`` held
        ids, reserved wavelength first so a 1-wavelength floor always
        exists.
        """
        n = self.allocation(dst_cluster)
        held = self.held_ids
        if n == 0:
            n = 1  # the reserved floor: never less than one wavelength
        return held[:n]

    def as_dict(self) -> Dict[int, int]:
        return dict(self._allocated_per_dst)
