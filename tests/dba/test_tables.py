"""Tests for the photonic router's 6 DBA tables (thesis 3.2.1)."""

import pytest

from repro.dba.tables import CurrentTable, DemandTable, RequestTable, TableError
from repro.photonic.wavelength import WavelengthId


def make_demand_tables(n=4, cluster=0, n_clusters=16):
    return [DemandTable(core_id=i, n_clusters=n_clusters, own_cluster=cluster) for i in range(n)]


def demands_of(table):
    """One table's demands, as the request table folds them (the max
    over one table is the table)."""
    request = RequestTable(table.n_clusters, table.own_cluster)
    request.recompute([table])
    return request.as_dict()


class TestDemandTable:
    def test_initially_zero(self):
        table = DemandTable(0, 16, own_cluster=0)
        assert demands_of(table) == {d: 0 for d in range(1, 16)}

    def test_no_self_destination(self):
        table = DemandTable(0, 16, own_cluster=3)
        with pytest.raises(TableError):
            table.set_demand(3, 1)

    def test_set_demand(self):
        table = DemandTable(0, 16, own_cluster=0)
        table.set_demand(5, 8)
        assert demands_of(table)[5] == 8

    def test_set_all(self):
        table = DemandTable(0, 16, own_cluster=0)
        table.set_all(4)
        assert demands_of(table) == {d: 4 for d in range(1, 16)}

    def test_negative_rejected(self):
        with pytest.raises(TableError):
            DemandTable(0, 16, 0).set_demand(1, -1)

    def test_update_counter(self):
        table = DemandTable(0, 16, 0)
        table.set_demand(1, 2)
        table.set_all(1)
        assert table.updates == 2


class TestRequestTable:
    def test_elementwise_max(self):
        """'Each entry in the request table is the maximum of all the
        corresponding entries in the demand tables.'"""
        demands = make_demand_tables(4)
        demands[0].set_demand(1, 2)
        demands[1].set_demand(1, 8)
        demands[2].set_demand(1, 4)
        demands[3].set_demand(2, 3)
        request = RequestTable(16, own_cluster=0)
        request.recompute(demands)
        requests = request.as_dict()
        assert requests[1] == 8
        assert requests[2] == 3
        assert requests[5] == 0

    def test_max_request_is_acquisition_target(self):
        demands = make_demand_tables(4)
        demands[2].set_demand(7, 6)
        request = RequestTable(16, 0)
        request.recompute(demands)
        assert request.max_request() == 6

    def test_wrong_cluster_rejected(self):
        foreign = DemandTable(0, 16, own_cluster=5)
        request = RequestTable(16, own_cluster=0)
        with pytest.raises(TableError):
            request.recompute([foreign])

    def test_recompute_lowers_too(self):
        """Requests shrink when tasks end, enabling relinquish."""
        demands = make_demand_tables(1)
        demands[0].set_demand(1, 8)
        request = RequestTable(16, 0)
        request.recompute(demands)
        demands[0].set_demand(1, 1)
        request.recompute(demands)
        assert request.as_dict()[1] == 1


class TestCurrentTable:
    def reserved(self):
        return [WavelengthId(0, 0)]

    def test_requires_reserved_floor(self):
        """'at least 1 wavelength per cluster' (starvation guarantee)."""
        with pytest.raises(TableError):
            CurrentTable(16, 0, reserved=[])

    def test_held_ids_reserved_first(self):
        table = CurrentTable(16, 0, self.reserved())
        table.add_dynamic([WavelengthId(0, 5)])
        assert table.held_ids[0] == WavelengthId(0, 0)
        assert table.held_count == 2

    def test_duplicate_dynamic_rejected(self):
        table = CurrentTable(16, 0, self.reserved())
        table.add_dynamic([WavelengthId(0, 5)])
        with pytest.raises(TableError):
            table.add_dynamic([WavelengthId(0, 5)])

    def test_reserved_cannot_be_added_as_dynamic(self):
        table = CurrentTable(16, 0, self.reserved())
        with pytest.raises(TableError):
            table.add_dynamic([WavelengthId(0, 0)])

    def test_remove_dynamic_lifo(self):
        table = CurrentTable(16, 0, self.reserved())
        table.add_dynamic([WavelengthId(0, 5), WavelengthId(0, 6)])
        released = table.remove_dynamic(1)
        assert released == [WavelengthId(0, 6)]

    def test_remove_more_than_held_rejected(self):
        table = CurrentTable(16, 0, self.reserved())
        with pytest.raises(TableError):
            table.remove_dynamic(1)

    def test_allocation_bounded_by_held(self):
        table = CurrentTable(16, 0, self.reserved())
        with pytest.raises(TableError):
            table.set_allocation(1, 5)
        table.add_dynamic([WavelengthId(0, 5)])
        table.set_allocation(1, 2)
        assert table.allocation(1) == 2

    def test_wavelengths_for_returns_prefix(self):
        """'The specific wavelengths are chosen among the allocated ones
        ... based on the corresponding entry in the demand table.'"""
        table = CurrentTable(16, 0, self.reserved())
        table.add_dynamic([WavelengthId(0, 5), WavelengthId(0, 6), WavelengthId(0, 7)])
        table.set_allocation(1, 2)
        ids = table.wavelengths_for(1)
        assert ids == [WavelengthId(0, 0), WavelengthId(0, 5)]

    def test_wavelengths_for_zero_allocation_gives_floor(self):
        table = CurrentTable(16, 0, self.reserved())
        table.set_allocation(1, 0)
        assert table.wavelengths_for(1) == [WavelengthId(0, 0)]

    def test_invalid_destination(self):
        table = CurrentTable(16, 0, self.reserved())
        with pytest.raises(TableError):
            table.allocation(0)  # own cluster
