"""Tests for links and the credits they carry back.

A link holds neither what it carries nor any behaviour: the router hop
appends to the queues its owner drains (``ElectricalNetwork.tick``), so
everything here is driven through that owner. What lands where, and
when, is also pinned in ``tests/noc/test_router.py`` and
``tests/noc/test_router_golden.py``.
"""

from repro.noc.flit import Packet, packetize
from repro.noc.network import ElectricalNetwork
from repro.noc.router import RouterConfig
from repro.noc.topology import mesh


def two_node_network(n_flits=3):
    """Node 0 -> node 1 of a 2x2 mesh over the real owner of both
    queues, one packet submitted."""
    net = ElectricalNetwork(mesh(2, 2), RouterConfig(n_vcs=1, vc_depth=4))
    net.submit(Packet(src=0, dst=1, n_flits=n_flits, flit_bits=32))
    return net


class TestLink:
    def test_delivery_after_latency(self):
        net = two_node_network(n_flits=1)
        net.tick(0)
        # Due the cycle after it is sent, addressed to the port it feeds.
        ((due, vcs, node, flit),) = net._flits_due
        assert (due, node, flit.seq) == (1, 1, 0)
        assert vcs is net.routers[1].inputs[0].vcs

    def test_width_enforced(self):
        """A link carries at most one flit a cycle: under load no two
        flits on one link are due in the same cycle."""
        net = ElectricalNetwork(mesh(3, 3), RouterConfig(n_vcs=2, vc_depth=4))
        for src in range(9):
            for dst in ((src + 4) % 9, (src + 5) % 9):
                net.submit(Packet(src=src, dst=dst, n_flits=4, flit_bits=32))
        busiest = 0
        for cycle in range(20):
            net.tick(cycle)
            arrivals = [(due, id(vcs)) for due, vcs, _, _ in net._flits_due]
            assert len(arrivals) == len(set(arrivals))
            busiest = max(busiest, len(arrivals))
        assert busiest > 4

    def test_width_resets_next_cycle(self):
        """One send a cycle: a router sends on the same link in
        consecutive cycles without tripping the busy check."""
        net = ElectricalNetwork(mesh(2, 2), RouterConfig(n_vcs=1, vc_depth=4))
        router = net.routers[0]
        for flit in packetize(Packet(src=0, dst=1, n_flits=2, flit_bits=32)):
            router.accept_flit(net.local_port(0), flit, 0)
        router.tick(0)
        router.tick(1)
        assert [due for due, _, _, _ in net._flits_due] == [1, 2]

    def test_order_preserved(self):
        net = two_node_network(n_flits=3)
        sent = []
        for cycle in range(3):
            net.tick(cycle)
            sent += [flit.seq for _, _, _, flit in net._flits_due]
        assert sent == [0, 1, 2]

    def test_links_sharing_a_queue_append_in_due_order(self):
        """Every link of a network appends to its one queue of flits (and
        one of credits): one-cycle links make append order due order."""
        net = ElectricalNetwork(mesh(3, 3), RouterConfig(n_vcs=2, vc_depth=2))
        for src in range(9):
            net.submit(Packet(src=src, dst=(src + 4) % 9, n_flits=4, flit_bits=32))
        senders = set()
        for cycle in range(12):
            net.tick(cycle)
            for queue in (net._flits_due, net._credits_due):
                dues = [entry[0] for entry in queue]
                assert dues == sorted(dues)
            senders |= {node for _, _, node, _ in net._flits_due}
        assert len(senders) > 3

    def test_stats(self):
        net = two_node_network()
        for cycle in range(6):
            net.tick(cycle)
        link = net._links[0]
        assert (link.items_carried, link.bits_carried) == (3, 96)
        link.reset_stats()
        assert (link.items_carried, link.bits_carried) == (0, 0)

    def test_in_flight(self):
        net = two_node_network()
        on_the_wire = []
        for cycle in range(5):
            net.tick(cycle)
            on_the_wire.append(len(net._flits_due))
        # One flit sent per cycle from cycle 0, each one cycle in flight.
        assert on_the_wire == [1, 1, 1, 0, 0]
        assert net.metrics.flits_delivered == 3


class TestCreditChannel:
    """Credits go back upstream over the link whose buffers they free."""

    def test_delayed_credit(self):
        net = two_node_network(n_flits=1)
        row = net.routers[0]._credits[0]
        for cycle in range(2):  # sent at 0, lands and is ejected at 1
            net.tick(cycle)
        # The counters are the owner's to add to when the credit is due.
        assert list(net._credits_due) == [(2, row, 0)]
        assert net._credits_due[0][1] is net._links[0].credits
        assert row == [3]
        net.tick(2)
        assert row == [4] and net.is_idle()

    def test_in_flight(self):
        net = two_node_network()
        row = net.routers[0]._credits[0]
        seen = []
        for cycle in range(6):
            net.tick(cycle)
            seen.append((len(net._credits_due), row[0]))
        # Flits land at node 1 in cycles 1-3 and are ejected at once; each
        # credit is one cycle on its way back to node 0's counter.
        assert seen == [(0, 3), (1, 2), (1, 2), (1, 3), (0, 4), (0, 4)]
        assert net.is_idle()
