"""Tests for links and credit channels.

Neither holds what it carries: each appends to a queue its owner drains
(``ElectricalNetwork.tick`` in the program; here the test reads the
queue). What lands where, and when, is pinned through the real owner in
``tests/noc/test_router.py`` and ``tests/noc/test_router_golden.py``.
"""

from collections import deque

import pytest

from repro.noc.flit import Packet
from repro.noc.link import CreditChannel, Link, LinkBusyError
from repro.noc.network import ElectricalNetwork
from repro.noc.router import RouterConfig
from repro.noc.topology import all_to_all

VCS, NODE = ["vc0", "vc1"], 7


def make_link(**kwargs):
    queue = deque()
    return Link(queue, VCS, NODE, **kwargs), queue


def two_node_network(link_latency):
    """Node 0 -> node 1 over the real owner of both queues, one 3-flit
    packet submitted."""
    net = ElectricalNetwork(
        all_to_all(2), RouterConfig(n_vcs=1, vc_depth=4), link_latency=link_latency
    )
    net.submit(Packet(src=0, dst=1, n_flits=3, flit_bits=32))
    return net


class TestLink:
    def test_delivery_after_latency(self):
        link, queue = make_link(latency=3)
        link.send("x", cycle=0)
        # Due at send cycle + latency, addressed to the port it feeds.
        assert list(queue) == [(3, VCS, NODE, "x")]
        assert queue[0][1] is VCS

    def test_width_enforced(self):
        link, _queue = make_link(latency=1, width=1)
        link.send("a", cycle=0)
        with pytest.raises(LinkBusyError):
            link.send("b", cycle=0)

    def test_width_resets_next_cycle(self):
        link, queue = make_link(latency=1, width=1)
        link.send("a", cycle=0)
        link.send("b", cycle=1)
        assert [(due, item) for due, _, _, item in queue] == [(1, "a"), (2, "b")]

    def test_wider_link(self):
        link, queue = make_link(latency=1, width=2)
        link.send("a", cycle=0)
        link.send("b", cycle=0)
        assert [(due, item) for due, _, _, item in queue] == [(1, "a"), (1, "b")]
        with pytest.raises(LinkBusyError):
            link.send("c", cycle=0)

    def test_order_preserved(self):
        link, queue = make_link(latency=2, width=4)
        for i in range(3):
            link.send(i, cycle=0)
        assert [item for _, _, _, item in queue] == [0, 1, 2]

    def test_links_sharing_a_queue_append_in_due_order(self):
        queue = deque()
        links = [Link(queue, VCS, node, latency=2) for node in range(3)]
        for cycle in range(4):
            for link in links:
                link.send((link._node, cycle), cycle)
        dues = [due for due, _, _, _ in queue]
        assert dues == sorted(dues)
        assert [node for _, _, node, _ in queue] == [0, 1, 2] * 4

    def test_stats(self):
        link, _queue = make_link(latency=1)
        link.send("a", cycle=0, bits=32)
        assert link.items_carried == 1
        assert link.bits_carried == 32
        link.reset_stats()
        assert link.items_carried == 0
        assert link.bits_carried == 0

    def test_in_flight(self):
        net = two_node_network(link_latency=5)
        on_the_wire = []
        for cycle in range(10):
            net.tick(cycle)
            on_the_wire.append(len(net._flits_due))
        # One flit sent per cycle from cycle 0, each five cycles in flight.
        assert on_the_wire == [1, 2, 3, 3, 3, 2, 1, 0, 0, 0]
        assert net.metrics.flits_delivered == 3

    def test_zero_latency_rejected(self):
        with pytest.raises(ValueError):
            make_link(latency=0)
        with pytest.raises(ValueError):
            make_link(width=0)


class TestCreditChannel:
    def test_delayed_credit(self):
        queue, row = deque(), [4, 4, 4, 4]
        ch = CreditChannel(queue, row, latency=2)
        ch.send_credit(vc=3, cycle=0)
        # The counters are the owner's to add to when the credit is due.
        assert list(queue) == [(2, row, 3)]
        assert queue[0][1] is row
        assert row == [4, 4, 4, 4]

    def test_multiple_credits_ordered(self):
        queue = deque()
        ch = CreditChannel(queue, [2, 2], latency=1)
        ch.send_credit(0, cycle=0)
        ch.send_credit(1, cycle=0)
        ch.send_credit(0, cycle=1)
        assert [(due, vc) for due, _, vc in queue] == [(1, 0), (1, 1), (2, 0)]

    def test_in_flight(self):
        net = two_node_network(link_latency=2)
        row = net.routers[0]._credits[0]
        seen = []
        for cycle in range(8):
            net.tick(cycle)
            seen.append((len(net._credits_due), row[0]))
        # Flits land at node 1 in cycles 2-4 and are ejected at once; each
        # credit is two cycles on its way back to node 0's counter.
        assert seen == [(0, 3), (0, 2), (1, 1), (2, 1), (2, 2), (1, 3), (0, 4), (0, 4)]
        assert net.is_idle()

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            CreditChannel(deque(), [1], latency=0)
