"""Tests for the router's conflict-checked crossbar stage.

Within one tick each input drives at most one output and each output is
driven by at most one input. Output arbitration can only break that if
it grants one input to two outputs, so the conflict is planted there;
outputs cannot collide, since an output is nominated once per tick.
"""

import pytest

from repro.noc.flit import Packet, packetize
from repro.noc.router import CrossbarConflict, Router, RouterConfig


def router_with(packets, n_ports=4):
    """One one-flit packet per ``(input port, destination)`` in
    *packets*, for sinks on every output a destination names (a packet
    for node *n* routes to port *n*)."""
    delivered = []
    router = Router(0, n_ports, RouterConfig(n_vcs=2, vc_depth=4),
                    route_fn=lambda dst: dst)
    for port in {dst for _in_port, dst in packets}:
        router.connect_output_sink(port, delivered.append)
    for in_port, dst in packets:
        (flit,) = packetize(Packet(src=9, dst=dst, n_flits=1, flit_bits=32))
        router.accept_flit(in_port, flit, 0)
    return router, delivered


def four_port_router():
    """Inputs 0 and 1 each hold a one-flit packet, for sinks on outputs 2
    and 3."""
    return router_with([(0, 2), (1, 3)])


class TestCrossbar:
    def test_distinct_pairs_ok(self):
        router, delivered = four_port_router()
        assert router.tick(0) == 0
        assert sorted(flit.packet.dst for flit in delivered) == [2, 3]

    def test_bits_accumulate(self):
        router, _delivered = four_port_router()
        router.tick(0)
        assert (router.flits_forwarded, router.bits_forwarded) == (2, 64)

    def test_begin_cycle_clears(self):
        """Each tick opens the crossbar afresh: the same (input, output)
        pair connects again on the next tick."""
        router, delivered = four_port_router()
        (flit,) = packetize(Packet(src=9, dst=2, n_flits=1, flit_bits=32))
        router.accept_flit(0, flit, 0)
        router.tick(0)
        assert router.tick(1) == 0
        assert [flit.packet.dst for flit in delivered] == [2, 3, 2]

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Router(0, 0)

    def test_input_conflict(self):
        """An output arbiter that grants input 0 whatever asks: with
        inputs 0 and 1 asking for output 4 and inputs 2 and 3 for output
        5 (a lone requester wins without one), output 5 then claims the
        input output 4 already holds."""
        router, _delivered = router_with(
            [(0, 4), (1, 4), (2, 5), (3, 5)], n_ports=6
        )
        for arbiter in router._output_arbiters:
            arbiter.grant = lambda requests: 0
        with pytest.raises(CrossbarConflict, match="router0: input 0 already connected"):
            router.tick(0)
