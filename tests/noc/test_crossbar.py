"""Tests for the router's conflict-checked crossbar stage.

Within one tick each input drives at most one output and each output is
driven by at most one input. Output arbitration can only break that if
it grants one input to two outputs, so the conflict is planted there;
outputs cannot collide, since an output is nominated once per tick.
"""

import pytest

from repro.noc.flit import Packet, packetize
from repro.noc.router import CrossbarConflict, Router, RouterConfig


def four_port_router(arbiter="round_robin"):
    """Inputs 0 and 1 each hold a one-flit packet, for sinks on outputs 2
    and 3 (a packet for node *n* routes to port *n*)."""
    delivered = []
    router = Router(0, 4, RouterConfig(n_vcs=2, vc_depth=4, arbiter=arbiter),
                    route_fn=lambda dst: dst)
    for port in (2, 3):
        router.connect_output_sink(port, delivered.append)
    for in_port, dst in ((0, 2), (1, 3)):
        (flit,) = packetize(Packet(src=9, dst=dst, n_flits=1, flit_bits=32))
        router.accept_flit(in_port, flit, 0)
    return router, delivered


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
        """An output arbiter that grants input 0 whatever asks: output 3
        then claims the input output 2 already holds."""
        router, _delivered = four_port_router("matrix")
        for arbiter in router._output_arbiters:
            arbiter.grant = lambda requests: 0
        with pytest.raises(CrossbarConflict, match="router0: input 0 already connected"):
            router.tick(0)
