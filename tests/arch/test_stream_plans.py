"""The gateway's stream plans against the data channel they are built from.

A plan is what a store-and-forward stream does cycle by cycle once its
reservation is ACKed; the gateway indexes it instead of topping up and
ticking its channel. :class:`~repro.photonic.channel.DataChannel` stays
the reference: fed one flit at a time through ``wanted_flits``/``feed``
(the path ``top_up`` shortcuts) and ticked, it must launch what every
cached plan says, for every wavelength count a channel can be granted.
"""

from itertools import accumulate

import pytest

from repro.arch import photonic_router
from repro.arch.photonic_router import stream_plan
from repro.energy.model import EnergyAccount
from repro.energy.params import PhotonicEnergyParams
from repro.noc.flit import Packet, packetize
from repro.photonic.channel import DataChannel
from repro.photonic.reservation import ReservationFlit
from repro.traffic.bandwidth_sets import BW_SET_1, BW_SET_2, BW_SET_3

CLOCK_HZ = 2.5e9
BW_SETS = (BW_SET_1, BW_SET_2, BW_SET_3)


def stepped(n_wavelengths, clock_hz, queue_bits, flit_bits, n_flits):
    """``(fed, launched)`` per cycle of a channel fed flit by flit."""
    flits = packetize(Packet(src=0, dst=4, n_flits=n_flits, flit_bits=flit_bits))
    channel = DataChannel(0, clock_hz=clock_hz)
    channel.begin(ReservationFlit(0, 1, 0, n_flits), n_flits, queue_bits,
                  n_wavelengths, 0)
    steps = []
    while channel.busy:
        fed = 0
        for _ in range(channel.wanted_flits()):
            channel.feed(flits.pop(0))
            fed += 1
        steps.append((fed, channel.tick(len(steps))))
    assert not flits and not channel.stalled_cycles
    return steps


def charged(bits):
    """The three transmit addends the account makes for *bits*."""
    account = EnergyAccount()
    account.charge_photonic_transmit(bits)
    b = account.breakdown
    return b.launch_pj, b.modulation_pj, b.tuning_pj


def steps_of(plan):
    """``(fed, launched)`` per cycle of *plan*, read off its events (a
    step without one feeds and launches nothing), after checking the
    events' gaps and the running tables against them."""
    events, launched_by, fed_by, weighted = plan
    steps = [(0, 0)] * len(launched_by)
    for (gap, fed, launched, *_addends, step), after in zip(
            events, [*events[1:], events[-1]]):
        assert fed or launched
        assert gap == after[-1] - step
        steps[step] = (fed, launched)
    assert launched_by == tuple(accumulate(step[1] for step in steps))
    fed_totals = tuple(accumulate(step[0] for step in steps))
    last_feed = fed_totals.index(fed_totals[-1])
    assert fed_by == fed_totals[:last_feed + 1]
    assert weighted == tuple(accumulate(
        index * steps[index][0] for index in range(last_feed + 1)))
    return steps


@pytest.fixture
def plans(monkeypatch):
    """The process's plan cache, emptied for one test: ``{(params, key):
    plan}``."""
    built = {}
    monkeypatch.setattr(photonic_router, "_PLANS", built)
    return built


@pytest.mark.parametrize("bw_set", BW_SETS, ids=lambda s: f"set{s.index}")
def test_every_plan_is_the_channel_stepped(bw_set, plans):
    params = PhotonicEnergyParams()
    for n_wavelengths in range(1, 65):
        key = (n_wavelengths, CLOCK_HZ, bw_set.flit_bits, bw_set.flit_bits,
               bw_set.packet_flits)
        plan = stream_plan(params, key)
        steps = steps_of(plan)
        assert steps == stepped(*key)
        for _gap, _fed, launched, *addends, _step in plan[0]:
            if launched:
                assert tuple(addends) == charged(launched * bw_set.flit_bits)
        assert sum(step[1] for step in steps) == bw_set.packet_flits
        # Built once: a second architecture's params equal these.
        assert stream_plan(PhotonicEnergyParams(), key) is plan
    assert len(plans) == 64
    # At 64 wavelengths (320 bits a cycle) some cycle launches several.
    assert max(step[1] for step in steps) > 1


@pytest.mark.parametrize("queue_set", BW_SETS, ids=lambda s: f"queue{s.index}")
@pytest.mark.parametrize("fed_set", BW_SETS, ids=lambda s: f"fed{s.index}")
def test_a_config_and_traffic_of_different_sets(queue_set, fed_set):
    """An explicit config keeps its set's queue target while the traffic
    brings another set's flits: the plan follows both widths."""
    for n_wavelengths in (1, 3, 8, 32, 64):
        key = (n_wavelengths, CLOCK_HZ, queue_set.flit_bits,
               fed_set.flit_bits, fed_set.packet_flits)
        plan = stream_plan(PhotonicEnergyParams(), key)
        assert steps_of(plan) == stepped(*key)


def test_keys_that_differ_in_one_field_do_not_share_an_entry(plans):
    params = PhotonicEnergyParams()
    base = (8, CLOCK_HZ, 32, 32, 64)
    variants = [
        base,
        (8, 2 * CLOCK_HZ, 32, 32, 64),   # clock: half the credit per cycle
        (8, CLOCK_HZ, 128, 32, 64),      # queue-target width
        (8, CLOCK_HZ, 32, 128, 64),      # fed width
    ]
    built = [stream_plan(params, key) for key in variants]
    assert len(plans) == len(variants)
    for key, plan in zip(variants, built):
        assert steps_of(plan) == stepped(*key)
    assert all(plan != built[0] for plan in built[1:])
    # The energy parameters are part of the key: other addends, one more
    # entry, the same cadence.
    dearer = stream_plan(PhotonicEnergyParams(launch_pj_per_bit=1.0), base)
    assert len(plans) == len(variants) + 1
    assert steps_of(dearer) == steps_of(built[0])
    assert dearer != built[0]
