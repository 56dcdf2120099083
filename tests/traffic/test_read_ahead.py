"""The traffic generator's read-ahead stream and coin screen, held to
CPython's own ``random.Random`` bit for bit.

Both are Hypothesis properties: derandomized at the ``ci`` budget in
tier-1, randomized at the ``nightly`` budget in the nightly lane.
"""

import math
import random

from hypothesis import example, given, strategies as st

from repro.traffic.bandwidth_sets import BW_SET_1
from repro.traffic.generator import BLOCK_WORDS, ReadAheadStream, TrafficGenerator
from repro.traffic.patterns import SkewedTraffic, UniformRandomTraffic

#: One call on a stream: a burst of ``random()`` long enough to cross a
#: block, ``getrandbits`` of 0 to 96 bits, or one of the methods
#: ``random.Random`` builds on ``getrandbits``.
CALLS = st.one_of(
    st.tuples(st.just("random"), st.integers(1, BLOCK_WORDS)),
    st.tuples(st.just("getrandbits"), st.integers(0, 96)),
    st.tuples(st.just("randrange"), st.integers(1, 2 ** 70)),
    st.tuples(st.just("choice"), st.integers(1, 100)),
    st.tuples(st.just("shuffle"), st.integers(0, 100)),
)


def call(stream, name, arg):
    if name == "random":
        return [stream.random() for _ in range(arg)]
    if name == "getrandbits":
        return stream.getrandbits(arg)
    if name == "randrange":
        return stream.randrange(arg)
    if name == "choice":
        return stream.choice(range(arg))
    items = list(range(arg))
    stream.shuffle(items)
    return items


@given(seed=st.integers(0, 2 ** 64 - 1), calls=st.lists(CALLS, max_size=30))
def test_the_read_ahead_stream_is_cpythons_stream(seed, calls):
    reference = random.Random(seed)
    stream = ReadAheadStream(random.Random(seed))
    for name, arg in calls:
        assert call(stream, name, arg) == call(reference, name, arg), (name, arg)


def bind(seed):
    pattern = SkewedTraffic(3) if seed % 2 else UniformRandomTraffic()
    return pattern.bind(BW_SET_1, 16, 4, random.Random(seed))


#: Load scales: 0 (no core draws), 1e-320 (the smaller rates
#: underflow to 0 and stop drawing), infinity (every core injects, a
#: core at rate 0 included: its product is NaN, which caps to 1).
SCALES = st.sampled_from([0.0, 1e-320, 0.3, 1.0, 2.5, math.inf])

#: What a run does to its generator between ticks: ticks, a skip over
#: idle ticks (as the engine's jumps make), a new load scale, a rebind,
#: and a modulated stretch that sets a scale before every tick.
STEPS = st.one_of(
    st.tuples(st.just("tick"), st.integers(1, 300)),
    st.tuples(st.just("skip"), st.integers(1, 300)),
    st.tuples(st.just("scale"), SCALES),
    st.tuples(st.just("rebind"), st.integers(0, 7)),
    st.tuples(st.just("ramp"), st.lists(SCALES, min_size=1, max_size=40)),
)


@given(
    seed=st.integers(0, 2 ** 32 - 1),
    load=st.sampled_from([0.002, 0.05, 0.6, 8.0, 200.0]),
    steps=st.lists(STEPS, max_size=12),
)
@example(seed=1, load=0.05, steps=[
    ("tick", 3), ("skip", 300), ("tick", 200), ("scale", 0.3),
    ("skip", 300), ("rebind", 3), ("tick", 300),
])
@example(seed=2, load=0.6, steps=[
    ("ramp", [0.3, 2.5, 0.0, 0.0, 1.0, 1e-320, 2.5, math.inf, 0.3] * 4),
    ("skip", 50), ("ramp", [1.0, 0.3] * 20),
])
def test_the_screened_generator_draws_what_per_core_coins_draw(seed, load, steps):
    """The reference flips ``random()`` per drawing core per tick, as the
    generator did before it read ahead, at ``min(1, rate * scale)`` from
    the rates and scale of a twin generator that is rescaled and rebound
    in step but never ticked (a core whose product is not above 0 draws
    nothing). Both inject the same packets at the same cycles, and every
    tick before the generator's next wake injects nothing in the
    reference."""
    injected = []
    generator = TrafficGenerator(
        bind(seed), load, random.Random(seed),
        lambda packet: injected.append(
            (packet.created_cycle, packet.src, packet.dst)) or True,
    )
    twin = TrafficGenerator(bind(seed), load, random.Random(0), lambda _: True)
    reference, expected = random.Random(seed), []

    def reference_tick(cycle):
        for core, rate in enumerate(twin._base_rates):
            probability = rate * twin._scale
            if probability <= 0.0:
                continue
            if reference.random() < min(1.0, probability):
                expected.append((cycle, core, twin.pattern.pick_destination(
                    core, reference)))

    cycle = 0
    for name, arg in steps:
        if name == "tick":
            for _ in range(arg):
                generator.tick(cycle)
                reference_tick(cycle)
                cycle += 1
        elif name == "ramp":
            for scale in arg:
                generator.set_scale(scale)
                twin.set_scale(scale)
                generator.tick(cycle)
                reference_tick(cycle)
                cycle += 1
        elif name == "skip":
            wake = generator.next_wake(cycle)
            span = min(arg, wake - cycle)
            # Asking again (the engine asks once per cycle) draws nothing.
            assert generator.next_wake(cycle) == wake
            generator.skip_cycles(cycle, cycle + span)
            for _ in range(span):
                before = len(expected)
                reference_tick(cycle)
                assert len(expected) == before
                cycle += 1
        elif name == "scale":
            generator.set_scale(arg)
            twin.set_scale(arg)
        else:
            generator.rebind(bind(arg))
            twin.rebind(bind(arg))
        assert injected == expected
