"""Bernoulli packet-injection processes.

The generator turns a bound :class:`~repro.traffic.patterns.TrafficPattern`
plus an *offered load* (aggregate packets per cycle) into per-core
injection: each cycle, core *i* starts a new packet with probability
``offered_load * weight_i``. Injection queues are bounded; packets offered
to a full queue are refused and counted, which caps the backlog past
saturation (matching the thesis's accounting of dropped traffic).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.noc.flit import Packet
from repro.traffic.bandwidth_sets import BandwidthSet
from repro.traffic.patterns import TrafficPattern


class TrafficGenerator:
    """Per-core Bernoulli injection against a bound pattern.

    Parameters
    ----------
    pattern:
        A pattern already bound to the bandwidth set/system shape.
    offered_load_packets_per_cycle:
        Chip-aggregate expected injection rate.
    rng:
        Dedicated random stream (see :class:`repro.sim.rng.RandomStreams`).
    submit:
        Callback receiving each injected :class:`Packet`; returns ``True``
        if the network accepted it, ``False`` to refuse (refusals are
        counted, not retried).
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        offered_load_packets_per_cycle: float,
        rng: random.Random,
        submit: Callable[[Packet], bool],
    ):
        if offered_load_packets_per_cycle < 0:
            raise ValueError("offered load must be >= 0")
        self.rng = rng
        self.submit = submit
        self.offered_load = offered_load_packets_per_cycle
        self._scale = 1.0
        self.rebind(pattern)
        # Stats.
        self.packets_offered = 0
        self.packets_accepted = 0
        self.packets_refused = 0
        self.bits_offered = 0

    @classmethod
    def for_offered_gbps(
        cls,
        pattern: TrafficPattern,
        offered_gbps: float,
        rng: random.Random,
        submit: Callable[[Packet], bool],
        clock_hz: float = 2.5e9,
    ) -> "TrafficGenerator":
        """Build from an aggregate offered bandwidth in Gb/s."""
        bw_set = pattern.bw_set
        if bw_set is None:
            raise ValueError("pattern must be bound first")
        packets_per_cycle = offered_gbps * 1e9 / bw_set.packet_bits / clock_hz
        return cls(pattern, packets_per_cycle, rng, submit)

    def rebind(self, pattern: TrafficPattern) -> None:
        """Inject from *pattern* from the next :meth:`tick` on.

        *pattern* is a newly bound pattern, or the current one after an
        in-place change (a moved hotspot, a shifted app mix): either
        way the per-core weights are sampled afresh and the
        probabilities recomputed at the current scale. Counters and the
        RNG stream are untouched, so a scenario's phases share one
        generator and one set of run totals.
        """
        bw_set = pattern.bw_set
        if bw_set is None:
            raise ValueError("pattern must be bound before building a generator")
        weights = pattern.source_weights()
        total = sum(weights)
        if total <= 0:
            raise ValueError("pattern weights must sum to a positive value")
        self.pattern = pattern
        self.bw_set: BandwidthSet = bw_set
        # Uncapped per-core rates; the active probabilities cap at 1.
        self._base_rates = [self.offered_load * w / total for w in weights]
        self._apply_scale()

    def _apply_scale(self) -> None:
        scale = self._scale
        #: (core, probability) of the cores that can inject: a core at
        #: probability 0 draws nothing from the RNG.
        self._active = []
        for core, rate in enumerate(self._base_rates):
            # ``min(1.0, p)`` without the builtin call: identical for every
            # float, NaN included (min keeps 1.0 unless p is strictly less).
            p = rate * scale
            p = p if p < 1.0 else 1.0
            if p > 0.0:
                self._active.append((core, p))

    def set_scale(self, scale: float) -> None:
        """Rescale the offered load without rebuilding the generator.

        Scenario players modulate demand over time by calling this at
        phase boundaries (or every cycle for ramps). ``scale == 1``
        reproduces the constructor's probabilities exactly, so a
        never-modulated generator is bit-identical to the legacy path.
        """
        if scale < 0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        if scale == self._scale:
            return
        self._scale = scale
        self._apply_scale()

    def is_idle(self) -> bool:
        """True when every per-core probability is zero.

        :meth:`tick` draws only for cores with a nonzero probability, so
        skipping a fully-zeroed generator consumes no randomness and
        cannot desynchronise the stream.
        """
        return not self._active

    def tick(self, cycle: int) -> None:
        """One injection round: Bernoulli trial per core."""
        rng = self.rng
        pattern = self.pattern
        bw_set = self.bw_set
        draw = rng.random
        for core, probability in self._active:
            if draw() >= probability:
                continue
            dst = pattern.pick_destination(core, rng)
            packet = Packet(
                src=core,
                dst=dst,
                n_flits=bw_set.packet_flits,
                flit_bits=bw_set.flit_bits,
                created_cycle=cycle,
                bw_class=pattern.class_of_cluster(pattern.cluster_of(core)),
            )
            self.packets_offered += 1
            self.bits_offered += packet.size_bits
            if self.submit(packet):
                self.packets_accepted += 1
            else:
                self.packets_refused += 1

    @property
    def acceptance_ratio(self) -> float:
        if self.packets_offered == 0:
            return 1.0
        return self.packets_accepted / self.packets_offered

    def reset_stats(self) -> None:
        self.packets_offered = 0
        self.packets_accepted = 0
        self.packets_refused = 0
        self.bits_offered = 0
