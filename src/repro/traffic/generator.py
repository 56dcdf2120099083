"""Bernoulli packet-injection processes.

The generator turns a bound :class:`~repro.traffic.patterns.TrafficPattern`
plus an *offered load* (aggregate packets per cycle) into per-core
injection: each cycle, core *i* starts a new packet with probability
``offered_load * weight_i``. Injection queues are bounded; packets offered
to a full queue are refused and counted, which caps the backlog past
saturation (matching the thesis's accounting of dropped traffic).

Each cycle's coins are ``random()`` calls on the ``traffic`` stream, two
32-bit Mersenne-Twister words each. :class:`ReadAheadStream` reads those
words in blocks and hands them out exactly as CPython would, so the
generator can screen a block of coins at once and knows the tick of its
next injection before it gets there.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Dict

from repro.api.base import check_float
from repro.noc.flit import Packet
from repro.sim.engine import NEVER
from repro.traffic.bandwidth_sets import BandwidthSet
from repro.traffic.patterns import TrafficPattern

#: Words a :class:`ReadAheadStream` reads from its source at a time.
BLOCK_WORDS = 2048
#: The ``memoryview`` format of an unsigned 32-bit word.
_WORD = next(code for code in "IL" if memoryview(bytes(8)).cast(code).itemsize == 4)
#: ``random()``'s scale: 53 bits of two words, as CPython builds it.
_TWO_TO_MINUS_53 = 1.0 / 9007199254740992.0
#: Candidate coins past the current tick a search checks exactly
#: before it stops at the next (the first search after a new scale
#: checks none).
_SEARCH_CHECKS = 8


class ReadAheadStream(random.Random):
    """A ``random.Random`` over words read ahead from *source* in blocks.

    ``source.getrandbits(32 * n)`` returns the next *n* 32-bit words of
    *source*'s Mersenne Twister, the first in the lowest bits.
    :meth:`random` and :meth:`getrandbits` consume those words exactly
    as CPython consumes its own -- two per ``random()``, one per 32 bits
    asked for, the last shifted right -- so every method built on them
    (``randrange``, ``choice``, ``shuffle``, ...) returns what it would
    return on *source* itself. *source* runs ahead of what has been
    consumed, so it must have no other reader.

    The window of words read and not consumed is at most a few blocks:
    a read drops what has been consumed before it fetches more.
    """

    def __init__(self, source: random.Random):
        super().__init__(0)
        self._source = source
        #: Little-endian bytes of the window; ``_words`` are its words.
        self._raw = b""
        self._words = memoryview(b"").cast(_WORD)
        #: Absolute index of ``_words[0]``; the next word is ``_i``.
        self._base = 0
        self._i = 0
        self._n = 0
        #: Bumped by every read, so views of the window know they are stale.
        self.reads = 0

    def position(self) -> int:
        """Absolute index of the next word to be consumed."""
        return self._base + self._i

    def seek(self, position: int) -> None:
        """Consume up to absolute word *position* (never backwards)."""
        self._i = position - self._base

    def fill(self, end: int) -> None:
        """Read blocks until the window reaches absolute word *end*,
        dropping the consumed words first (words consumed past the
        window are read and dropped too)."""
        start = self._base + self._i
        read = self._base + self._n
        skipped = max(0, start - read)
        count = BLOCK_WORDS * max(
            1, -(-(end - max(start, read)) // BLOCK_WORDS)
        )
        fresh = self._source.getrandbits(32 * (skipped + count)).to_bytes(
            4 * (skipped + count), "little"
        )
        raw = self._raw[4 * self._i:] + fresh[4 * skipped:]
        if sys.byteorder == "little":
            words = memoryview(raw).cast(_WORD)
        else:
            native = bytearray(len(raw))
            for byte in range(4):
                native[byte::4] = raw[3 - byte::4]
            words = memoryview(native).cast(_WORD)
        self._raw, self._words = raw, words
        self._base = start
        self._i = 0
        self._n = len(words)
        self.reads += 1

    def random(self) -> float:
        i = self._i
        if i + 2 > self._n:
            self.fill(self._base + i + 2)
            i = 0
        self._i = i + 2
        words = self._words
        return ((words[i] >> 5) * 67108864.0 + (words[i + 1] >> 6)) * _TWO_TO_MINUS_53

    def getrandbits(self, k: int) -> int:
        if k <= 32:
            if k <= 0:
                if k < 0:
                    raise ValueError("number of bits must be non-negative")
                return 0
            i = self._i
            if i >= self._n:
                self.fill(self._base + i + 1)
                i = 0
            self._i = i + 1
            return self._words[i] >> (32 - k)
        count = (k + 31) >> 5
        i = self._i
        if i + count > self._n:
            self.fill(self._base + i + count)
            i = 0
        self._i = i + count
        words = self._words
        last = count - 1
        value = (words[i + last] >> (32 * count - k)) << (32 * last)
        for j in range(last):
            value |= words[i + j] << (32 * j)
        return value


#: ``bytes.translate`` tables of the coin screen, by threshold: a top
#: byte below the threshold maps to 1, any other to 0.
_SCREENS: Dict[int, bytes] = {}


def _screen(threshold: int) -> bytes:
    table = _SCREENS.get(threshold)
    if table is None:
        table = _SCREENS[threshold] = bytes(
            1 if byte < threshold else 0 for byte in range(256)
        )
    return table


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
        The generator reads it ahead through a :class:`ReadAheadStream`
        and must be its only reader.
    submit:
        Callback receiving each injected :class:`Packet`; returns ``True``
        if the network accepted it, ``False`` to refuse (refusals are
        counted, not retried).

    Tick *t* flips one coin per core with a nonzero probability, in core
    order, each a ``random()`` of two words; an injecting coin is
    followed by the words its destination pick consumes. Between two
    injections the coins are therefore a regular array of words, and
    the generator screens a window of them at once: a coin whose first
    word has a top byte of at least ``256 * p_max`` cannot come up below
    the largest probability ``p_max``, so only the others are checked
    exactly. The generator knows the tick of its next injection
    (:meth:`next_wake`), and every tick before it consumes its coins and
    changes nothing else, so :meth:`skip_cycles` accounts a span of them.
    :meth:`set_scale` and :meth:`rebind` re-derive the next injection
    from the first coin of the next tick. The results are bit for bit
    those of calling ``rng.random()`` per core per tick.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        offered_load_packets_per_cycle: float,
        rng: random.Random,
        submit: Callable[[Packet], bool],
    ):
        check_float("offered_load_packets_per_cycle",
                    offered_load_packets_per_cycle)
        self.rng = ReadAheadStream(rng)
        self.submit = submit
        self.offered_load = offered_load_packets_per_cycle
        self._scale = 1.0
        #: Ticks run or skipped so far: the index of the next one.
        self._ticks = 0
        #: The first coin not known to come up tails: its tick, its
        #: index in ``_active`` and its first word; ``_hit`` once it is
        #: known to inject.
        self._scan_tick = self._scan_core = self._scan_word = 0
        self._hit = False
        #: The first tick that may inject, or where the search resumes.
        self._next_tick = NEVER
        self._active = []
        self._screen_key = None
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
        # Uncapped per-core rates; a probability is ``rate * scale``
        # capped at 1.
        self._base_rates = [self.offered_load * w / total for w in weights]
        self._max_rate = max(self._base_rates)
        self._min_rate = min(
            (rate for rate in self._base_rates if rate > 0.0), default=0.0
        )
        self._apply_scale(self._first_unticked_word(), rebuild=True)

    def _draws_every_rated_core(self, scale: float) -> bool:
        """True when at *scale* exactly the cores with a positive rate
        draw: a finite positive scale under which no product underflows
        (``rate * scale`` is monotone in the rate)."""
        return 0.0 < scale < math.inf and self._min_rate * scale > 0.0

    def _apply_scale(self, word: int, rebuild: bool) -> None:
        """Restart the search at the next tick, whose first coin is
        *word*, under the current scale; with *rebuild*, re-derive which
        cores draw first."""
        scale = self._scale
        if rebuild:
            #: (core, rate) of the cores that can inject: a core at
            #: probability 0 draws nothing from the RNG. ``not p <= 0.0``
            #: keeps a NaN probability, which caps to 1.0 (the coin check
            #: takes the same product and caps it).
            self._active = [
                (core, rate) for core, rate in enumerate(self._base_rates)
                if not rate * scale <= 0.0
            ]
        self._scan_tick, self._scan_core, self._scan_word = self._ticks, 0, word
        self._hit = False
        self._next_tick = self._ticks if self._active else NEVER
        # A scale set every tick (a modulated phase) would discard what
        # a search past this tick found: the first one looks no further.
        self._checks = 0
        # No coin whose top byte is at least this can come up heads
        # (``rate * scale`` is monotone in the rate, so the largest
        # rate gives the largest probability).
        p_max = self._max_rate * scale
        self._threshold = math.ceil((p_max if p_max < 1.0 else 1.0) * 256)

    def _first_unticked_word(self) -> int:
        """The first word of the next tick's first coin: every coin
        between it and the scan came up tails, two words each."""
        active = self._active
        if not active:
            return self._scan_word
        return self._scan_word - 2 * (
            (self._scan_tick - self._ticks) * len(active) + self._scan_core
        )

    def set_scale(self, scale: float) -> None:
        """Rescale the offered load without rebuilding the generator.

        Scenario players modulate demand over time by calling this at
        phase boundaries (or every cycle for ramps). ``scale == 1``
        reproduces the constructor's probabilities exactly, so a
        never-modulated generator is bit-identical to the legacy path.
        O(1) unless the set of cores that draw can change: a scale to or
        from 0, a non-finite one, or one under which a rate underflows.
        """
        if scale < 0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        if scale == self._scale:
            return
        # The next tick's first coin, under the cores drawing until now.
        word = self._first_unticked_word()
        rebuild = not (self._draws_every_rated_core(self._scale)
                       and self._draws_every_rated_core(scale))
        self._scale = scale
        self._apply_scale(word, rebuild)

    def next_wake(self, cycle: int) -> int:
        """The cycle of the first tick from this one (at *cycle*) on that
        may inject; ``NEVER`` when no core draws.

        Every coin of a tick before it comes up tails, so such a tick
        changes nothing but the position in the stream, which
        :meth:`skip_cycles` advances the same way. At a tick where the
        search stopped short of an injection it goes on from here.
        """
        ticks = self._ticks
        if ticks >= self._next_tick:
            self.rng.seek(self._first_unticked_word())
            if self._search(ticks):
                return cycle
        if self._next_tick >= NEVER:
            return NEVER
        return cycle + self._next_tick - ticks

    def skip_cycles(self, start_cycle: int, stop_cycle: int) -> None:
        """Account the ticks of ``[start_cycle, stop_cycle)`` before the
        next injection, as that many :meth:`tick` calls would."""
        self._ticks += stop_cycle - start_cycle

    def tick(self, cycle: int) -> None:
        """One injection round: Bernoulli trial per core."""
        if self._ticks >= self._next_tick:
            self._run_tick(cycle)
        self._ticks += 1

    def _run_tick(self, cycle: int) -> None:
        """Inject this tick's packets, then find the next injection."""
        rng = self.rng
        rng.seek(self._first_unticked_word())
        tick = self._ticks
        active = self._active
        pattern = self.pattern
        bw_set = self.bw_set
        while self._search(tick):
            index = self._scan_core
            core = active[index][0]
            rng.seek(self._scan_word + 2)
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
            # The coins go on with the next core, after the pick's words.
            if index + 1 < len(active):
                self._scan_core = index + 1
            else:
                self._scan_tick, self._scan_core = tick + 1, 0
            self._scan_word = rng.position()
            self._hit = False

    def _search(self, tick: int) -> bool:
        """Move the scan to the next injecting coin: True when it falls
        in *tick*. Otherwise set ``_next_tick`` to its tick -- or, when
        the window or the check budget runs out first, to the tick where
        the search resumes."""
        if self._hit:
            if self._scan_tick == tick:
                return True
            self._next_tick = self._scan_tick
            return False
        rng = self.rng
        active = self._active
        size = len(active)
        checks, self._checks = self._checks, _SEARCH_CHECKS
        scan_tick, scan_core, word = (
            self._scan_tick, self._scan_core, self._scan_word
        )
        base, end, words = rng._base, rng._n, rng._words
        screens = self._screens()
        scale = self._scale
        while True:
            rel = word - base
            if rel + 2 > end:
                if scan_tick > tick:
                    break
                rng.fill(word + 2)
                base, end, words = rng._base, rng._n, rng._words
                screens = self._screens()
                continue
            screen = screens[rel & 1]
            start = rel >> 1
            found = screen.find(1, start)
            tails = (len(screen) if found < 0 else found) - start
            if tails:
                scan_core += tails
                if scan_core >= size:
                    scan_tick += scan_core // size
                    scan_core %= size
                word += 2 * tails
                continue
            # A candidate: check it exactly, or resume the search there.
            if scan_tick > tick:
                if not checks:
                    break
                checks -= 1
            draw = ((words[rel] >> 5) * 67108864.0
                    + (words[rel + 1] >> 6)) * _TWO_TO_MINUS_53
            # ``min(1.0, p)`` without the builtin call; NaN caps to 1.0.
            p = active[scan_core][1] * scale
            if draw < (p if p < 1.0 else 1.0):
                self._hit = True
                break
            scan_core += 1
            if scan_core == size:
                scan_tick += 1
                scan_core = 0
            word += 2
        self._scan_tick, self._scan_core, self._scan_word = (
            scan_tick, scan_core, word
        )
        if self._hit and scan_tick == tick:
            return True
        self._next_tick = scan_tick
        return False

    def _screens(self):
        """One flag per coin position of the window, for the coins on
        even and on odd words (counted from the window's start): 1 where
        the coin is a candidate."""
        rng = self.rng
        key = (rng.reads, self._threshold)
        if key != self._screen_key:
            table = _screen(self._threshold)
            raw = rng._raw
            self._screen_pair = (
                raw[3::8].translate(table), raw[7::8].translate(table)
            )
            self._screen_key = key
        return self._screen_pair

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
