"""SWMR data channels and broadcast reservation channels.

The crossbar fabric is "a Single Write Multiple Read (SWMR) photonic
crossbar. Cores are grouped in clusters and each cluster will have a data
channel consisting of multiple DWDM wavelengths to all other clusters"
(thesis 3.1). Writes are reservation-assisted (R-SWMR, fig. 2-3): a
broadcast reservation flit precedes the data so only the destination's
demodulators turn on.

:class:`DataChannel` is the per-cluster write channel state machine: it
serializes flits at ``5 bits/cycle/wavelength`` (12.5 Gb/s per wavelength
at 2.5 GHz) over however many wavelengths the current transmission was
granted; what it queues and launches are counts of flits.
:class:`ReservationBroadcastChannel` delivers reservation flits
and ACK/NACK responses with waveguide propagation delays.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from repro.noc.flit import Flit
from repro.photonic.reservation import ReservationFlit
from repro.photonic.wavelength import bits_per_cycle
from repro.sim.engine import NEVER


class ChannelError(RuntimeError):
    """Raised on protocol misuse of a photonic channel."""


@dataclass
class ActiveTransmission:
    """Book-keeping for the packet currently on the write channel.

    ``per_cycle`` (credit earned each cycle, 5 bits per wavelength) and
    ``queue_target`` (flits kept queued at the modulators: one plus a
    cycle's worth) are fixed by :meth:`DataChannel.begin`, as wavelengths
    and flit size are from ACK to last flit. The modulator queue is the
    count ``pending`` of flits ``flit_bits`` wide (the width of the flits
    fed; one packet's flits are all as wide), so a queued flit is nothing
    but its place in line.
    """

    reservation: ReservationFlit
    expected_flits: int
    n_wavelengths: int
    per_cycle: float
    flit_bits: int
    queue_target: int
    pending: int = 0
    fed: int = 0
    launched: int = 0
    bit_credit: float = 0.0


class DataChannel:
    """One cluster's SWMR write channel.

    After its reservation is ACKed the owner calls :meth:`begin`, then
    *feeds* flits from the source buffer as they become available
    (:meth:`top_up` from a buffer that holds the whole packet, or
    :meth:`feed` one flit at a time); each
    :meth:`tick` returns how many flits' last bit left the modulators this
    cycle (the caller forwards them to the destination with the waveguide
    propagation delay). The channel accumulates ``5 bits/cycle/wavelength``
    of credit only while it has flits to send -- light with nothing
    modulated onto it carries nothing.

    Statistics track busy cycles and *wavelength-cycles lit* -- the
    quantity behind Firefly's demodulator-energy penalty (section 3.3.1).
    """

    def __init__(self, owner_cluster: int, clock_hz: float = 2.5e9):
        self.owner_cluster = owner_cluster
        self.clock_hz = clock_hz
        self._active: Optional[ActiveTransmission] = None
        self.reset_stats()

    @property
    def busy(self) -> bool:
        return self._active is not None

    def begin(
        self,
        reservation: ReservationFlit,
        expected_flits: int,
        flit_bits: int,
        n_wavelengths: int,
        cycle: int,
    ) -> None:
        """Start the packet ACKed at *cycle* and fix its plan."""
        if self._active is not None:
            raise ChannelError(
                f"channel {self.owner_cluster} already transmitting packet "
                f"{self._active.reservation.packet_id}"
            )
        if n_wavelengths <= 0:
            raise ChannelError(f"need >= 1 wavelength, got {n_wavelengths}")
        if expected_flits <= 0:
            raise ChannelError("expected_flits must be positive")
        if flit_bits <= 0:
            raise ChannelError("flit_bits must be positive")
        per_cycle = bits_per_cycle(n_wavelengths, self.clock_hz)
        self._active = ActiveTransmission(
            reservation=reservation,
            expected_flits=expected_flits,
            n_wavelengths=n_wavelengths,
            per_cycle=per_cycle,
            flit_bits=flit_bits,
            queue_target=1 + math.ceil(per_cycle / flit_bits),
        )

    def wanted_flits(self) -> int:
        """How many more flits the feeder should supply right now.

        Keeps roughly one cycle's worth of serialization buffered so the
        modulators never starve while the source VC has data.
        """
        active = self._active
        if active is None:
            return 0
        wanted = active.queue_target - active.pending
        remaining = active.expected_flits - active.fed
        if remaining < wanted:
            wanted = remaining
        return wanted if wanted > 0 else 0

    def feed(self, flit: Flit) -> None:
        """Queue one flit at the modulators (flits already queued must
        be as wide)."""
        active = self._active
        if active is None:
            raise ChannelError("feed() with no active transmission")
        if active.fed >= active.expected_flits:
            raise ChannelError("feed() beyond expected_flits")
        if active.pending and flit.bits != active.flit_bits:
            raise ChannelError(
                f"{flit.bits}-bit flit queued behind {active.flit_bits}-bit ones"
            )
        active.flit_bits = flit.bits
        active.pending += 1
        active.fed += 1

    def top_up(self, flit_bits: int) -> int:
        """Queue the :meth:`wanted_flits` of a feeder that holds the rest
        of the transmission (store-and-forward: the whole packet is
        buffered before its reservation), each *flit_bits* wide; return
        how many were queued."""
        active = self._active
        # wanted_flits(), inlined: this runs every streaming cycle.
        wanted = active.queue_target - active.pending
        remaining = active.expected_flits - active.fed
        if remaining < wanted:
            wanted = remaining
        if wanted <= 0:
            return 0
        active.flit_bits = flit_bits
        active.pending += wanted
        active.fed += wanted
        return wanted

    def tick(self, cycle: int) -> int:
        """Advance one cycle; return how many flits completed in it."""
        active = self._active
        if active is None:
            return 0
        self.busy_cycles += 1
        self.wavelength_cycles_lit += active.n_wavelengths
        pending = active.pending
        if not pending:
            # Feeder starved the channel: lit but idle.
            self.stalled_cycles += 1
            active.bit_credit = 0.0
            return 0
        # One float add per cycle, one subtract per flit: the credit's
        # rounding history is pinned behaviour.
        credit = active.bit_credit + active.per_cycle
        bits = active.flit_bits
        done = 0
        while done < pending and credit >= bits:
            credit -= bits
            done += 1
        active.bit_credit = credit
        if done:
            active.pending = pending - done
            active.launched += done
            self.bits_transmitted += bits * done
            self.flits_transmitted += done
            if active.launched >= active.expected_flits:
                self.packets_transmitted += 1
                self._active = None
        return done

    def reset_stats(self) -> None:
        self.busy_cycles = 0
        self.stalled_cycles = 0
        self.bits_transmitted = 0
        self.flits_transmitted = 0
        self.packets_transmitted = 0
        self.wavelength_cycles_lit = 0


class ReservationBroadcastChannel:
    """Per-source reservation waveguide with delayed delivery.

    Carries reservation flits source -> destination and ACK/NACK responses
    destination -> source. Each cluster writes on its own dedicated
    reservation waveguide (Firefly [20]: "a reservation request is
    broadcast on separate channels"), so there is no inter-source
    contention; a source can have one outstanding reservation at a time.

    ``due`` is the cycle the next flit or response lands (``NEVER`` while
    nothing is in flight): :meth:`broadcast` and :meth:`respond` lower
    it, and :meth:`tick` sets it from what stays queued before it hands
    anything over, so a response sent from a delivery lowers it itself.
    """

    def __init__(self, owner_cluster: int, propagation_cycles: int = 1):
        if propagation_cycles < 1:
            raise ValueError("propagation_cycles must be >= 1")
        self.owner_cluster = owner_cluster
        self.propagation_cycles = propagation_cycles
        #: (due_cycle, reservation, deliver_cb)
        self._outbound: Deque[Tuple[int, ReservationFlit, Callable]] = deque()
        #: (due_cycle, reservation, accepted, deliver_cb)
        self._responses: Deque[Tuple[int, ReservationFlit, bool, Callable]] = deque()
        self.due = NEVER
        self.reset_stats()

    def broadcast(
        self,
        reservation: ReservationFlit,
        serialization_cycles: int,
        cycle: int,
        deliver: Callable[[ReservationFlit], None],
        flit_bits: int = 0,
    ) -> int:
        """Send *reservation*; returns the cycle it reaches the destination.

        Latency modelled: serialization + propagation. Demodulator
        turn-on costs energy (the reception window), not cycles.
        """
        if serialization_cycles < 1:
            raise ValueError("serialization_cycles must be >= 1")
        due = cycle + serialization_cycles + self.propagation_cycles
        self._outbound.append((due, reservation, deliver))
        if due < self.due:
            self.due = due
        self.reservations_sent += 1
        self.reservation_bits_sent += flit_bits
        return due

    def respond(
        self,
        reservation: ReservationFlit,
        accepted: bool,
        cycle: int,
        deliver: Callable[[ReservationFlit, bool], None],
    ) -> int:
        """Destination's ACK/NACK; returns arrival cycle at the source."""
        due = cycle + self.propagation_cycles
        self._responses.append((due, reservation, accepted, deliver))
        if due < self.due:
            self.due = due
        return due

    def tick(self, cycle: int) -> None:
        outbound, responses = self._outbound, self._responses
        arrived = []
        while outbound and outbound[0][0] <= cycle:
            arrived.append(outbound.popleft())
        answered = []
        while responses and responses[0][0] <= cycle:
            answered.append(responses.popleft())
        self.due = self.earliest_landing()
        # A response sent from a delivery lands a cycle later at least
        # (``propagation_cycles >= 1``): never among those answered now.
        for _due, reservation, deliver in arrived:
            deliver(reservation)
        for _due, reservation, accepted, deliver in answered:
            deliver(reservation, accepted)

    def earliest_landing(self) -> int:
        """The cycle the next flit or response in flight lands, from the
        queues (``NEVER`` for none)."""
        due = self._outbound[0][0] if self._outbound else NEVER
        if self._responses and self._responses[0][0] < due:
            due = self._responses[0][0]
        return due

    @property
    def in_flight(self) -> int:
        return len(self._outbound) + len(self._responses)

    def reset_stats(self) -> None:
        self.reservations_sent = 0
        self.reservation_bits_sent = 0
