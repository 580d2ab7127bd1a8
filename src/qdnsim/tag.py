"""Tell-and-go transport with (2,3)-threshold sharing delivery.

A data qubit is encoded into three sharings, any two of which recover it.
The sender transmits the first sharing, then the second; if the second is
lost, the retained third sharing is re-encoded and the process recurses
one round deeper.  The receiver must store every first sharing it has
accepted until a matching second arrives, at which point the whole chain
is released.  A per-slot scheduler bounds how many first and second
sharings may be sent so that the receiver's window is never overrun and
the sender never needs more than three memory units per in-flight qubit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tele import Phase, next_window

INITIAL_WINDOW = 2


class Stage(Enum):
    FIRST = "first"     # next transmission is the round's first sharing
    SECOND = "second"   # first sharing stored at receiver; second pending
    DELIVERED = "delivered"


@dataclass
class SharingTransfer:
    """Delivery state machine position for one in-flight data qubit."""

    qubit: int
    round: int = 0
    stage: Stage = Stage.FIRST

    @property
    def stored_at_receiver(self) -> int:
        """First sharings the receiver holds for this qubit."""
        if self.stage is Stage.FIRST:
            return self.round
        if self.stage is Stage.SECOND:
            return self.round + 1
        return 0


def advance(transfer: SharingTransfer, success: bool) -> tuple[int, bool]:
    """Apply one transmission outcome; returns (receiver delta, delivered).

    A failed first sharing costs nothing: the sender recovers the qubit
    from its two retained sharings and re-encodes.  A successful first is
    stored at the receiver.  A failed second deepens the recursion: the
    retained third sharing is re-encoded into the next round's three
    sharings.  A successful second reconstructs the qubit and releases all
    stored first sharings at once.
    """
    if transfer.stage is Stage.DELIVERED:
        raise ValueError("qubit already delivered")
    if transfer.stage is Stage.FIRST:
        if success:
            transfer.stage = Stage.SECOND
            return 1, False
        return 0, False
    if success:
        released = transfer.round + 1
        transfer.stage = Stage.DELIVERED
        return -released, True
    transfer.round += 1
    transfer.stage = Stage.FIRST
    return 0, False


@dataclass(frozen=True)
class ChannelModel:
    """Per-sharing success probability; outcomes sampled independently."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"success probability must be in [0, 1], got {self.p}")

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.p)


@dataclass
class Plan:
    """Sharings chosen for one slot, highest-round qubits first."""

    seconds: list[SharingTransfer]
    firsts: list[SharingTransfer]
    encodes: int  # queued qubits to encode and send a first sharing for

    @property
    def first_count(self) -> int:
        return len(self.firsts) + self.encodes

    @property
    def second_count(self) -> int:
        return len(self.seconds)


@dataclass
class HopSession:
    """One hop of a tell-and-go flow, with its own sending window.

    ``queue`` holds data qubits awaiting encoding; the ingress hop mints
    them from ``unminted`` supply, downstream hops receive them from the
    upstream relay.  ``queue_bound`` limits relay queues so memory pressure
    propagates backwards (None for the ingress hop's own application data).
    """

    session: int
    hop: int
    sender: int
    receiver: int
    window: int = INITIAL_WINDOW
    phase: Phase = Phase.SLOW_START
    in_flight: dict[int, SharingTransfer] = field(default_factory=dict)
    queue: deque = field(default_factory=deque)
    unminted: int | None = 0
    queue_bound: int | None = None
    next_qubit: int = 0

    @property
    def stored_firsts(self) -> int:
        return sum(t.stored_at_receiver for t in self.in_flight.values())

    @property
    def queued(self) -> int | float:
        """Qubits available to encode; ``math.inf`` for unbounded supply."""
        if self.unminted is None:
            return math.inf
        return len(self.queue) + self.unminted

    @property
    def queue_free(self) -> int | None:
        if self.queue_bound is None:
            return None
        return self.queue_bound - len(self.queue)

    def announce(self) -> int:
        return self.window

    def apply_slot(self, congested: bool) -> None:
        # The window grows every slot regardless of deliveries.
        self.window, self.phase = next_window(self.window, self.phase, congested)

    def encode_next(self) -> SharingTransfer:
        """Encode one queued qubit into three sharings (3 sender units)."""
        if self.queue:
            qubit = self.queue.popleft()
        elif self.unminted is None or self.unminted > 0:
            qubit = self.next_qubit
            self.next_qubit += 1
            if self.unminted is not None:
                self.unminted -= 1
        else:
            raise ValueError("nothing queued to encode")
        transfer = SharingTransfer(qubit)
        self.in_flight[qubit] = transfer
        return transfer

    def accept(self, qubit: int) -> None:
        """Enqueue a qubit handed over by the upstream hop."""
        if self.queue_free is not None and self.queue_free <= 0:
            raise OverflowError(
                f"relay queue full on hop {self.hop} of session {self.session}"
            )
        self.queue.append(qubit)

    def complete(self, transfer: SharingTransfer) -> int:
        """Remove a delivered qubit from flight; returns its id."""
        del self.in_flight[transfer.qubit]
        return transfer.qubit


def plan_transfers(
    hop: HopSession,
    granted: int,
    receiver_free: int,
    encode_blocks_free: int,
    downstream_free: int | None = None,
) -> Plan:
    """Choose this slot's sharings under the window and memory budgets.

    Second sharings go first (they release receiver memory), picked from
    the highest-round qubits; then first sharings, also highest round
    first, topped up by freshly encoded qubits.  With ``s`` first sharings
    already stored, the first-sharing budget is capped at
    ``max(0, granted//2 + seconds - s)`` so the stored backlog is steered
    toward half a window, and the total never exceeds three quarters of
    the window.  First sharings additionally fit into the receiver's free
    units; seconds only require one free unit in total, because a lost
    second never lands and a delivered one releases its whole chain.
    """
    stored = hop.stored_firsts
    budget = (3 * granted) // 4

    pending = sorted(
        (t for t in hop.in_flight.values() if t.stage is Stage.SECOND),
        key=lambda t: (-t.round, t.qubit),
    )
    # One free unit admits any number of seconds: a lost second never
    # occupies memory and a successful one releases its whole chain.
    second_cap = min(len(pending), budget) if receiver_free >= 1 else 0
    if downstream_free is not None:
        second_cap = min(second_cap, downstream_free)
    seconds = pending[: max(0, second_cap)]
    second_count = len(seconds)

    first_cap = min(
        max(0, granted // 2 + second_count - stored),
        budget - second_count,
        receiver_free,
        max(0, granted - stored - second_count),
    )
    first_cap = max(0, first_cap)
    waiting = sorted(
        (t for t in hop.in_flight.values() if t.stage is Stage.FIRST),
        key=lambda t: (-t.round, t.qubit),
    )
    firsts = waiting[:first_cap]
    encodes = min(first_cap - len(firsts), hop.queued, max(0, encode_blocks_free))
    return Plan(seconds=seconds, firsts=firsts, encodes=encodes)
