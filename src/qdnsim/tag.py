"""Tell-and-go transport with (2,3)-threshold sharing delivery.

A data qubit is encoded into three sharings, any two of which recover it.
The sender transmits the first sharing, then the second; if the second is
lost, the retained third sharing is re-encoded and the process recurses
one round deeper.  The receiver must store every first sharing it has
accepted until a matching second arrives, at which point the whole chain
is released.  A per-slot scheduler bounds how many first and second
sharings may be sent so that the receiver's window is never overrun and
the sender never needs more than three memory units per in-flight qubit.

A hop keeps counts, not qubits: how many of its in-flight qubits sit at
each (stage, round), the first sharings its receiver stores, and its relay
queue as a backlog count.  This is exact.  No trace field names a qubit and
the scheduler picks by round alone, so qubits at the same stage and round
are interchangeable and the per-qubit chain lumps into these counts
(Kemeny & Snell, *Finite Markov Chains*, ch. 6): every trace is the same
whichever qubit takes which outcome.  ``SharingTransfer`` and ``advance``
remain the single-qubit state machine that the counts lump.

A session is a ``TagFlow`` of hops (``TagFlow.admit``).  Every per-hop
memory rule lives in ``reserve_sharing``, which reserves a slot's memory
for all hops and returns the budgets ``plan_transfers`` spends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DeadlockError
from .memory import (RECEIVE_COST, TAG_QUBIT_UNITS, TAG_SEND_COST, Incidence,
                     PoolTable, reserve)
from .routing import Path
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

    def draw(self, rng: np.random.Generator, n: int) -> list[bool]:
        """Outcomes of ``n`` sharings, in order; one uniform draw each,
        except at p = 0 or 1, whose outcomes are certain and use no draw."""
        if self.p in (0.0, 1.0):
            return [self.p == 1.0] * n
        return (rng.random(n) < self.p).tolist()


@dataclass
class Plan:
    """Sharings chosen for one slot, as ``(round, count)`` bins.

    ``seconds`` and ``firsts`` each run from the highest round down;
    ``encodes`` freshly encoded qubits send their first sharing after them.
    A plan is fixed before ``HopSession.send`` applies any outcome to it.
    """

    seconds: list[tuple[int, int]]
    firsts: list[tuple[int, int]]
    encodes: int  # queued qubits to encode and send a first sharing for

    @property
    def first_count(self) -> int:
        return sum(n for _, n in self.firsts) + self.encodes

    @property
    def second_count(self) -> int:
        return sum(n for _, n in self.seconds)


@dataclass
class HopSession:
    """One hop of a tell-and-go flow, with its own sending window.

    ``backlog`` counts data qubits handed over by the upstream relay and
    awaiting encoding; the ingress hop mints its qubits from ``unminted``
    supply (None for an unbounded stream).  ``queue_bound`` limits the
    backlog so memory pressure propagates backwards (None for the ingress
    hop).

    In-flight qubits are counts per stage and round: ``firsts[r]`` qubits
    of round ``r`` are due a first sharing and ``seconds[r]`` a second.
    ``first_total`` and ``second_total`` are their sums and
    ``stored_firsts`` counts the first sharings the receiver holds for
    them.  ``send`` keeps all of them up to date.

    A hop reserves at its sender's send pool and its receiver's receive
    pool (``reserve_sharing``).
    """

    session: int
    hop: int
    sender: int
    receiver: int
    window: int = INITIAL_WINDOW
    phase: Phase = Phase.SLOW_START
    backlog: int = 0
    unminted: int | None = 0
    queue_bound: int | None = None
    firsts: dict[int, int] = field(default_factory=dict, init=False)
    seconds: dict[int, int] = field(default_factory=dict, init=False)
    first_total: int = field(default=0, init=False)
    second_total: int = field(default=0, init=False)
    stored_firsts: int = field(default=0, init=False)

    @property
    def in_flight_count(self) -> int:
        return self.first_total + self.second_total

    @property
    def in_flight(self) -> _Seed:
        """Write-only: ``in_flight[q] = transfer`` adds a qubit to its bin."""
        return _Seed(self)

    @property
    def queued(self) -> int | float:
        """Qubits available to encode; ``math.inf`` for unbounded supply."""
        if self.unminted is None:
            return math.inf
        return self.backlog + self.unminted

    @property
    def queue_free(self) -> int | None:
        if self.queue_bound is None:
            return None
        return self.queue_bound - self.backlog

    def advance_window(self, congested: bool) -> None:
        """Move window state to the next slot's announcement; the window
        grows every slot regardless of deliveries."""
        self.window, self.phase = next_window(self.window, self.phase, congested)

    def send(self, plan: Plan, outcomes: list[bool]) -> int:
        """Apply one slot's outcomes to ``plan``; returns qubits delivered.

        ``outcomes`` has one entry per planned sharing, in plan order:
        seconds, firsts, then the ``plan.encodes`` fresh qubits (3 sender
        units each), taken from the backlog before the unminted supply.
        Per bin of ``n`` with ``ok`` successes, a second at round ``r``
        delivers ``ok`` qubits, releasing ``r + 1`` stored firsts each, and
        re-encodes ``n - ok`` at round ``r + 1``; a first moves ``ok``
        qubits to the seconds of round ``r``, storing one more first each.
        """
        encodes = plan.encodes
        if encodes > self.queued:
            raise ValueError("nothing queued to encode")
        from_backlog = min(encodes, self.backlog)
        self.backlog -= from_backlog
        if self.unminted is not None:
            self.unminted -= encodes - from_backlog

        firsts, seconds = self.firsts, self.seconds
        _add(firsts, 0, encodes)
        at = delivered = released = 0
        for round_, n in plan.seconds:
            ok = outcomes[at:at + n].count(True)
            at += n
            delivered += ok
            released += ok * (round_ + 1)
            _add(seconds, round_, -n)
            _add(firsts, round_ + 1, n - ok)
        seconds_sent = at
        for round_, n in (*plan.firsts, (0, encodes)):
            ok = outcomes[at:at + n].count(True)
            at += n
            _add(firsts, round_, -ok)
            _add(seconds, round_, ok)
        stored = outcomes.count(True) - delivered  # firsts that landed
        self.first_total += seconds_sent - delivered + encodes - stored
        self.second_total += stored - seconds_sent
        self.stored_firsts += stored - released
        return delivered

    def accept(self, n: int) -> None:
        """Enqueue ``n`` qubits handed over by the upstream hop."""
        if self.queue_free is not None and n > self.queue_free:
            raise OverflowError(
                f"relay queue full on hop {self.hop} of session {self.session}"
            )
        self.backlog += n


@dataclass
class TagFlow:
    """End-to-end tell-and-go session: a pipeline of hop sessions."""

    id: int
    hops: list[HopSession]
    remaining: int | None

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    @classmethod
    def admit(cls, sid: int, path: Path, qubits: int | None,
              initial_window: int | None, pools: PoolTable,
              switched: bool) -> TagFlow:
        """Session ``sid`` along ``path``: one hop per link over relays, one
        end-to-end hop when ``switched``.  The ingress hop mints ``qubits``;
        a relay hop queues what its sender's send pool can hold in flight."""
        nodes = (path.src, path.dst) if switched else path.nodes
        window = initial_window or INITIAL_WINDOW
        hops = [HopSession(session=sid, hop=0, sender=nodes[0],
                           receiver=nodes[1], window=window, unminted=qubits)]
        for index, sender in enumerate(nodes[1:-1], start=1):
            bound = (int(pools.capacity[pools.index[sender, "send"]])
                     // TAG_QUBIT_UNITS)
            hops.append(HopSession(session=sid, hop=index, sender=sender,
                                   receiver=nodes[index + 1], window=window,
                                   queue_bound=bound))
        return cls(id=sid, hops=hops, remaining=qubits)


def reserve_sharing(hops: list[HopSession], pools: PoolTable
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reserve one slot's memory for ``hops``, by ``memory.reserve``.

    Each hop reserves first at its sender's send pool, at 9/4 units per
    window unit (three sharings for at most three quarters of the window),
    then at its receiver's receive pool at one unit.  Their floors cannot
    be evicted: ``TAG_QUBIT_UNITS`` per qubit in flight, and
    ``stored_firsts``.  Ties go to the lower ``(session, hop)``.  Returns
    grants, halved flags and ``plan_transfers``' budgets in hop order:
    receive units and send blocks held above the floors.  Raises
    DeadlockError, for the first receive pool in node order, when the
    stored first sharings alone overfill it.
    """
    index = pools.index
    (send, receive, window, in_flight, stored, session,
     hop_id) = np.array([
        (index[hop.sender, "send"], index[hop.receiver, "receive"],
         hop.window, hop.in_flight_count, hop.stored_firsts,
         hop.session, hop.hop)
        for hop in hops], dtype=np.int64).reshape(-1, 7).T
    held = pools.sums(receive, stored)
    over = np.flatnonzero(held > pools.capacity)
    if len(over):
        raise DeadlockError(
            f"stored sharings ({int(held[over[0]])}) exceed receive pool at "
            f"node {pools.keys[over[0]][0]}")
    tie = session * (hop_id.max(initial=0) + 1) + hop_id
    n = len(hops)
    points = Incidence(
        pool=np.stack([send, receive], axis=1).ravel(),
        rank=np.repeat(np.arange(n), 2),
        tie=np.repeat(tie, 2),
        num=np.tile([TAG_SEND_COST.numerator, RECEIVE_COST], n),
        den=np.tile([TAG_SEND_COST.denominator, 1], n),
        floor=np.stack([TAG_QUBIT_UNITS * in_flight, stored], axis=1).ravel(),
    )
    granted, congested = reserve(pools, points, window)
    free = points.costs(granted) - points.floor
    return granted, congested, free[1::2], free[0::2] // TAG_QUBIT_UNITS


@dataclass
class _Seed:
    hop: HopSession

    def __setitem__(self, qubit: int, transfer: SharingTransfer) -> None:
        hop, first = self.hop, transfer.stage is Stage.FIRST
        if transfer.stage is Stage.DELIVERED:
            raise ValueError(f"cannot hold {transfer} in flight")
        _add(hop.firsts if first else hop.seconds, transfer.round, 1)
        hop.first_total += first
        hop.second_total += not first
        hop.stored_firsts += transfer.stored_at_receiver


def _add(bins: dict[int, int], round_: int, n: int) -> None:
    """Add ``n`` qubits (remove, if negative) to ``bins[round_]``; a bin
    that empties is dropped."""
    if n:
        left = bins.get(round_, 0) + n
        if left:
            bins[round_] = left
        else:
            del bins[round_]


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

    # One free unit admits any number of seconds: a lost second never
    # occupies memory and a successful one releases its whole chain.
    second_cap = min(hop.second_total, budget) if receiver_free >= 1 else 0
    if downstream_free is not None:
        second_cap = min(second_cap, downstream_free)
    second_count = max(0, second_cap)
    seconds = _take(hop.seconds, second_count)

    first_cap = min(
        max(0, granted // 2 + second_count - stored),
        budget - second_count,
        receiver_free,
        max(0, granted - stored - second_count),
    )
    first_cap = max(0, first_cap)
    firsts = _take(hop.firsts, first_cap)
    sent = min(first_cap, hop.first_total)
    encodes = min(first_cap - sent, hop.queued, max(0, encode_blocks_free))
    return Plan(seconds=seconds, firsts=firsts, encodes=encodes)


def _take(bins: dict[int, int], count: int) -> list[tuple[int, int]]:
    """Up to ``count`` qubits of ``bins`` as ``(round, n)`` pairs, highest
    round first."""
    if count <= 0:
        return []
    picked = []
    for round_ in sorted(bins, reverse=True):
        if count <= 0:
            break
        n = min(bins[round_], count)
        picked.append((round_, n))
        count -= n
    return picked
