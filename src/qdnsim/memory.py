"""Quantum memory pools, partition schemes, and window-halving assignment.

Memory is the scarce resource every reservation counts in.  A node's pool
grants each session either its full requested window or half of it: when
total demand exceeds capacity, sessions are cut in descending-window order
until the remainder fits.  Demands may carry a floor of units that cannot
be evicted (stored sharings, in-flight sender blocks); a cut below the
floor releases nothing but the assignment still never overcommits.
Both transports reserve through ``reserve_two_pass``, which runs the
assignment at every pool and halves a session at most once per slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapacityExceededError, InfeasibleReservationError

#: Quantum computers split memory between sending and receiving roles.
TELE_SPLIT = Fraction(2, 3)
TAG_SPLIT = Fraction(9, 13)

#: Units of memory needed per window unit, by role.
RECEIVE_COST = Fraction(1)
TELE_SEND_COST = Fraction(2)   # also transit at repeaters
TAG_SEND_COST = Fraction(9, 4)


def partition(total: int, send_fraction: Fraction) -> tuple[int, int]:
    """Split a capacity into (send, receive) pools; send takes the floor."""
    if total < 0:
        raise ValueError("capacity must be non-negative")
    send = math.floor(send_fraction * total)
    return send, total - send


@dataclass(frozen=True)
class Demand:
    """One session's per-slot memory request at a node.

    ``unit_cost`` is the memory needed per window unit; ``floor`` is the
    non-evictable minimum the session already holds at this pool.
    """

    session: int | tuple
    window: int
    unit_cost: Fraction = Fraction(1)
    floor: int = 0

    def cost(self, window: int) -> int:
        """Memory for ``window``: exact integer ceiling, at least the floor."""
        unit = self.unit_cost
        return max(-(-unit.numerator * window // unit.denominator), self.floor)


@dataclass(frozen=True)
class Grant:
    window: int
    congested: bool


def assign_memory(demands: list[Demand], capacity: int) -> dict:
    """Grant each demand its window or half of it, never overcommitting.

    Demands are processed in descending-window order (ties: smaller session
    id first).  If everything fits, all grants are full.  Otherwise sessions
    are halved one by one, each cut releasing ``cost(W) - cost(floor(W/2))``
    units of remaining demand, until the remainder fits; sessions after the
    cut prefix keep full grants.  Raises InfeasibleReservationError if
    demand still exceeds capacity after every session was cut once: floors,
    or a pool too small for the sessions crossing it.
    """
    order = sorted(demands, key=lambda d: (-d.window, d.session))
    grants = {d.session: Grant(d.window, False) for d in order}
    remaining = sum(d.cost(d.window) for d in order)
    if remaining <= capacity:
        return grants
    for demand in order:
        if remaining <= capacity:
            break
        halved = demand.window // 2
        remaining -= demand.cost(demand.window) - demand.cost(halved)
        grants[demand.session] = Grant(halved, True)
    if remaining > capacity:
        raise InfeasibleReservationError(
            f"demand {remaining} exceeds capacity {capacity} after cutting all"
        )
    return grants


def reserve_two_pass(requests: list[list[tuple]], pools: dict) -> dict:
    """Reserve one slot's memory; a session is halved at most once.

    Each request is one session's ``(pool key, Demand)`` points, all with
    the same session and announced window.  Pass 1: every pool, in sorted
    key order, runs ``assign_memory`` over the demands crossing it and
    marks the sessions it cuts.  Pass 2: a session is halved iff any pool
    marked it, and each of its pools is set to exactly the cost of the
    final window (floors honoured).  Returns session -> Grant.
    """
    per_pool: dict = {}
    for points in requests:
        for key, demand in points:
            per_pool.setdefault(key, []).append(demand)

    marked: set = set()
    for key in sorted(per_pool):
        pool = pools[key]
        try:
            grants = assign_memory(per_pool[key], pool.capacity)
        except InfeasibleReservationError as exc:
            raise InfeasibleReservationError(
                f"pool {pool.kind}@{pool.node}: {exc}") from exc
        marked.update(s for s, grant in grants.items() if grant.congested)

    outcomes: dict = {}
    for points in requests:
        session, window = points[0][1].session, points[0][1].window
        congested = session in marked
        granted = window // 2 if congested else window
        outcomes[session] = Grant(granted, congested)
        for key, demand in points:
            pools[key].require(session, demand.cost(granted))
    return outcomes


@dataclass
class MemoryPool:
    """A node-side pool with per-session reservations.

    The engine is the single writer within a slot; ``reserved``, the
    running sum of reservations, never exceeds capacity (reserve raises
    instead of overcommitting).
    """

    node: int
    kind: str
    capacity: int
    reserved: int = field(default=0, init=False)
    _held: dict = field(default_factory=dict, init=False)

    @property
    def free(self) -> int:
        return self.capacity - self.reserved

    def held(self, session) -> int:
        return self._held.get(session, 0)

    def reserve(self, session, units: int) -> None:
        if units < 0:
            raise ValueError("cannot reserve a negative amount")
        if units > self.free:
            raise CapacityExceededError(
                f"pool {self.kind}@{self.node}: reserving {units} with only "
                f"{self.free} of {self.capacity} free"
            )
        if units:
            self._held[session] = self._held.get(session, 0) + units
            self.reserved += units

    def release(self, session, units: int | None = None) -> None:
        held = self._held.get(session, 0)
        if units is None:
            units = held
        if units > held:
            raise ValueError(f"session {session} holds only {held} units")
        remaining = held - units
        if remaining:
            self._held[session] = remaining
        else:
            self._held.pop(session, None)
        self.reserved -= units

    def require(self, session, target: int) -> None:
        """Adjust a session's holding up or down to exactly ``target``."""
        held = self._held.get(session, 0)
        if target > held:
            self.reserve(session, target - held)
        elif target < held:
            self.release(session, held - target)

    def clear(self) -> None:
        self._held.clear()
        self.reserved = 0
