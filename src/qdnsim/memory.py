"""Quantum memory pools, partition schemes, and window-halving assignment.

Memory is the scarce resource every reservation counts in.  A node's pool
grants each session either its full requested window or half of it: when
total demand exceeds capacity, sessions are cut in descending-window order
until the remainder fits.  Demands may carry a floor of units that cannot
be evicted (stored sharings, in-flight sender blocks); a cut below the
floor releases nothing but the assignment still never overcommits.
Both transports reserve through ``reserve_two_pass``, which runs the
assignment at every pool and halves a session at most once per slot.  A
session reserves at fixed points, ``(pool key, unit cost, floor)``: ``cost``
prices a window at one, and ``hold`` adds that cost at each of a session's
points with ``MemoryPool.require``.  A pool keeps only its reserved total:
reservations last one slot, the engine clears every pool after its
snapshot, and the floors come from session state (the tell-and-go hop
counters), not from what a pool held the slot before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import CapacityExceededError, InfeasibleReservationError

#: Quantum computers split memory between sending and receiving roles.
TELE_SPLIT = Fraction(2, 3)
TAG_SPLIT = Fraction(9, 13)

#: Units of memory needed per window unit, by role.  Whole prices are ints:
#: the fair-share variants floor-divide by them at every node every slot.
RECEIVE_COST = 1
TELE_SEND_COST = 2   # also transit at repeaters
TAG_SEND_COST = Fraction(9, 4)

#: Send units a tell-and-go sender holds per in-flight qubit: 3 sharings.
TAG_QUBIT_UNITS = 3


def partition(total: int, send_fraction: Fraction) -> tuple[int, int]:
    """Split a capacity into (send, receive) pools; send takes the floor."""
    if total < 0:
        raise ValueError("capacity must be non-negative")
    send = math.floor(send_fraction * total)
    return send, total - send


def cost(unit_cost: int | Fraction, window: int, floor: int = 0) -> int:
    """Memory for ``window`` at ``unit_cost`` per unit: the exact integer
    ceiling, at least ``floor``."""
    return max(-(-unit_cost.numerator * window // unit_cost.denominator), floor)


def hold(points: list[tuple], window: int, pools: dict) -> None:
    """Reserve the ``cost`` of ``window`` at each of ``points``."""
    for key, unit_cost, floor in points:
        pools[key].require(cost(unit_cost, window, floor))


@dataclass(frozen=True)
class Demand:
    """One session's per-slot memory request at a node.

    ``unit_cost`` is the memory needed per window unit; ``floor`` is the
    non-evictable minimum the session already holds at this pool.
    """

    session: int | tuple
    window: int
    unit_cost: int | Fraction = RECEIVE_COST
    floor: int = 0

    def cost(self, window: int) -> int:
        """``memory.cost`` of ``window`` at this demand's price and floor."""
        return cost(self.unit_cost, window, self.floor)


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


def reserve_two_pass(requests: list[tuple], pools: dict) -> list[Grant]:
    """Reserve one slot's memory; a session is halved at most once.

    Each request is ``(session, announced window, points)``.  Pass 1:
    every pool, in sorted key order, runs ``assign_memory`` over the
    demands crossing it and marks the sessions it cuts.  Pass 2: a session
    is halved iff any pool marked it, and ``hold`` reserves at each of its
    points exactly the cost of the final window (floors honoured).  Returns
    the grants in request order.
    """
    per_pool: dict = {}
    for session, window, points in requests:
        for key, unit_cost, floor in points:
            per_pool.setdefault(key, []).append(
                Demand(session, window, unit_cost, floor))

    marked: set = set()
    for key in sorted(per_pool):
        pool = pools[key]
        try:
            grants = assign_memory(per_pool[key], pool.capacity)
        except InfeasibleReservationError as exc:
            raise InfeasibleReservationError(
                f"pool {pool.kind}@{pool.node}: {exc}") from exc
        marked.update(s for s, grant in grants.items() if grant.congested)

    outcomes = []
    for session, window, points in requests:
        congested = session in marked
        granted = window // 2 if congested else window
        outcomes.append(Grant(granted, congested))
        hold(points, granted, pools)
    return outcomes


@dataclass
class MemoryPool:
    """A node-side pool's reserved total for the current slot.

    ``require`` and ``clear`` are its only mutators.  ``reserved`` stays
    within ``[0, capacity]``: ``require`` raises instead of overcommitting
    or returning more than is reserved, and leaves the total unchanged.
    """

    node: int
    kind: str
    capacity: int
    reserved: int = field(default=0, init=False)

    def require(self, units: int) -> None:
        """Reserve ``units`` more; a negative count returns units."""
        free = self.capacity - self.reserved
        if units > free:
            raise CapacityExceededError(
                f"pool {self.kind}@{self.node}: reserving {units} with only "
                f"{free} of {self.capacity} free"
            )
        if units < -self.reserved:
            raise ValueError(f"pool {self.kind}@{self.node}: cannot return "
                             f"{-units} of {self.reserved} reserved")
        self.reserved += units

    def clear(self) -> None:
        self.reserved = 0
