"""Quantum memory pools, partition schemes, and window-halving assignment.

Memory is the scarce resource every reservation counts in.  A node's pool
grants each session either its full requested window or half of it: when
total demand exceeds capacity, sessions are cut in descending-window order
until the remainder fits.  Demands may carry a floor of units that cannot
be evicted (stored sharings, in-flight sender blocks); a cut below the
floor releases nothing but the assignment still never overcommits.
``assign_memory`` states that rule for one pool over ``Demand`` objects
and ``MemoryPool`` one pool's running total; both are the scalar reference
the array pass is tested against.

A run keeps its pools in a ``PoolTable``: sorted ``(node, kind)`` keys and
int64 ``node``, ``capacity`` and ``reserved`` columns.  A slot's requests
(sessions or hops) reserve at points, one ``Incidence`` row each: pool
index, request rank, tie id, unit cost as an integer numerator and
denominator, and floor.  Both transports keep their flows in
``FlowColumns``, which holds every point but a per-slot floor from the
flow's admission on.  ``reserve`` runs both transports' two passes over
all points at once.  Pass 1 applies ``assign_memory``'s rule at every pool
and marks a request iff some pool cuts it; pass 2, ``PoolTable.hold``,
adds the cost of each granted window at each point, so a request is halved
at most once per slot.  Reservations last one slot: the engine clears the
table after its snapshot, and the floors come from session state (the
tell-and-go hop counters), not from what a pool held the slot before.

Pool totals are ``np.bincount`` sums, exact while below 2**53.  The run
configuration bounds capacities and initial windows by ``MAX_UNITS`` and
sessions by ``MAX_SESSIONS``.  A window then stays at most
``2 * MAX_UNITS + 1`` (an unhalved window fits a pool, and the next one
at most doubles it), so a point costs below 2**32 units, floors included,
and a pool, crossed at most once per session, totals below 2**52.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

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

#: Largest capacity, node capacity and initial window a run accepts, and
#: its largest session count; they keep every pool total exact (above).
MAX_UNITS = 2**29
MAX_SESSIONS = 2**20


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


@dataclass
class MemoryPool:
    """One node-side pool: what a ``PoolTable`` is built from, and the
    scalar reference for a pool's running total.

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
            raise _overcommit(self.node, self.kind, units, free, self.capacity)
        if units < -self.reserved:
            raise ValueError(f"pool {self.kind}@{self.node}: cannot return "
                             f"{-units} of {self.reserved} reserved")
        self.reserved += units

    def clear(self) -> None:
        self.reserved = 0


def _overcommit(node: int, kind: str, units: int, free: int,
                capacity: int) -> CapacityExceededError:
    return CapacityExceededError(
        f"pool {kind}@{node}: reserving {units} with only {free} of "
        f"{capacity} free")


class Incidence(NamedTuple):
    """One slot's reservation points in hold order: request by request,
    each request's points in order.  Every field has one entry per point.
    Among equal windows at a pool, the lower ``tie`` is cut first."""

    pool: np.ndarray   # index into the PoolTable
    rank: np.ndarray   # the request's position, non-decreasing
    tie: np.ndarray
    num: np.ndarray    # unit cost numerator
    den: np.ndarray    # unit cost denominator
    floor: np.ndarray

    def costs(self, windows: np.ndarray) -> np.ndarray:
        """``cost`` at every point of its request's entry in ``windows``."""
        return np.maximum(-(-self.num * windows[self.rank] // self.den),
                          self.floor)


#: The reservation point columns of ``FlowColumns``, in admit order.
POINT_COLUMNS = ("pool", "tie", "num", "den", "floor")


class FlowColumns:
    """A flow table's live rows as named columns, 1-D or rows x rounds,
    and each row's reservation points, fixed when the row is admitted.

    ``length`` counts each row's points and ``rank`` gives each point's
    row.  The points are held in row order as the ``POINT_COLUMNS``: pool
    index, tie id, unit cost numerator and denominator, and a standing
    floor.
    """

    def __init__(self, *names: str, **columns: np.ndarray):
        """No rows: empty int64 columns ``names``, and the empty
        ``columns`` given."""
        self._rows = (*names, *columns, "length")
        for name in (*names, "length", "rank", *POINT_COLUMNS):
            setattr(self, name, np.zeros(0, dtype=np.int64))
        vars(self).update(columns)

    def admit(self, points: Iterable[np.ndarray], **rows: np.ndarray) -> None:
        """Append rows given as columns, ``length`` among them and any
        column left out zero, and their points as the ``POINT_COLUMNS``."""
        n = len(rows["length"])
        for name in self._rows:
            column = getattr(self, name)
            new = rows.get(name, np.zeros((n, *column.shape[1:]), column.dtype))
            setattr(self, name, np.concatenate(
                [column, np.asarray(new, dtype=column.dtype)]))
        for name, new in zip(POINT_COLUMNS, points):
            setattr(self, name, np.concatenate([getattr(self, name), new]))
        self.rank = np.repeat(np.arange(len(self.length)), self.length)

    def retire(self, live: np.ndarray) -> None:
        """Keep the rows ``live`` marks, and their points."""
        kept = np.repeat(live, self.length)
        for name in self._rows:
            setattr(self, name, getattr(self, name)[live])
        for name in POINT_COLUMNS:
            setattr(self, name, getattr(self, name)[kept])
        self.rank = np.repeat(np.arange(len(self.length)), self.length)

    def incidence(self, floor: np.ndarray | None = None) -> Incidence:
        """The points as a slot's ``Incidence``; ``floor``, one entry per
        point, replaces the standing floor."""
        return Incidence(self.pool, self.rank, self.tie, self.num, self.den,
                         self.floor if floor is None else floor)


def _running(segments: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inclusive sums of ``values`` that restart wherever ``segments``, a
    sorted key per value, changes."""
    total = np.cumsum(values)
    starts = np.flatnonzero(np.r_[True, segments[1:] != segments[:-1]])
    lengths = np.diff(np.r_[starts, len(values)])
    return total - np.repeat(total[starts] - values[starts], lengths)


class PoolTable:
    """Every pool of a run, in sorted ``(node, kind)`` key order.

    ``node``, ``capacity`` and ``reserved`` are int64 columns.
    ``reserved`` is the current slot's total per pool and stays within
    ``[0, capacity]``: ``hold`` raises instead of overcommitting.
    """

    def __init__(self, pools: Iterable[MemoryPool]):
        pools = sorted(pools, key=lambda pool: (pool.node, pool.kind))
        self.keys = [(pool.node, pool.kind) for pool in pools]
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.node = np.array([pool.node for pool in pools], dtype=np.int64)
        self.capacity = np.array([pool.capacity for pool in pools],
                                 dtype=np.int64)
        self.reserved = np.zeros_like(self.capacity)

    def sums(self, pool: np.ndarray, units: np.ndarray) -> np.ndarray:
        """``units`` summed per pool index ``pool``, over the whole table."""
        return np.bincount(pool, units, len(self.keys)).astype(np.int64)

    def hold(self, points: Incidence, granted: np.ndarray) -> None:
        """Reserve the cost of each request's ``granted`` window at each of
        its points.  An overcommit raises for the first point, in hold
        order, whose pool's running total passes capacity, as
        ``MemoryPool.require`` would, and leaves the table unchanged."""
        units = points.costs(granted)
        reserved = self.reserved + self.sums(points.pool, units)
        if (reserved > self.capacity).any():
            order = np.argsort(points.pool, kind="stable")
            pool = points.pool[order]
            after = np.empty_like(units)
            after[order] = self.reserved[pool] + _running(pool, units[order])
            first = np.flatnonzero(after > self.capacity[points.pool])[0]
            index, units = points.pool[first], int(units[first])
            capacity = int(self.capacity[index])
            raise _overcommit(*self.keys[index], units,
                              capacity - int(after[first]) + units, capacity)
        self.reserved = reserved

    def clear(self) -> None:
        self.reserved[:] = 0


def reserve(pools: PoolTable, points: Incidence,
            windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reserve one slot's memory; a request is halved at most once.

    Pass 1: at every pool over capacity, ``assign_memory``'s order (window
    descending, then ``tie``) cuts a point iff the pool's total, less the
    savings of the points cut before it, still exceeds capacity; a pool
    still over after cutting every point raises, the first in key order.
    A request is halved iff any of its points was cut.  Pass 2 holds the
    final windows.  Returns the granted windows and the halved flags, in
    request order.
    """
    full = points.costs(windows)
    total = pools.sums(points.pool, full)
    congested = np.zeros(len(windows), dtype=bool)
    over = np.flatnonzero((total > pools.capacity)[points.pool])
    if len(over):
        saving = full - points.costs(windows // 2)
        over = over[np.lexsort((points.tie[over], -windows[points.rank[over]],
                                points.pool[over]))]
        pool, saving = points.pool[over], saving[over]
        left = total[pool] - _running(pool, saving)  # after this cut
        cut = left + saving > pools.capacity[pool]
        last = np.r_[pool[1:] != pool[:-1], True]
        short = np.flatnonzero(last & (left > pools.capacity[pool]))
        if len(short):
            first = short[0]
            node, kind = pools.keys[pool[first]]
            raise InfeasibleReservationError(
                f"pool {kind}@{node}: demand {int(left[first])} exceeds "
                f"capacity {int(pools.capacity[pool[first]])} after cutting "
                f"all")
        congested[points.rank[over[cut]]] = True
    granted = np.where(congested, windows // 2, windows)
    pools.hold(points, granted)
    return granted, congested
