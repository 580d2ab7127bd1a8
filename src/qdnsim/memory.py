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
int64 ``node``, ``kind``, ``capacity`` and ``reserved`` columns.  A slot's
requests (sessions or hops) reserve at points, one ``Incidence`` row each:
pool index, request rank, tie id, unit cost as an integer numerator and
denominator, and floor.  Both transports keep their flows in
``FlowColumns``, which holds every point but a per-slot floor from the
flow's admission on, as ``path_points`` lays them out by the transport's
price table.  ``reserve`` runs both transports' two passes over
all points at once.  Pass 1 prices and sums each point's window once, and
holds those sums if no pool is over capacity; else it prices the halves,
sums the savings at over pools, applies ``assign_memory``'s rule at each
and marks a request iff some pool cuts it.  Pass 2 holds the costs pass 1
priced for the granted windows, so a request is halved at most once per
slot.  Reservations last one slot: the engine clears the table after its
snapshot, and the floors come from session state (the tell-and-go hop
counters), not from what a pool held the slot before.

Pool totals are ``np.bincount`` sums, exact while below 2**53.  The run
configuration bounds capacities and initial windows by ``MAX_UNITS`` and
sessions by ``MAX_SESSIONS``.  A window then stays at most
``2 * MAX_UNITS + 1`` (an unhalved window fits a pool, and the next one
at most doubles it), so a point costs below 2**32 units, floors included,
a pool, crossed at most once per session, totals below 2**52, and pass 1
orders its cuts by one exact int64 key, ``pool * 2**31 - window``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (CapacityExceededError, ConfigError,
                     InfeasibleReservationError)
from .trace import WORDS

#: Quantum computers split memory between sending and receiving roles.
TELE_SPLIT = Fraction(2, 3)
TAG_SPLIT = Fraction(9, 13)

#: Units of memory needed per window unit, by role.  Whole prices are ints:
#: the fair-share variants floor-divide by them at every node every slot.
RECEIVE_COST = 1
TELE_SEND_COST = 2   # also transit at repeaters
TAG_SEND_COST = Fraction(9, 4)

#: Each transport's unit costs by pool kind code (send, receive, transit)
#: as int numerator and denominator rows.  Tell-and-go never transits.
TELE_PRICES, TAG_PRICES = (
    np.array([cost.as_integer_ratio() for cost in costs]).T
    for costs in ((TELE_SEND_COST, RECEIVE_COST, TELE_SEND_COST),
                  (TAG_SEND_COST, RECEIVE_COST, TAG_SEND_COST)))
_SEND, _RECEIVE, _TRANSIT = map(WORDS["pool"].index,
                                ("send", "receive", "transit"))

#: Send units a tell-and-go sender holds per in-flight qubit: 3 sharings.
TAG_QUBIT_UNITS = 3

#: Largest capacity, node capacity and initial window a run accepts, and
#: its largest session count; they keep every pool total exact (above).
MAX_UNITS = 2**29
MAX_SESSIONS = 2**20


def partition(total: int, send_fraction: Fraction) -> tuple[int, int]:
    """Split a capacity into (send, receive) pools; send takes the floor,
    in integer arithmetic."""
    if total < 0:
        raise ValueError("capacity must be non-negative")
    send = send_fraction.numerator * total // send_fraction.denominator
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


def path_points(pools: PoolTable, ids: Sequence[int],
                paths: Sequence[Sequence[int]],
                prices: np.ndarray) -> np.ndarray:
    """Node sequences' reservation points, path after path: pool indices,
    then unit cost numerators and denominators, each its pool kind's
    column of ``prices``.  A path's first node sends, its last receives
    and each between transits (for both its entanglement links).  Every
    node must have the pool its role needs: a ``ConfigError`` names the
    first node that lacks it and its path's ``ids`` entry as a session."""
    length = np.array([len(path) for path in paths], dtype=np.int64)
    node = np.fromiter(chain.from_iterable(paths), np.int64, length.sum())
    last = np.cumsum(length) - 1
    kind = np.full(len(node), _TRANSIT)
    kind[last - length + 1] = _SEND
    kind[last] = _RECEIVE
    pool = pools.by_node[kind, np.minimum(node, pools.by_node.shape[1] - 1)]
    if (pool < 0).any():
        at = np.flatnonzero(pool < 0)[0]
        raise ConfigError(
            f"session {ids[np.searchsorted(last, at)]}: node {node[at]} has "
            f"no {WORDS['pool'][kind[at]]} pool")
    return np.array([pool, *prices[:, kind]])


#: The reservation point columns of ``FlowColumns``, in admit order.
POINT_COLUMNS = ("pool", "num", "den", "tie")


class FlowColumns:
    """A flow table's live rows as named columns, 1-D or rows x rounds,
    and each row's reservation points, fixed when the row is admitted.

    ``length`` counts each row's points and ``rank`` gives each point's
    row.  The points are held in row order as the ``POINT_COLUMNS``: pool
    index, unit cost numerator and denominator (``path_points``), and tie
    id.
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
        """The points as a slot's ``Incidence``, floored by ``floor``, one
        entry per point, or by 0."""
        return Incidence(self.pool, self.rank, self.tie, self.num, self.den,
                         np.zeros_like(self.pool) if floor is None else floor)


def _running(segments: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Inclusive sums of ``values`` that restart wherever ``segments``, a
    sorted key per value, changes."""
    total = np.cumsum(values)
    start = np.arange(len(values))
    start[1:][segments[1:] == segments[:-1]] = 0
    return total - (total - values)[np.maximum.accumulate(start)]


class PoolTable:
    """Every pool of a run, in sorted ``(node, kind)`` key order.

    ``node``, ``kind`` (a ``trace.WORDS`` code), ``capacity`` and
    ``reserved`` are int64 columns.  ``by_node[kind]`` is that kind's pool
    index per node id, -1 where the node has none, up to one column past
    the last pool's node.
    ``reserved`` is the current slot's total per pool and stays within
    ``[0, capacity]``: ``hold`` raises instead of overcommitting.
    """

    def __init__(self, pools: Iterable[MemoryPool]):
        pools = sorted(pools, key=lambda pool: (pool.node, pool.kind))
        self.keys = [(pool.node, pool.kind) for pool in pools]
        self.index = {key: i for i, key in enumerate(self.keys)}
        self.node = np.array([pool.node for pool in pools], dtype=np.int64)
        self.kind = np.array([WORDS["pool"].index(kind) for _, kind in self.keys],
                             dtype=np.int64)
        self.capacity = np.array([pool.capacity for pool in pools], dtype=np.int64)
        self.reserved = np.zeros_like(self.capacity)
        width = self.node.max(initial=-1) + 2
        self.by_node = np.full((len(WORDS["pool"]), width), -1, dtype=np.int64)
        self.by_node[self.kind, self.node] = np.arange(len(self.keys))

    def sums(self, pool: np.ndarray, units: np.ndarray) -> np.ndarray:
        """``units`` summed per pool index ``pool``, over the whole table."""
        return np.bincount(pool, units, len(self.keys)).astype(np.int64)

    def hold(self, points: Incidence, granted: np.ndarray) -> None:
        """Reserve the cost of each request's ``granted`` window at each of
        its points.  An overcommit raises for the first point, in hold
        order, whose pool's running total passes capacity, as
        ``MemoryPool.require`` would, and leaves the table unchanged."""
        self.add(points.pool, points.costs(granted))

    def add(self, pool: np.ndarray, units: np.ndarray) -> None:
        """``hold`` of ``units``, already priced, at the points at pools
        ``pool``."""
        reserved = self.reserved + self.sums(pool, units)
        if (reserved > self.capacity).any():
            order = np.argsort(pool, kind="stable")
            after = np.empty_like(units)
            after[order] = self.reserved[pool[order]] + _running(
                pool[order], units[order])
            first = np.flatnonzero(after > self.capacity[pool])[0]
            index, units = pool[first], int(units[first])
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
    costs of the final windows, as pass 1 priced them.  Returns the
    granted windows (``windows`` itself when no pool is over) and the
    halved flags, in request order.
    """
    full = points.costs(windows)
    total = pools.sums(points.pool, full)
    congested = np.zeros(len(windows), dtype=bool)
    excess = total - pools.capacity
    over = np.flatnonzero((excess > 0)[points.pool])
    if not len(over):
        reserved = pools.reserved + total
        if (reserved > pools.capacity).any():
            pools.add(points.pool, full)  # raises for the first point
        pools.reserved = reserved
        return windows, congested
    half = points.costs(windows // 2)
    pool, saving = points.pool[over], full[over] - half[over]
    saved = pools.sums(pool, saving)  # if every point at an over pool is cut
    short = np.flatnonzero(saved < excess)
    if len(short):
        first = short[0]
        node, kind = pools.keys[first]
        raise InfeasibleReservationError(
            f"pool {kind}@{node}: demand {int(total[first] - saved[first])} "
            f"exceeds capacity {int(pools.capacity[first])} after cutting all")
    # Pool, window descending, then tie; windows stay below 2**31 (above).
    order = np.lexsort((points.tie[over],
                        pool * 2**31 - windows[points.rank[over]]))
    over, pool, saving = over[order], pool[order], saving[order]
    # A point is cut iff the savings cut before it at its pool are below
    # the pool's excess; ``before`` sums the savings at lower pools.
    before = np.cumsum(saved) - saved
    cut = np.cumsum(saving) - saving < (before + excess)[pool]
    congested[points.rank[over[cut]]] = True
    pools.add(points.pool, np.where(congested[points.rank], half, full))
    return np.where(congested, windows // 2, windows), congested
