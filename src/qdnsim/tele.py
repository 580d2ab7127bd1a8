"""Teleportation transport: window control and per-slot reservation.

Each session announces a sending window, every node on the path checks the
announced demand against its pool, and the window is halved exactly once
if any node reports congestion.  Windows then grow again: doubling in slow
start, plus one in congestion avoidance.  Two variants are provided: an
explicit per-node fair share (EW) and a fair-share threshold check that
keeps the halving dynamics (FRA).  ``next_window`` states the window rule
for one session and ``advance_windows`` for columns of them; both
transports' tables step their windows by it.

A run keeps every live session as one row of a ``SessionTable``, a
``memory.FlowColumns`` that holds each session's reservation points from
its admission on (``memory.path_points`` of its path at
``memory.TELE_PRICES``, tied by session id, with no floor); each scheme
reserves over the table's ``memory.Incidence`` and returns the granted
windows and halved flags in session order, EW and FRA from the fair
shares the table holds per set of rows.  A finite session leaves by
``FlowColumns.count_down`` in the slot it delivers its last qubit, the
countdown tell-and-go flows share.  ``TeleSession`` is one row
as fields, the scalar reference the table is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .memory import (TELE_PRICES, UNBOUNDED, FlowColumns, Incidence,
                     PoolTable, path_points, reserve)
from .routing import Path
from .trace import PHASE_WORDS

#: Window a session announces in its first slot unless it asks otherwise.
INITIAL_WINDOW = 1


class Phase(Enum):
    SLOW_START = "SS"
    AVOIDANCE = "CA"


#: A table row's phase code indexes these; ``trace.PHASE_WORDS`` holds
#: their words, and the code ``NO_PHASE`` for an EW row's ``-`` after them.
PHASES = (Phase.SLOW_START, Phase.AVOIDANCE)
NO_PHASE = PHASE_WORDS.index("-")


def next_window(window: int, phase: Phase, congested: bool) -> tuple[int, Phase]:
    """One window-control step: returns (next window, next phase).

    A congestion signal halves the window before transfer and moves the
    session to avoidance; afterwards the window doubles in slow start or
    grows by one in avoidance, and never falls below 1.
    """
    if congested:
        granted = window // 2
        phase = Phase.AVOIDANCE
    else:
        granted = window
    if phase is Phase.SLOW_START:
        upcoming = 2 * granted
    else:
        upcoming = granted + 1
    return max(1, upcoming), phase


def advance_windows(window: np.ndarray, phase: np.ndarray,
                    congested: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``next_window`` for every row of window and phase-code columns: a
    congested row's window shifts right by one and its code becomes 1, the
    ``AVOIDANCE`` code; then a window adds itself in slow start (code 0) or
    one in avoidance."""
    window = window >> congested
    phase = phase | congested
    return np.maximum(1, window + np.where(phase, 1, window)), phase


@dataclass
class TeleSession:
    """One end-to-end flow with its sending-window state: one
    ``SessionTable`` row as fields."""

    id: int
    remaining: int | None  # None means an unbounded stream
    window: int = INITIAL_WINDOW
    phase: Phase = Phase.SLOW_START

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def advance_window(self, congested: bool) -> None:
        """Move window state to the next slot's announcement."""
        self.window, self.phase = next_window(self.window, self.phase, congested)

    def transfer(self, granted: int) -> int:
        """Teleport up to the granted window; returns qubits delivered."""
        if self.remaining is None:
            return granted
        delivered = min(granted, self.remaining)
        self.remaining -= delivered
        return delivered


def reserve_teleport(windows: np.ndarray, points: Incidence, pools: PoolTable,
                     shares: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Announced-window reservation, by ``memory.reserve``; no ``shares``."""
    return reserve(pools, points, windows)


def _fair_shares(points: Incidence, pools: PoolTable, n: int) -> np.ndarray:
    """Per-session floor(C/N) minimum over path nodes, N counted per node,
    for ``n`` sessions of at least one point each, in session order.

    C is the largest window a node supports for one session: a repeater
    backs it with transit units at the send price; an end host must be
    able to play either role, so the smaller of its send and receive
    pools, each at its ``TELE_PRICES`` price, limits it.  Nodes are found
    by ``PoolTable.by_node``, where a kind a node lacks (-1) sets no limit.
    """
    num, den = TELE_PRICES[:, pools.kind]
    room = np.append(pools.capacity * den // num, np.iinfo(np.int64).max)
    capacity = room[pools.by_node].min(axis=0)
    node = pools.node[points.pool]
    count = np.maximum(np.bincount(node, minlength=len(capacity)), 1)
    return np.minimum.reduceat((capacity // count)[node],
                               np.searchsorted(points.rank, np.arange(n)))


def _hold(points: Incidence, granted: np.ndarray, pools: PoolTable) -> None:
    """``PoolTable.hold`` of ``granted`` at a session table's points,
    priced as each point's price times its session's grant: the
    ``TELE_PRICES`` are whole and there is no floor."""
    pools.add(points.pool, points.num * granted[points.rank])


def reserve_explicit(windows: np.ndarray, points: Incidence, pools: PoolTable,
                     shares: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Explicit-window variant: every node splits evenly among its sessions.

    No window is announced; each node grants floor(C/N) window units to
    each of its N traversing sessions and a session uses the smallest
    grant along its path: ``shares()``, the ``_fair_shares`` of the rows.
    """
    granted = shares()
    _hold(points, granted, pools)
    return granted, np.zeros(len(windows), dtype=bool)


def reserve_fair(windows: np.ndarray, points: Incidence, pools: PoolTable,
                 shares: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Fair-share threshold variant: halve a request above ``shares()``."""
    congested = windows > shares()
    granted = np.where(congested, windows // 2, windows)
    _hold(points, granted, pools)
    return granted, congested


def release_surplus(points: Incidence, granted: np.ndarray,
                    delivered: np.ndarray, pools: PoolTable) -> None:
    """Give back ``cost(granted) - cost(delivered)`` at every point: its
    price times the units not delivered, as a session table's points have
    whole prices and no floor."""
    surplus = granted - delivered
    if surplus.any():
        pools.reserved = pools.reserved - pools.sums(
            points.pool, points.num * surplus[points.rank])


class SessionTable(FlowColumns):
    """Every live teleportation session of a run: one ``TeleSession`` per
    row, held as ``FlowColumns``, in admission order.

    ``phase`` indexes ``PHASES`` and ``remaining`` is ``UNBOUNDED`` for an
    unbounded stream.  A row's points are its path's ``path_points``, tied
    by its session id and with no floor.  Each slot reserves by ``scheme``,
    which may ask for ``shares``; under the ``explicit`` (EW) rule a row
    announces its grant, records ``NO_PHASE`` and keeps its window.
    """

    def __init__(self, pools: PoolTable, scheme: Callable, explicit: bool):
        super().__init__("session", "window", "phase", "remaining")
        self.pools, self.scheme, self.explicit = pools, scheme, explicit
        self._shares: np.ndarray | None = None

    def shares(self) -> np.ndarray:
        """The rows' ``_fair_shares``, held until the rows change."""
        if self._shares is None:
            self._shares = _fair_shares(self.incidence(), self.pools,
                                        len(self.session))
        return self._shares

    def admit(self, sessions: list[tuple[int, Path, int | None, int | None]]
              ) -> None:
        """Append one slot's sessions, each ``(id, path, qubits, initial
        window)``, in order."""
        if not sessions:
            return
        session, paths, qubits, window = zip(*sessions)
        nodes = [path.nodes for path in paths]
        length = [len(each) for each in nodes]
        super().admit(
            (*path_points(self.pools, session, nodes, TELE_PRICES),
             np.repeat(session, length)),
            session=session, length=length,
            window=[each or INITIAL_WINDOW for each in window],
            remaining=[UNBOUNDED if each is None else each for each in qubits])
        self._shares = None

    def step(self) -> tuple[np.ndarray, ...]:
        """One slot for every session: reserve, transfer up to the grant,
        give back what the grant did not carry, advance the windows and
        count the deliveries down by ``count_down``; the shares are
        recomputed once sessions leave.  Returns the slot's trace columns
        in ``SessionRow`` field order after ``slot``, the phase as its
        code; ties go to the lower session id."""
        n = len(self.session)
        points = self.incidence()
        granted, congested = self.scheme(self.window, points, self.pools, self.shares)
        delivered = np.where(self.remaining == UNBOUNDED, granted,
                             np.minimum(granted, self.remaining))
        release_surplus(points, granted, delivered, self.pools)
        zeros = np.zeros(n, dtype=np.int64)
        if self.explicit:
            window, phase = granted, np.full(n, NO_PHASE, dtype=np.int64)
        else:
            window, phase = self.window, self.phase
            self.window, self.phase = advance_windows(self.window, self.phase,
                                                      congested)
        record = (self.session, zeros, window, congested.astype(np.int64),
                  granted, delivered, phase, zeros, zeros, zeros, zeros)
        if self.count_down(delivered):
            self._shares = None
        return record
