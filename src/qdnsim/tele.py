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
its admission on (``session_points``, tied by session id, with no floor);
each scheme reserves over the table's ``memory.Incidence`` and returns the
granted windows and halved flags in session order.  ``TeleSession`` is one
row as fields, the scalar reference the table is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .memory import (RECEIVE_COST, TELE_SEND_COST, FlowColumns, Incidence,
                     PoolTable, reserve)
from .routing import Path
from .trace import PHASE_WORDS

#: Window a session announces in its first slot unless it asks otherwise.
INITIAL_WINDOW = 1

#: A table's ``remaining`` (or ``unminted``) entry for an unbounded stream.
UNBOUNDED = -1


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
    """``next_window`` for every row of window and phase-code columns."""
    window = np.where(congested, window // 2, window)
    phase = np.where(congested, PHASES.index(Phase.AVOIDANCE), phase)
    slow = phase == PHASES.index(Phase.SLOW_START)
    return np.maximum(1, np.where(slow, 2 * window, window + 1)), phase


def session_points(path: Path, pools: PoolTable) -> np.ndarray:
    """A session's reservation points, fixed by its path: pool indices
    over unit costs.  The source's send pool, transit at each intermediate
    node (for both its entanglement links) and the destination's receive
    pool, none with a floor."""
    keys = [(path.src, "send"), *((node, "transit") for node in path.nodes[1:-1]),
            (path.dst, "receive")]
    prices = [TELE_SEND_COST] * (len(keys) - 1) + [RECEIVE_COST]
    return np.array([[pools.index[key] for key in keys], prices],
                    dtype=np.int64)


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


def reserve_teleport(windows: np.ndarray, points: Incidence,
                     pools: PoolTable) -> tuple[np.ndarray, np.ndarray]:
    """Announced-window reservation, by ``memory.reserve``."""
    return reserve(pools, points, windows)


def _fair_shares(points: Incidence, pools: PoolTable) -> np.ndarray:
    """Per-session floor(C/N) minimum over path nodes, N counted per node,
    in session order.

    C is the largest window a node supports for one session: a repeater
    backs it with transit units at the send price; an end host must be
    able to play either role, so the smaller of its send and receive
    pools, each at its own price, limits it.
    """
    firsts = np.r_[True, pools.node[1:] != pools.node[:-1]]
    slot = np.cumsum(firsts) - 1  # each pool's node, numbered densely
    prices = np.array([RECEIVE_COST if kind == "receive" else TELE_SEND_COST
                       for _, kind in pools.keys], dtype=np.int64)
    capacity = np.minimum.reduceat(pools.capacity // prices,
                                   np.flatnonzero(firsts))
    node = slot[points.pool]
    share = capacity[node] // np.bincount(node)[node]
    return np.minimum.reduceat(
        share, np.flatnonzero(np.diff(points.rank, prepend=-1)))


def reserve_explicit(windows: np.ndarray, points: Incidence,
                     pools: PoolTable) -> tuple[np.ndarray, np.ndarray]:
    """Explicit-window variant: every node splits evenly among its sessions.

    No window is announced; each node grants floor(C/N) window units to
    each of its N traversing sessions and a session uses the smallest
    grant along its path.
    """
    granted = _fair_shares(points, pools)
    pools.hold(points, granted)
    return granted, np.zeros(len(windows), dtype=bool)


def reserve_fair(windows: np.ndarray, points: Incidence,
                 pools: PoolTable) -> tuple[np.ndarray, np.ndarray]:
    """Fair-share threshold variant: halve whenever a request exceeds C/N."""
    congested = windows > _fair_shares(points, pools)
    granted = np.where(congested, windows // 2, windows)
    pools.hold(points, granted)
    return granted, congested


def release_surplus(points: Incidence, granted: np.ndarray,
                    delivered: np.ndarray, pools: PoolTable) -> None:
    """Give back ``cost(granted) - cost(delivered)`` at every point."""
    pools.reserved -= pools.sums(
        points.pool, points.costs(granted) - points.costs(delivered))


class SessionTable(FlowColumns):
    """Every live teleportation session of a run: one ``TeleSession`` per
    row, held as ``FlowColumns``, in admission order.

    ``phase`` indexes ``PHASES`` and ``remaining`` is ``UNBOUNDED`` for an
    unbounded stream.  A row's points are its ``session_points``, tied by
    its session id and with no floor.  Each slot reserves by ``scheme``;
    under the ``explicit`` (EW) rule a row announces its grant, records
    ``NO_PHASE`` and keeps its window.
    """

    def __init__(self, pools: PoolTable, scheme: Callable, explicit: bool):
        super().__init__("session", "window", "phase", "remaining")
        self.pools, self.scheme, self.explicit = pools, scheme, explicit

    def admit(self, sessions: list[tuple[int, Path, int | None, int | None]]
              ) -> None:
        """Append one slot's sessions, each ``(id, path, qubits, initial
        window)``, in order."""
        if not sessions:
            return
        points = [session_points(path, self.pools) for _, path, _, _ in sessions]
        length = [point.shape[1] for point in points]
        session, _, qubits, window = zip(*sessions)
        pool, num = np.concatenate(points, axis=1)
        super().admit(
            (pool, np.repeat(session, length), num, np.ones_like(num),
             np.zeros_like(num)),
            session=session, length=length,
            window=[each or INITIAL_WINDOW for each in window],
            remaining=[UNBOUNDED if each is None else each for each in qubits])

    def step(self) -> tuple[np.ndarray, ...]:
        """One slot for every session: reserve, transfer up to the grant,
        give back what the grant did not carry, advance the windows and
        retire the sessions that are done.  Returns the slot's trace
        columns in ``SessionRow`` field order after ``slot``, the phase as
        its code; ties go to the lower session id."""
        n = len(self.session)
        points = self.incidence()
        granted, congested = self.scheme(self.window, points, self.pools)
        stream = self.remaining == UNBOUNDED
        delivered = np.where(stream, granted,
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
        self.remaining = np.where(stream, UNBOUNDED, self.remaining - delivered)
        live = self.remaining != 0
        if not live.all():
            self.retire(live)
        return record
