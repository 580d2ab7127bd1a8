"""Teleportation transport: window control and per-slot reservation.

Each session announces a sending window, every node on the path checks the
announced demand against its pool, and the window is halved exactly once
if any node reports congestion.  Windows then grow again: doubling in slow
start, plus one in congestion avoidance.  Two variants are provided: an
explicit per-node fair share (EW) and a fair-share threshold check that
keeps the halving dynamics (FRA).  A session's reservation points are
fixed at admission (``session_points``); each scheme reserves over the
``incidence`` of one slot's sessions and returns the granted windows and
halved flags in session order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .memory import (RECEIVE_COST, TELE_SEND_COST, Incidence, PoolTable,
                     reserve)
from .routing import Path

#: Window a session announces in its first slot unless it asks otherwise.
INITIAL_WINDOW = 1


class Phase(Enum):
    SLOW_START = "SS"
    AVOIDANCE = "CA"


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
    """One end-to-end flow with its sending-window state.

    ``points`` are its ``session_points``, set at admission and kept for
    the session's life; a finished session leaves the engine's flow table.
    """

    id: int
    remaining: int | None  # None means an unbounded stream
    window: int = INITIAL_WINDOW
    phase: Phase = Phase.SLOW_START
    points: np.ndarray | None = field(default=None, repr=False,
                                      compare=False)

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


def incidence(sessions: list[TeleSession]) -> Incidence:
    """The points of ``sessions``, in session order; ties go to the lower
    session id."""
    pool, num = np.concatenate(
        [np.zeros((2, 0), dtype=np.int64)]
        + [session.points for session in sessions], axis=1)
    rank = np.repeat(np.arange(len(sessions)),
                     [session.points.shape[1] for session in sessions])
    ids = np.array([session.id for session in sessions], dtype=np.int64)
    return Incidence(pool, rank, ids[rank], num, np.ones_like(num),
                     np.zeros_like(num))


def _windows(sessions: list[TeleSession]) -> np.ndarray:
    return np.array([session.window for session in sessions], dtype=np.int64)


def reserve_teleport(sessions: list[TeleSession], points: Incidence,
                     pools: PoolTable) -> tuple[np.ndarray, np.ndarray]:
    """Announced-window reservation, by ``memory.reserve``."""
    return reserve(pools, points, _windows(sessions))


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


def reserve_explicit(sessions: list[TeleSession], points: Incidence,
                     pools: PoolTable) -> tuple[np.ndarray, np.ndarray]:
    """Explicit-window variant: every node splits evenly among its sessions.

    No window is announced; each node grants floor(C/N) window units to
    each of its N traversing sessions and a session uses the smallest
    grant along its path.
    """
    granted = _fair_shares(points, pools)
    pools.hold(points, granted)
    return granted, np.zeros(len(sessions), dtype=bool)


def reserve_fair(sessions: list[TeleSession], points: Incidence,
                 pools: PoolTable) -> tuple[np.ndarray, np.ndarray]:
    """Fair-share threshold variant: halve whenever a request exceeds C/N."""
    windows = _windows(sessions)
    congested = windows > _fair_shares(points, pools)
    granted = np.where(congested, windows // 2, windows)
    pools.hold(points, granted)
    return granted, congested


def release_surplus(points: Incidence, granted: np.ndarray,
                    delivered: np.ndarray, pools: PoolTable) -> None:
    """Give back ``cost(granted) - cost(delivered)`` at every point."""
    pools.reserved -= pools.sums(
        points.pool, points.costs(granted) - points.costs(delivered))
