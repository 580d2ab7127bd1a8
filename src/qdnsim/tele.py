"""Teleportation transport: window control and per-slot reservation.

Each session announces a sending window, every node on the path checks the
announced demand against its pool, and the window is halved exactly once
if any node reports congestion.  Windows then grow again: doubling in slow
start, plus one in congestion avoidance.  Two variants are provided: an
explicit per-node fair share (EW) and a fair-share threshold check that
keeps the halving dynamics (FRA).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .memory import (
    Demand,
    Grant,
    RECEIVE_COST,
    TELE_SEND_COST,
    reserve_two_pass,
)
from .routing import Path


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


@dataclass
class TeleSession:
    """One end-to-end flow with its sending-window state."""

    id: int
    path: Path
    remaining: int | None  # None means an unbounded stream
    window: int = 1
    phase: Phase = Phase.SLOW_START

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def announce(self) -> int:
        return self.window

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


PoolMap = dict  # (node id, pool kind) -> MemoryPool


def demand_points(session: TeleSession, window: int) -> list[tuple]:
    """(pool key, Demand) for ``window`` at each pool a session draws from.

    The source reserves in its send pool and the destination in its receive
    pool; every intermediate node reserves transit memory for both the
    upstream and downstream entanglement links.
    """
    path = session.path
    points = [((path.src, "send"), Demand(session.id, window, TELE_SEND_COST))]
    for node in path.nodes[1:-1]:
        points.append(((node, "transit"), Demand(session.id, window, TELE_SEND_COST)))
    points.append(((path.dst, "receive"), Demand(session.id, window, RECEIVE_COST)))
    return points


def reserve_teleport(sessions: list[TeleSession], pools: PoolMap) -> dict[int, Grant]:
    """Announced-window reservation, by ``memory.reserve_two_pass``."""
    return reserve_two_pass(
        [demand_points(session, session.announce()) for session in sessions],
        pools,
    )


def hold(session: TeleSession, window: int, pools: PoolMap) -> None:
    """Set the session's holding at every pool on its path to the cost of
    ``window`` there."""
    for key, demand in demand_points(session, window):
        pools[key].require(session.id, demand.cost(window))


def node_window_capacity(node: int, pools: PoolMap) -> int | None:
    """Largest window a node can support for one session, by its role.

    A repeater backs a window with 2 transit units per circuit; an end
    host must be able to play either role, so it is limited by the
    smaller of its send (2 units each) and receive (1 unit each) pools.
    Returns None for nodes without memory pools (all-optical switches).
    """
    if (node, "transit") in pools:
        return pools[(node, "transit")].capacity // 2
    if (node, "send") in pools:
        return min(
            pools[(node, "send")].capacity // 2,
            pools[(node, "receive")].capacity,
        )
    return None


def _fair_shares(sessions: list[TeleSession], pools: PoolMap) -> dict[int, int]:
    """Per-session floor(C/N) minimum over path nodes, N counted per node."""
    traversals: dict[int, int] = {}
    for session in sessions:
        for node in session.path.nodes:
            traversals[node] = traversals.get(node, 0) + 1
    shares: dict[int, int] = {}
    for session in sessions:
        node_shares = [
            capacity // traversals[node]
            for node in session.path.nodes
            if (capacity := node_window_capacity(node, pools)) is not None
        ]
        shares[session.id] = min(node_shares)
    return shares


def reserve_explicit(sessions: list[TeleSession], pools: PoolMap) -> dict[int, Grant]:
    """Explicit-window variant: every node splits evenly among its sessions.

    No window is announced; each node grants floor(C/N) window units to
    each of its N traversing sessions and a session uses the smallest
    grant along its path.
    """
    shares = _fair_shares(sessions, pools)
    outcomes: dict[int, Grant] = {}
    for session in sessions:
        share = shares[session.id]
        outcomes[session.id] = Grant(share, False)
        hold(session, share, pools)
    return outcomes


def reserve_fair(sessions: list[TeleSession], pools: PoolMap) -> dict[int, Grant]:
    """Fair-share threshold variant: halve whenever a request exceeds C/N."""
    shares = _fair_shares(sessions, pools)
    outcomes: dict[int, Grant] = {}
    for session in sessions:
        window = session.announce()
        congested = window > shares[session.id]
        granted = window // 2 if congested else window
        outcomes[session.id] = Grant(granted, congested)
        hold(session, granted, pools)
    return outcomes


def release_surplus(
    session: TeleSession, granted: int, delivered: int, pools: PoolMap
) -> None:
    """Return unused reservation when a session delivers less than granted."""
    if delivered < granted:
        hold(session, delivered, pools)
