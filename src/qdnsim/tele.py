"""Teleportation transport: window control and per-slot reservation.

Each session announces a sending window, every node on the path checks the
announced demand against its pool, and the window is halved exactly once
if any node reports congestion.  Windows then grow again: doubling in slow
start, plus one in congestion avoidance.  Two variants are provided: an
explicit per-node fair share (EW) and a fair-share threshold check that
keeps the halving dynamics (FRA).  Each scheme returns its grants in
session order and reserves them at the session's fixed reservation points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .memory import (RECEIVE_COST, TELE_SEND_COST, Grant, cost, hold,
                     reserve_two_pass)
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


@dataclass
class TeleSession:
    """One end-to-end flow with its sending-window state.

    ``points``, fixed by the path: the source's send pool, transit at each
    intermediate node (for both its entanglement links) and the
    destination's receive pool, none with a floor.
    """

    id: int
    path: Path
    remaining: int | None  # None means an unbounded stream
    window: int = INITIAL_WINDOW
    phase: Phase = Phase.SLOW_START
    points: list[tuple] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        path = self.path
        self.points = [
            ((path.src, "send"), TELE_SEND_COST, 0),
            *(((node, "transit"), TELE_SEND_COST, 0) for node in path.nodes[1:-1]),
            ((path.dst, "receive"), RECEIVE_COST, 0),
        ]

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


PoolMap = dict  # (node id, pool kind) -> MemoryPool


def reserve_teleport(sessions: list[TeleSession], pools: PoolMap) -> list[Grant]:
    """Announced-window reservation, by ``memory.reserve_two_pass``."""
    return reserve_two_pass(
        [(session.id, session.window, session.points) for session in sessions],
        pools,
    )


def node_window_capacity(node: int, pools: PoolMap) -> int | None:
    """Largest window a node can support for one session, by its role.

    A repeater backs a window with transit units at the send price; an
    end host must be able to play either role, so it is limited by the
    smaller of its send and receive pools, each at its own price.
    Returns None for nodes without memory pools (all-optical switches).
    """
    if (node, "transit") in pools:
        return pools[(node, "transit")].capacity // TELE_SEND_COST
    if (node, "send") in pools:
        return min(
            pools[(node, "send")].capacity // TELE_SEND_COST,
            pools[(node, "receive")].capacity // RECEIVE_COST,
        )
    return None


def _fair_shares(sessions: list[TeleSession], pools: PoolMap) -> list[int]:
    """Per-session floor(C/N) minimum over path nodes, N counted per node,
    in session order."""
    traversals: dict[int, int] = {}
    for session in sessions:
        for node in session.path.nodes:
            traversals[node] = traversals.get(node, 0) + 1
    return [
        min(capacity // traversals[node]
            for node in session.path.nodes
            if (capacity := node_window_capacity(node, pools)) is not None)
        for session in sessions
    ]


def reserve_explicit(sessions: list[TeleSession], pools: PoolMap) -> list[Grant]:
    """Explicit-window variant: every node splits evenly among its sessions.

    No window is announced; each node grants floor(C/N) window units to
    each of its N traversing sessions and a session uses the smallest
    grant along its path.
    """
    outcomes = []
    for session, share in zip(sessions, _fair_shares(sessions, pools)):
        outcomes.append(Grant(share, False))
        hold(session.points, share, pools)
    return outcomes


def reserve_fair(sessions: list[TeleSession], pools: PoolMap) -> list[Grant]:
    """Fair-share threshold variant: halve whenever a request exceeds C/N."""
    outcomes = []
    for session, share in zip(sessions, _fair_shares(sessions, pools)):
        window = session.window
        congested = window > share
        granted = window // 2 if congested else window
        outcomes.append(Grant(granted, congested))
        hold(session.points, granted, pools)
    return outcomes


def release_surplus(
    session: TeleSession, granted: int, delivered: int, pools: PoolMap
) -> None:
    """Give back ``cost(granted) - cost(delivered)`` at each point."""
    if delivered < granted:
        for key, unit_cost, floor in session.points:
            pools[key].require(cost(unit_cost, delivered, floor)
                               - cost(unit_cost, granted, floor))
