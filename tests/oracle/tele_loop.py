"""The teleportation slot as a loop over session objects, frozen.

A copy of the engine's per-session slot path from before session state
moved into arrays.  Admission fixes a session's reservation points from
its path: the source's send pool, transit at each inner node and the
destination's receive pool.  Every slot reserves all live sessions' points
in one pass by the protocol's scheme (``memory.reserve`` for tele, the
per-node fair share for EW and FRA), then transfers, records and advances
each session in turn, and gives back what each grant did not carry.
``run`` uses ``Engine`` only to validate the configuration and to build
the topology, the pools and the start-slot schedule; it returns the rows
and summary a run returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qdnsim.engine import Engine, PoolRow, Protocol, RunResult, SessionRow
from qdnsim.memory import Incidence, reserve
from qdnsim.metrics import summarize
from qdnsim.routing import compute_path

SEND_PRICE = 2      # send and transit units per window unit
RECEIVE_PRICE = 1   # receive units per window unit
INITIAL_WINDOW = 1
SLOW_START, AVOIDANCE = "SS", "CA"


def next_window(window: int, phase: str, congested: bool) -> tuple[int, str]:
    if congested:
        window, phase = window // 2, AVOIDANCE
    window = 2 * window if phase == SLOW_START else window + 1
    return max(1, window), phase


@dataclass
class Session:
    """One end-to-end flow: window state and its fixed points."""

    id: int
    remaining: int | None
    window: int
    pools: list
    prices: list
    phase: str = SLOW_START

    def transfer(self, granted: int) -> int:
        if self.remaining is None:
            return granted
        delivered = min(granted, self.remaining)
        self.remaining -= delivered
        return delivered


def admit(sid, path, qubits, initial_window, pools) -> Session:
    keys = [(path.src, "send"),
            *((node, "transit") for node in path.nodes[1:-1]),
            (path.dst, "receive")]
    prices = [SEND_PRICE] * (len(keys) - 1) + [RECEIVE_PRICE]
    return Session(sid, qubits, initial_window or INITIAL_WINDOW,
                   [pools.index[key] for key in keys], prices)


def incidence(sessions) -> Incidence:
    """Every session's points in session order; ties go to the lower id."""
    pool = [index for session in sessions for index in session.pools]
    num = [price for session in sessions for price in session.prices]
    rank = [position for position, session in enumerate(sessions)
            for _ in session.pools]
    ids = [session.id for session in sessions for _ in session.pools]
    pool, num, rank, ids = (np.array(column, dtype=np.int64)
                            for column in (pool, num, rank, ids))
    return Incidence(pool, rank, ids, num, np.ones_like(num),
                     np.zeros_like(num))


def windows(sessions) -> np.ndarray:
    return np.array([session.window for session in sessions], dtype=np.int64)


def fair_shares(points, pools) -> np.ndarray:
    """Per-session floor(C/N) minimum over path nodes, N counted per node."""
    firsts = np.r_[True, pools.node[1:] != pools.node[:-1]]
    slot = np.cumsum(firsts) - 1
    prices = np.array([RECEIVE_PRICE if kind == "receive" else SEND_PRICE
                       for _, kind in pools.keys], dtype=np.int64)
    capacity = np.minimum.reduceat(pools.capacity // prices,
                                   np.flatnonzero(firsts))
    node = slot[points.pool]
    share = capacity[node] // np.bincount(node)[node]
    return np.minimum.reduceat(
        share, np.flatnonzero(np.diff(points.rank, prepend=-1)))


def reserve_teleport(sessions, points, pools):
    return reserve(pools, points, windows(sessions))


def reserve_explicit(sessions, points, pools):
    granted = fair_shares(points, pools)
    pools.hold(points, granted)
    return granted, np.zeros(len(sessions), dtype=bool)


def reserve_fair(sessions, points, pools):
    announced = windows(sessions)
    congested = announced > fair_shares(points, pools)
    granted = np.where(congested, announced // 2, announced)
    pools.hold(points, granted)
    return granted, congested


SCHEMES = {
    Protocol.TELE: reserve_teleport,
    Protocol.EW: reserve_explicit,
    Protocol.FRA: reserve_fair,
}


def release_surplus(points, granted, delivered, pools) -> None:
    """Give back the price of ``granted - delivered`` at every point."""
    surplus = points.num * (granted - delivered)[points.rank]
    pools.reserved -= np.bincount(points.pool, surplus,
                                  len(pools.keys)).astype(np.int64)


def step_tele(sessions, pools, protocol, slot, rows) -> None:
    """One slot's transfers for ``sessions``, appending their rows."""
    points = incidence(sessions)
    granted, congested = SCHEMES[protocol](sessions, points, pools)
    explicit = protocol is Protocol.EW
    delivered = []
    for session, window_granted, cut in zip(sessions, granted.tolist(),
                                            congested.tolist()):
        sent = session.transfer(window_granted)
        delivered.append(sent)
        if explicit:
            window, phase = window_granted, "-"
        else:
            window, phase = session.window, session.phase
        rows.append(SessionRow(
            slot=slot, session=session.id, hop=0, window=window,
            congested=int(cut), granted=window_granted, delivered=sent,
            phase=phase, firsts=0, seconds=0, losses=0, stored=0))
        if not explicit:
            session.window, session.phase = next_window(
                session.window, session.phase, cut)
    release_surplus(points, granted, np.array(delivered, dtype=np.int64),
                    pools)


def run(cfg, observe=None) -> RunResult:
    """A teleportation run of ``cfg`` by the frozen loop; ``observe``, if
    given, sees the live sessions after every slot."""
    engine = Engine(cfg)
    topology, pools = engine.topology, engine.pools
    capacities = pools.capacity.tolist()
    flows, paths, session_rows, pool_rows, load = {}, {}, [], [], {}
    for slot in range(cfg.n_slots):
        for sid, spec in engine._schedule.pop(slot, ()):
            path = compute_path(topology, spec.src, spec.dst, load,
                                cfg.congestion_weight)
            paths[sid] = path.nodes
            if spec.qubits != 0:
                flows[sid] = admit(sid, path, spec.qubits,
                                   spec.initial_window, pools)
        active = list(flows.values())
        step_tele(active, pools, cfg.protocol, slot, session_rows)
        flows = {flow.id: flow for flow in active if flow.remaining != 0}
        if observe is not None:
            observe(list(flows.values()))
        occupancy = {}
        for (node, kind), reserved, capacity in zip(
                pools.keys, pools.reserved.tolist(), capacities):
            occupancy[node] = occupancy.get(node, 0) + reserved
            pool_rows.append(PoolRow(slot, node, kind, reserved, capacity))
        load = {node: min(1.0, reserved / topology.node(node).capacity)
                for node, reserved in occupancy.items() if reserved > 0}
        pools.clear()
    result = RunResult(
        protocol=cfg.protocol.value, network=cfg.network.value,
        seed=cfg.seed, n_slots=cfg.n_slots, slot_length=cfg.slot_length,
        paths=dict(sorted(paths.items())), session_rows=session_rows,
        pool_rows=pool_rows, summary={})
    result.summary = summarize(result)
    return result
