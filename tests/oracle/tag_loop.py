"""The tell-and-go slot as a loop over hop objects, frozen.

A copy of the engine's per-hop slot path from before hop state moved into
arrays.  Admission builds one ``Hop`` per link over relays, or one
end-to-end hop over switches.  Every slot reserves all hops' memory in one
``memory.reserve`` pass (``reserve_sharing``), then plans, draws, sends and
records hop by hop, and hands relayed qubits downstream once every hop has
sent.  ``run`` uses ``Engine`` only to validate the configuration and to
build the topology, the pools, the start-slot schedule and the channel
stream; it returns the rows and summary a run returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qdnsim.engine import Engine, PoolRow, RunResult, SessionRow
from qdnsim.errors import DeadlockError
from qdnsim.memory import Incidence, reserve
from qdnsim.metrics import summarize
from qdnsim.routing import compute_path
from qdnsim.topology import NetworkKind

QUBIT_UNITS = 3          # send units per qubit in flight
SEND_PRICE = (9, 4)      # send units per window unit
INITIAL_WINDOW = 2
SLOW_START, AVOIDANCE = "SS", "CA"


def next_window(window: int, phase: str, congested: bool) -> tuple[int, str]:
    if congested:
        window, phase = window // 2, AVOIDANCE
    window = 2 * window if phase == SLOW_START else window + 1
    return max(1, window), phase


@dataclass
class Hop:
    """One hop: window state, relay queue and in-flight counts per round."""

    session: int
    hop: int
    sender: int
    receiver: int
    window: int
    unminted: int | None = 0
    queue_bound: int | None = None
    phase: str = SLOW_START
    backlog: int = 0
    firsts: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    stored_firsts: int = 0

    @property
    def first_total(self) -> int:
        return sum(self.firsts.values())

    @property
    def second_total(self) -> int:
        return sum(self.seconds.values())

    @property
    def queued(self) -> int | float:
        return math.inf if self.unminted is None else self.backlog + self.unminted

    @property
    def queue_free(self) -> int | None:
        return None if self.queue_bound is None else self.queue_bound - self.backlog

    def plan(self, granted, receiver_free, blocks_free, downstream_free):
        """(seconds, firsts, encodes): bins as (round, n), highest round
        first."""
        stored = self.stored_firsts
        budget = (3 * granted) // 4
        second_cap = min(self.second_total, budget) if receiver_free >= 1 else 0
        if downstream_free is not None:
            second_cap = min(second_cap, downstream_free)
        second_count = max(0, second_cap)
        first_cap = max(0, min(
            max(0, granted // 2 + second_count - stored),
            budget - second_count,
            receiver_free,
            max(0, granted - stored - second_count),
        ))
        sent = min(first_cap, self.first_total)
        encodes = min(first_cap - sent, self.queued, max(0, blocks_free))
        return (_take(self.seconds, second_count),
                _take(self.firsts, first_cap), encodes)

    def send(self, seconds, firsts, encodes, outcomes) -> int:
        from_backlog = min(encodes, self.backlog)
        self.backlog -= from_backlog
        if self.unminted is not None:
            self.unminted -= encodes - from_backlog
        _add(self.firsts, 0, encodes)
        at = delivered = released = 0
        for round_, n in seconds:
            ok = outcomes[at:at + n].count(True)
            at += n
            delivered += ok
            released += ok * (round_ + 1)
            _add(self.seconds, round_, -n)
            _add(self.firsts, round_ + 1, n - ok)
        for round_, n in (*firsts, (0, encodes)):
            ok = outcomes[at:at + n].count(True)
            at += n
            _add(self.firsts, round_, -ok)
            _add(self.seconds, round_, ok)
        self.stored_firsts += outcomes.count(True) - delivered - released
        return delivered

    def accept(self, n: int) -> None:
        if self.queue_free is not None and n > self.queue_free:
            raise OverflowError(
                f"relay queue full on hop {self.hop} of session {self.session}")
        self.backlog += n


@dataclass
class Flow:
    id: int
    hops: list
    remaining: int | None


def _add(bins: dict, round_: int, n: int) -> None:
    if n:
        left = bins.get(round_, 0) + n
        if left:
            bins[round_] = left
        else:
            del bins[round_]


def _take(bins: dict, count: int) -> list:
    picked = []
    for round_ in sorted(bins, reverse=True):
        if count <= 0:
            break
        n = min(bins[round_], count)
        picked.append((round_, n))
        count -= n
    return picked


def admit(sid, path, qubits, initial_window, pools, switched) -> Flow:
    nodes = (path.src, path.dst) if switched else path.nodes
    window = initial_window or INITIAL_WINDOW
    hops = [Hop(sid, 0, nodes[0], nodes[1], window, unminted=qubits)]
    for index, sender in enumerate(nodes[1:-1], start=1):
        bound = int(pools.capacity[pools.index[sender, "send"]]) // QUBIT_UNITS
        hops.append(Hop(sid, index, sender, nodes[index + 1], window,
                        queue_bound=bound))
    return Flow(sid, hops, qubits)


def reserve_sharing(hops, pools):
    """Grants, halved flags, receive units free and send blocks free."""
    index = pools.index
    (send, receive, window, in_flight, stored, session,
     hop_id) = np.array([
        (index[hop.sender, "send"], index[hop.receiver, "receive"],
         hop.window, hop.first_total + hop.second_total, hop.stored_firsts,
         hop.session, hop.hop)
        for hop in hops], dtype=np.int64).reshape(-1, 7).T
    held = np.bincount(receive, stored, len(pools.keys)).astype(np.int64)
    over = np.flatnonzero(held > pools.capacity)
    if len(over):
        raise DeadlockError(
            f"stored sharings ({int(held[over[0]])}) exceed receive pool at "
            f"node {pools.keys[over[0]][0]}")
    tie = session * (hop_id.max(initial=0) + 1) + hop_id
    n = len(hops)
    points = Incidence(
        pool=np.stack([send, receive], axis=1).ravel(),
        rank=np.repeat(np.arange(n), 2),
        tie=np.repeat(tie, 2),
        num=np.tile([SEND_PRICE[0], 1], n),
        den=np.tile([SEND_PRICE[1], 1], n),
        floor=np.stack([QUBIT_UNITS * in_flight, stored], axis=1).ravel(),
    )
    granted, congested = reserve(pools, points, window)
    free = points.costs(granted) - points.floor
    return granted, congested, free[1::2], free[0::2] // QUBIT_UNITS


def step_tag(flows, pools, p, rng, slot, rows) -> None:
    """One slot's transfers for ``flows``, appending their session rows."""
    hops = [hop for flow in flows for hop in flow.hops]
    grants = zip(*(column.tolist() for column in reserve_sharing(hops, pools)))
    forwards = []
    for flow in flows:
        for hop, downstream in zip(flow.hops, [*flow.hops[1:], None]):
            granted, cut, receiver_free, blocks_free = next(grants)
            seconds, firsts, encodes = hop.plan(
                granted, receiver_free, blocks_free,
                downstream.queue_free if downstream is not None else None)
            second_count = sum(n for _, n in seconds)
            first_count = sum(n for _, n in firsts) + encodes
            n = second_count + first_count
            if p in (0.0, 1.0):
                outcomes = [p == 1.0] * n
            else:
                outcomes = (rng.random(n) < p).tolist()
            delivered = hop.send(seconds, firsts, encodes, outcomes)
            if downstream is not None:
                forwards.append((downstream, delivered))
            elif flow.remaining is not None:
                flow.remaining -= delivered
            rows.append(SessionRow(
                slot=slot, session=flow.id, hop=hop.hop, window=hop.window,
                congested=int(cut), granted=granted, delivered=delivered,
                phase=hop.phase, firsts=first_count, seconds=second_count,
                losses=n - sum(outcomes), stored=hop.stored_firsts))
            hop.window, hop.phase = next_window(hop.window, hop.phase, cut)
    for hop, qubits in forwards:
        hop.accept(qubits)


def run(cfg, observe=None) -> RunResult:
    """A tell-and-go run of ``cfg`` by the frozen loop; ``observe``, if
    given, sees the live flows' hops after every slot."""
    engine = Engine(cfg)
    topology, pools, rng = engine.topology, engine.pools, engine._channel_rng
    switched = cfg.network is NetworkKind.TAG_SWITCH
    capacities = pools.capacity.tolist()
    flows, paths, session_rows, pool_rows, load = {}, {}, [], [], {}
    for slot in range(cfg.n_slots):
        for sid, spec in engine._schedule.pop(slot, ()):
            path = compute_path(topology, spec.src, spec.dst, load,
                                cfg.congestion_weight)
            paths[sid] = path.nodes
            if spec.qubits != 0:
                flows[sid] = admit(sid, path, spec.qubits,
                                   spec.initial_window, pools, switched)
        active = list(flows.values())
        step_tag(active, pools, cfg.p, rng, slot, session_rows)
        flows = {flow.id: flow for flow in active if flow.remaining != 0}
        if observe is not None:
            observe([hop for flow in active for hop in flow.hops])
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
