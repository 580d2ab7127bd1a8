"""Slot-synchronous simulation loop.

Each slot runs a fixed phase order: admit new sessions; reserve memory
for the announced windows; plan, send and record per session; snapshot
pool occupancy; release slot-scoped reservations and advance window state
for the next slot.  A run is a pure function of its configuration:
identical configs (including the seed) produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError, DeadlockError
from .memory import (
    Demand,
    MemoryPool,
    TAG_SEND_COST,
    TAG_SPLIT,
    TELE_SPLIT,
    partition,
    reserve_two_pass,
)
from .metrics import jain
from .rng import CHANNEL_STREAM, SESSION_STREAM, stream
from .routing import Path, compute_path
from .tag import (
    ChannelModel,
    HopSession,
    advance,
    plan_transfers,
)
from .tele import (
    TeleSession,
    release_surplus,
    reserve_explicit,
    reserve_fair,
    reserve_teleport,
)
from .topology import NetworkKind, NodeKind, Topology, generate_waxman


class Protocol(Enum):
    TELE = "tele"
    EW = "ew"
    FRA = "fra"
    TAG = "tag"


_COMPATIBLE = {
    Protocol.TELE: {NetworkKind.TELE},
    Protocol.EW: {NetworkKind.TELE},
    Protocol.FRA: {NetworkKind.TELE},
    Protocol.TAG: {NetworkKind.TAG_RELAY, NetworkKind.TAG_SWITCH},
}


@dataclass(frozen=True)
class WaxmanSpec:
    n_infra: int
    target_avg_degree: float = 4.0
    area_side: float = 100.0
    alpha: float = 0.4


@dataclass(frozen=True)
class SessionSpec:
    """One requested flow; src/dst of None means 'sample random hosts'."""

    src: int | None = None
    dst: int | None = None
    qubits: int | None = None
    start_slot: int = 0
    initial_window: int | None = None


@dataclass
class RunConfig:
    seed: int
    protocol: Protocol
    network: NetworkKind
    topology: Topology | WaxmanSpec
    sessions: list[SessionSpec] | int
    n_slots: int
    p: float = 1.0
    slot_length: float = 1.0
    capacity: int = 1000
    congestion_weight: float = 4.0

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("a seed is mandatory for reproducibility")
        if self.network not in _COMPATIBLE[self.protocol]:
            raise ConfigError(
                f"protocol {self.protocol.value} cannot run on a "
                f"{self.network.value} network"
            )
        if self.n_slots < 0:
            raise ConfigError("n_slots must be non-negative")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("per-sharing success probability must be in [0, 1]")
        if self.slot_length <= 0:
            raise ConfigError("slot_length must be positive")
        if isinstance(self.sessions, int):
            if self.sessions < 0:
                raise ConfigError("session count must be non-negative")
        else:
            for index, spec in enumerate(self.sessions):
                if spec.qubits is not None and spec.qubits < 0:
                    raise ConfigError(
                        f"session {index}: qubits must be non-negative")
                if spec.initial_window is not None and spec.initial_window < 1:
                    raise ConfigError(
                        f"session {index}: initial_window must be at least 1")
                if spec.start_slot < 0:
                    raise ConfigError(
                        f"session {index}: start_slot must be non-negative")


class SessionRow(NamedTuple):
    slot: int
    session: int
    hop: int
    window: int
    congested: int
    granted: int
    delivered: int
    phase: str
    firsts: int
    seconds: int
    losses: int
    stored: int


class PoolRow(NamedTuple):
    slot: int
    node: int
    pool: str
    reserved: int
    capacity: int


@dataclass
class RunResult:
    protocol: str
    network: str
    seed: int
    n_slots: int
    slot_length: float
    paths: dict[int, tuple[int, ...]]
    session_rows: list[SessionRow]
    pool_rows: list[PoolRow]
    summary: dict


@dataclass
class TagFlow:
    """End-to-end tell-and-go session: a pipeline of hop sessions."""

    id: int
    path: Path
    hops: list[HopSession]
    remaining: int | None

    @property
    def finished(self) -> bool:
        return self.remaining == 0


def build_pools(topology: Topology, network: NetworkKind) -> dict:
    """Memory pools per node: send/receive at memory-splitting nodes,
    a transit pool at repeaters, nothing at all-optical switches.

    Every node reserves the sending fraction of its memory for the a=2
    role, so a pure repeater's transit pool is the send share of its
    capacity (the receive share sits idle: nothing terminates there).
    """
    pools: dict[tuple[int, str], MemoryPool] = {}
    for node in topology.nodes:
        if node.kind is NodeKind.SWITCH:
            continue
        if node.kind is NodeKind.REPEATER:
            transit, _ = partition(node.capacity, TELE_SPLIT)
            pools[(node.id, "transit")] = MemoryPool(node.id, "transit", transit)
            continue
        split = TELE_SPLIT if network is NetworkKind.TELE else TAG_SPLIT
        send, receive = partition(node.capacity, split)
        pools[(node.id, "send")] = MemoryPool(node.id, "send", send)
        pools[(node.id, "receive")] = MemoryPool(node.id, "receive", receive)
    return pools


def reserve_sharing(hops: list[HopSession], pools: dict) -> dict:
    """Per-slot reservation for tell-and-go hops, by
    ``memory.reserve_two_pass``; outcomes are keyed by (session, hop).

    Send pools price a window at 9/4 units per qubit (three sharings for
    at most three quarters of the window); receive pools at one unit.
    Stored first sharings and in-flight sender blocks cannot be evicted,
    so they floor each demand.
    """
    requests = []
    stored: dict[int, int] = {}
    for hop in hops:
        key = (hop.session, hop.hop)
        window = hop.announce()
        recv_floor = hop.stored_firsts
        stored[hop.receiver] = stored.get(hop.receiver, 0) + recv_floor
        requests.append([
            ((hop.sender, "send"),
             Demand(key, window, TAG_SEND_COST, floor=3 * len(hop.in_flight))),
            ((hop.receiver, "receive"), Demand(key, window, floor=recv_floor)),
        ])

    for node in sorted(stored):
        if stored[node] > pools[(node, "receive")].capacity:
            raise DeadlockError(
                f"stored sharings ({stored[node]}) exceed receive pool at node {node}"
            )
    return reserve_two_pass(requests, pools)


class Engine:
    """Holds one run's mutable state; single-threaded and deterministic."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        if isinstance(cfg.topology, WaxmanSpec):
            spec = cfg.topology
            self.topology = generate_waxman(
                spec.n_infra,
                spec.target_avg_degree,
                spec.area_side,
                spec.alpha,
                cfg.seed,
                network=cfg.network,
                capacity=cfg.capacity,
            )
        else:
            self.topology = cfg.topology
        if self.topology.kind != cfg.network:
            raise ConfigError(
                f"topology kind {self.topology.kind.value} does not match "
                f"network {cfg.network.value}"
            )
        self.pools = build_pools(self.topology, cfg.network)
        self.channel = ChannelModel(cfg.p)
        self._channel_rng = stream(cfg.seed, CHANNEL_STREAM)
        self.specs = self._resolve_sessions()
        self.paths: dict[int, Path] = {}
        self.tele_sessions: dict[int, TeleSession] = {}
        self.tag_flows: dict[int, TagFlow] = {}
        self.session_rows: list[SessionRow] = []
        self.pool_rows: list[PoolRow] = []
        self._last_occupancy: dict[int, int] = {}
        self.slot = 0

    # -- setup ---------------------------------------------------------

    def _resolve_sessions(self) -> list[SessionSpec]:
        cfg = self.cfg
        hosts = sorted(n.id for n in self.topology.hosts())
        host_ids = set(hosts)
        requested = cfg.sessions
        if isinstance(requested, int):
            requested = [SessionSpec()] * requested
        specs = []
        rng = None
        for index, spec in enumerate(requested):
            for end in (spec.src, spec.dst):
                if end is not None and end not in host_ids:
                    raise ConfigError(f"session {index}: endpoint {end} is not a host")
            if spec.src is None or spec.dst is None:
                if len(hosts) < 2:
                    raise ConfigError("need at least two hosts to sample sessions")
                if rng is None:
                    rng = stream(cfg.seed, SESSION_STREAM)
                i = int(rng.integers(len(hosts)))
                j = int(rng.integers(len(hosts) - 1))
                if j >= i:
                    j += 1
                spec = SessionSpec(
                    hosts[i], hosts[j], spec.qubits, spec.start_slot,
                    spec.initial_window,
                )
            specs.append(spec)
        return specs

    def _load_table(self) -> dict[int, float]:
        """Reserved fraction per node as of the last reservation phase."""
        load = {}
        for node_obj in self.topology.nodes:
            reserved = self._last_occupancy.get(node_obj.id, 0)
            if node_obj.capacity > 0 and reserved > 0:
                load[node_obj.id] = min(1.0, reserved / node_obj.capacity)
        return load

    def _admit(self) -> None:
        load = self._load_table()
        for sid, spec in enumerate(self.specs):
            if spec.start_slot != self.slot:
                continue
            path = compute_path(
                self.topology, spec.src, spec.dst, load,
                self.cfg.congestion_weight,
            )
            self.paths[sid] = path
            if self.cfg.protocol is Protocol.TAG:
                self.tag_flows[sid] = self._build_flow(sid, path, spec)
            else:
                self.tele_sessions[sid] = TeleSession(
                    id=sid, path=path, remaining=spec.qubits,
                    window=spec.initial_window or 1,
                )

    def _build_flow(self, sid: int, path: Path, spec: SessionSpec) -> TagFlow:
        if self.cfg.network is NetworkKind.TAG_SWITCH:
            pairs = [(path.src, path.dst)]
        else:
            pairs = list(zip(path.nodes[:-1], path.nodes[1:]))
        hops = []
        initial = spec.initial_window or 2
        for index, (sender, receiver) in enumerate(pairs):
            if index == 0:
                unminted = spec.qubits
                bound = None
            else:
                unminted = 0
                bound = self.pools[(sender, "send")].capacity // 3
            hops.append(
                HopSession(
                    session=sid, hop=index, sender=sender, receiver=receiver,
                    window=initial, unminted=unminted, queue_bound=bound,
                )
            )
        return TagFlow(id=sid, path=path, hops=hops, remaining=spec.qubits)

    # -- per-slot phases ------------------------------------------------

    def step(self) -> None:
        self._admit()
        if self.cfg.protocol is Protocol.TAG:
            self._step_tag()
        else:
            self._step_tele()
        self.slot += 1

    @staticmethod
    def _active(records: dict) -> list:
        """Admitted sessions or flows that are not finished."""
        return [r for r in records.values() if not r.finished]

    def _step_tele(self) -> None:
        active = self._active(self.tele_sessions)
        reserve = {
            Protocol.TELE: reserve_teleport,
            Protocol.EW: reserve_explicit,
            Protocol.FRA: reserve_fair,
        }[self.cfg.protocol]
        outcomes = reserve(active, self.pools)

        for session in active:
            grant = outcomes[session.id]
            delivered = session.transfer(grant.window)
            release_surplus(session, grant.window, delivered, self.pools)
            if self.cfg.protocol is Protocol.EW:
                window, phase = grant.window, "-"
            else:
                window, phase = session.announce(), session.phase.value
            self.session_rows.append(SessionRow(
                slot=self.slot, session=session.id, hop=0, window=window,
                congested=int(grant.congested), granted=grant.window,
                delivered=delivered, phase=phase,
                firsts=0, seconds=0, losses=0, stored=0,
            ))

        self._snapshot_pools()

        for pool in self.pools.values():
            pool.clear()
        if self.cfg.protocol is not Protocol.EW:
            for session in active:
                session.advance_window(outcomes[session.id].congested)

    def _step_tag(self) -> None:
        flows = self._active(self.tag_flows)
        hops = [hop for flow in flows for hop in flow.hops]
        outcomes = reserve_sharing(hops, self.pools)

        # A hop's plan reads the next hop's free queue as it stood at the
        # start of the slot, so handovers wait until every hop has sent.
        forwards: list[tuple[HopSession, int]] = []
        for flow in flows:
            for index, hop in enumerate(flow.hops):
                key = (hop.session, hop.hop)
                grant = outcomes[key]
                downstream = (
                    flow.hops[index + 1] if index + 1 < len(flow.hops) else None
                )
                recv_pool = self.pools[(hop.receiver, "receive")]
                send_pool = self.pools[(hop.sender, "send")]
                plan = plan_transfers(
                    hop, grant.window,
                    recv_pool.held(key) - hop.stored_firsts,
                    send_pool.held(key) // 3 - len(hop.in_flight),
                    downstream.queue_free if downstream is not None else None,
                )
                losses = 0
                delivered = 0
                transfers = plan.seconds + plan.firsts
                transfers += [hop.encode_next() for _ in range(plan.encodes)]
                for transfer in transfers:
                    success = self.channel.sample(self._channel_rng)
                    if not success:
                        losses += 1
                    _, done = advance(transfer, success)
                    if done:
                        qubit = hop.complete(transfer)
                        delivered += 1
                        if downstream is not None:
                            forwards.append((downstream, qubit))
                        elif flow.remaining is not None:
                            flow.remaining -= 1
                self.session_rows.append(SessionRow(
                    slot=self.slot, session=flow.id, hop=hop.hop,
                    window=hop.announce(), congested=int(grant.congested),
                    granted=grant.window, delivered=delivered,
                    phase=hop.phase.value, firsts=plan.first_count,
                    seconds=plan.second_count, losses=losses,
                    stored=hop.stored_firsts,
                ))

        for hop, qubit in forwards:
            hop.accept(qubit)

        self._snapshot_pools()

        # Slot-scoped reservations are released; stored first sharings and
        # in-flight sender blocks persist across slots.
        for hop in hops:
            key = (hop.session, hop.hop)
            self.pools[(hop.sender, "send")].require(key, 3 * len(hop.in_flight))
            self.pools[(hop.receiver, "receive")].require(key, hop.stored_firsts)
            hop.apply_slot(outcomes[key].congested)

    def _snapshot_pools(self) -> None:
        occupancy: dict[int, int] = {}
        for (node, kind) in sorted(self.pools):
            pool = self.pools[(node, kind)]
            occupancy[node] = occupancy.get(node, 0) + pool.reserved
            self.pool_rows.append(PoolRow(
                slot=self.slot, node=node, pool=kind,
                reserved=pool.reserved, capacity=pool.capacity,
            ))
        self._last_occupancy = occupancy

    # -- whole run ------------------------------------------------------

    def run(self) -> RunResult:
        for _ in range(self.cfg.n_slots):
            self.step()
        return RunResult(
            protocol=self.cfg.protocol.value,
            network=self.cfg.network.value,
            seed=self.cfg.seed,
            n_slots=self.cfg.n_slots,
            slot_length=self.cfg.slot_length,
            paths={sid: path.nodes for sid, path in sorted(self.paths.items())},
            session_rows=self.session_rows,
            pool_rows=self.pool_rows,
            summary=self._summarize(),
        )

    def _summarize(self) -> dict:
        per_session_windows: dict[int, dict[int, int]] = {}
        delivered: dict[int, int] = {}
        egress_hop = {
            sid: len(flow.hops) - 1 for sid, flow in self.tag_flows.items()
        }
        for row in self.session_rows:
            if row.hop == egress_hop.get(row.session, 0):
                delivered[row.session] = delivered.get(row.session, 0) + row.delivered
            slots = per_session_windows.setdefault(row.session, {})
            # Effective window of a multi-hop flow is the minimum hop window.
            slots[row.slot] = min(slots.get(row.slot, row.window), row.window)

        sessions = {}
        means = []
        for sid in sorted(self.paths):
            windows = list(per_session_windows.get(sid, {}).values())
            mean = sum(windows) / len(windows) if windows else 0.0
            sessions[sid] = {
                "delivered": delivered.get(sid, 0),
                "mean_window": mean,
                "hops": self.paths[sid].hop_count,
            }
            means.append(mean)

        total = sum(delivered.values())
        per_slot = total / self.cfg.n_slots if self.cfg.n_slots else 0.0
        fairness = None
        if means and any(m > 0 for m in means):
            fairness = jain(means)
        return {
            "delivered_total": total,
            "throughput_per_slot": per_slot,
            "throughput_per_time": per_slot / self.cfg.slot_length,
            "jain_mean_window": fairness,
            "sessions": sessions,
        }


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run; pure function of the configuration."""
    return Engine(cfg).run()
