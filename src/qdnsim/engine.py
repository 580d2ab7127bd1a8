"""Slot-synchronous simulation loop.

Each slot runs a fixed phase order: admit the sessions the start-slot
schedule lists for it, routed under the load table; step the flow table,
which reserves memory for the announced windows, transfers, advances the
windows and retires the flows that finish; record the rows it returns;
snapshot pool occupancy, whose ``np.bincount`` by node over node capacity
is the next load table; clear every pool.  The pools live in one
``memory.PoolTable`` and every slot reserves them in one array pass over
the slot's reservation points.  The flow table is a ``tele.SessionTable``
of teleportation sessions or a ``tag.HopTable`` of tell-and-go hops, both
``memory.FlowColumns``: a flow's points are fixed when it is admitted, and
only the tell-and-go floors are built per slot.  Either table runs the
whole slot for all its rows as array passes.  A pool keeps only its
reserved total, for one slot; what transport state outlives it lives in
the table.  The loop keeps the trace as column blocks (see ``trace``): the
columns the table returns, and a copy of the pool totals, per slot
stepped, so nothing is allocated by the slot count up front.  It builds no
row objects; ``metrics.summarize`` reads the columns into the run summary.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
from .memory import (MAX_SESSIONS, MAX_UNITS, TAG_SPLIT, TELE_SPLIT,
                     MemoryPool, PoolTable, partition)
from .metrics import summarize
from .rng import CHANNEL_STREAM, SESSION_STREAM, stream
from .routing import DEFAULT_CONGESTION_WEIGHT, Path, compute_path
from .tag import ChannelModel, HopTable
from .tele import (SessionTable, reserve_explicit, reserve_fair,
                   reserve_teleport)
from .topology import (DEFAULT_CAPACITY, INFRA_KIND, MIN_ALPHA, NetworkKind,
                       NodeKind, Topology, generate_waxman)
from .trace import PoolRow, Rows, SessionRow


#: Largest session size a run accepts: qubit counts are int64 columns.
_MAX_QUBITS = np.iinfo(np.int64).max


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
    """One requested flow; src and dst are two different hosts, or both
    None to sample a random host pair."""

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
    capacity: int = DEFAULT_CAPACITY
    congestion_weight: float = DEFAULT_CONGESTION_WEIGHT

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
        if not (math.isfinite(self.slot_length) and self.slot_length > 0):
            raise ConfigError("slot_length must be positive and finite")
        if self.capacity < 0:
            raise ConfigError("capacity must be non-negative")
        if self.capacity > MAX_UNITS:
            raise ConfigError(f"capacity must be at most {MAX_UNITS}")
        if not (math.isfinite(self.congestion_weight)
                and self.congestion_weight >= 0):
            raise ConfigError("congestion_weight must be non-negative and finite")
        spec = self.topology
        if isinstance(spec, WaxmanSpec):
            if spec.n_infra < 2:
                raise ConfigError("waxman: n_infra must be at least 2")
            if not MIN_ALPHA <= spec.alpha <= 1:
                raise ConfigError(f"waxman: alpha must be in [{MIN_ALPHA!r}, 1]")
            for field in ("target_avg_degree", "area_side"):
                if not 0 < getattr(spec, field) < math.inf:
                    raise ConfigError(f"waxman: {field} must be positive and finite")
        else:
            for node in spec.nodes:
                if node.capacity < 0:
                    raise ConfigError(
                        f"node {node.id}: capacity must be non-negative")
                if node.capacity > MAX_UNITS:
                    raise ConfigError(
                        f"node {node.id}: capacity must be at most {MAX_UNITS}")
        count = (self.sessions if isinstance(self.sessions, int)
                 else len(self.sessions))
        if count > MAX_SESSIONS:
            raise ConfigError(f"session count must be at most {MAX_SESSIONS}")
        if isinstance(self.sessions, int):
            if self.sessions < 0:
                raise ConfigError("session count must be non-negative")
        else:
            for index, spec in enumerate(self.sessions):
                if spec.qubits is not None and spec.qubits < 0:
                    raise ConfigError(
                        f"session {index}: qubits must be non-negative")
                if spec.qubits is not None and spec.qubits > _MAX_QUBITS:
                    raise ConfigError(
                        f"session {index}: qubits must be at most {_MAX_QUBITS}")
                if spec.initial_window is not None and spec.initial_window < 1:
                    raise ConfigError(
                        f"session {index}: initial_window must be at least 1")
                if spec.initial_window is not None and (
                        spec.initial_window > MAX_UNITS):
                    raise ConfigError(f"session {index}: initial_window must "
                                      f"be at most {MAX_UNITS}")
                if spec.start_slot < 0:
                    raise ConfigError(
                        f"session {index}: start_slot must be non-negative")


@dataclass
class RunResult:
    """One run's trace and summary.  ``session_rows`` and ``pool_rows``
    are read-only ``trace.Rows`` over the engine's column blocks; a
    hand-built result may hold row lists instead."""

    protocol: str
    network: str
    seed: int
    n_slots: int
    slot_length: float
    paths: dict[int, tuple[int, ...]]
    session_rows: Sequence[SessionRow]
    pool_rows: Sequence[PoolRow]
    summary: dict


def build_pools(topology: Topology, network: NetworkKind) -> PoolTable:
    """Memory pools per node: send/receive at memory-splitting nodes,
    a transit pool at repeaters, nothing at all-optical switches.

    Every node reserves the sending fraction of its memory for the a=2
    role, so a pure repeater's transit pool is the send share of its
    capacity (the receive share sits idle: nothing terminates there).
    """
    pools: list[MemoryPool] = []
    for node in topology.nodes:
        if node.kind is NodeKind.SWITCH:
            continue
        if node.kind is NodeKind.REPEATER:
            transit, _ = partition(node.capacity, TELE_SPLIT)
            pools.append(MemoryPool(node.id, "transit", transit))
            continue
        split = TELE_SPLIT if network is NetworkKind.TELE else TAG_SPLIT
        send, receive = partition(node.capacity, split)
        pools.append(MemoryPool(node.id, "send", send))
        pools.append(MemoryPool(node.id, "receive", receive))
    return PoolTable(pools)


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
        infra_kind = INFRA_KIND[cfg.network]
        for node in self.topology.infra():
            if node.kind is not infra_kind:
                raise ConfigError(f"node {node.id} is a {node.kind.value}; a "
                                  f"{cfg.network.value} network needs "
                                  f"{infra_kind.value}s")
        self.pools = build_pools(self.topology, cfg.network)
        # Every slot's pool block shares these columns; only the reserved
        # totals are its own.
        self._pool_nodes = self.pools.node.tolist()
        self._pool_kinds = [kind for _, kind in self.pools.keys]
        self._capacities = self.pools.capacity.tolist()
        self._node_capacity = np.array([n.capacity for n in self.topology.nodes])
        self._channel_rng = stream(cfg.seed, CHANNEL_STREAM)
        self._schedule = self._resolve_sessions()
        # The live flows, in admission order.
        self.table: SessionTable | HopTable
        if cfg.protocol is Protocol.TAG:
            self.table = HopTable(
                self.pools, ChannelModel(cfg.p), self._channel_rng,
                switched=cfg.network is NetworkKind.TAG_SWITCH)
        else:
            self.table = SessionTable(self.pools, {
                Protocol.TELE: reserve_teleport,
                Protocol.EW: reserve_explicit,
                Protocol.FRA: reserve_fair,
            }[cfg.protocol], explicit=cfg.protocol is Protocol.EW)
        # Every admitted session's path.
        self.paths: dict[int, tuple[int, ...]] = {}
        # The trace so far: one block of columns per slot.
        self.session_rows = Rows(SessionRow, [])
        self.pool_rows = Rows(PoolRow, [])
        # Reserved fraction per node as of the last snapshot; routing reads it.
        self._load: dict[int, float] = {}
        self.slot = 0

    # -- setup ---------------------------------------------------------

    def _resolve_sessions(self) -> dict[int, list[tuple[int, SessionSpec]]]:
        """Session ids and resolved specs by start slot, in id order."""
        cfg = self.cfg
        hosts = sorted(n.id for n in self.topology.hosts())
        host_ids = set(hosts)
        requested = cfg.sessions
        if isinstance(requested, int):
            requested = [SessionSpec()] * requested
        schedule: dict[int, list[tuple[int, SessionSpec]]] = {}
        rng = stream(cfg.seed, SESSION_STREAM)
        for index, spec in enumerate(requested):
            for end in (spec.src, spec.dst):
                if end is not None and end not in host_ids:
                    raise ConfigError(f"session {index}: endpoint {end} is not a host")
            if (spec.src is None) != (spec.dst is None):
                raise ConfigError(
                    f"session {index}: name both src and dst, or neither")
            if spec.src is not None and spec.src == spec.dst:
                raise ConfigError(f"session {index}: src and dst must differ")
            if spec.src is None:
                if len(hosts) < 2:
                    raise ConfigError("need at least two hosts to sample sessions")
                i = int(rng.integers(len(hosts)))
                j = int(rng.integers(len(hosts) - 1))
                if j >= i:
                    j += 1
                spec = SessionSpec(
                    hosts[i], hosts[j], spec.qubits, spec.start_slot,
                    spec.initial_window,
                )
            schedule.setdefault(spec.start_slot, []).append((index, spec))
        return schedule

    def _admit(self) -> list[tuple[int, Path, int | None, int | None]]:
        """Route this slot's sessions; returns those with qubits to send,
        as the flow table admits them."""
        admitted = []
        for sid, spec in self._schedule.pop(self.slot, ()):
            path = compute_path(self.topology, spec.src, spec.dst, self._load,
                                self.cfg.congestion_weight)
            self.paths[sid] = path.nodes
            if spec.qubits != 0:
                admitted.append((sid, path, spec.qubits, spec.initial_window))
        return admitted

    # -- per-slot phases ------------------------------------------------

    def step(self) -> None:
        if self.slot >= self.cfg.n_slots:
            raise RuntimeError(f"slot {self.slot}: the run has only "
                               f"{self.cfg.n_slots} slots")
        self.table.admit(self._admit())
        self.session_rows.blocks.append((self.slot, self.table.step()))
        self._snapshot_pools()
        self.pools.clear()
        self.slot += 1

    def _snapshot_pools(self) -> None:
        """Append this slot's pool block and rebuild the load table."""
        # A copy: surplus releases and ``clear`` write the totals in place.
        self.pool_rows.blocks.append((self.slot, (
            self._pool_nodes, self._pool_kinds, self.pools.reserved.copy(),
            self._capacities)))
        # Node totals are exact float sums (see memory.MAX_UNITS).
        occupancy = np.bincount(self.pools.node, self.pools.reserved,
                                len(self._node_capacity))
        held = np.flatnonzero(occupancy)
        self._load = dict(zip(held.tolist(), np.minimum(
            1.0, occupancy[held] / self._node_capacity[held]).tolist()))

    # -- whole run ------------------------------------------------------

    def run(self) -> RunResult:
        """Step the slots left, then summarize the whole run."""
        while self.slot < self.cfg.n_slots:
            self.step()
        result = RunResult(
            protocol=self.cfg.protocol.value,
            network=self.cfg.network.value,
            seed=self.cfg.seed,
            n_slots=self.cfg.n_slots,
            slot_length=self.cfg.slot_length,
            paths=dict(sorted(self.paths.items())),
            session_rows=self.session_rows,
            pool_rows=self.pool_rows,
            summary={},
        )
        result.summary = summarize(result)
        return result


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run; pure function of the configuration."""
    return Engine(cfg).run()
