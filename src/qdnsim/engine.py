"""Slot-synchronous simulation loop.

Each slot runs a fixed phase order: admit the sessions the start-slot
schedule lists for it, routed under the load table; step the flow table,
which reserves memory for the announced windows, transfers, advances the
windows and retires the flows that finish; take the pool totals; clear
every pool.  Only a slot that admits builds the load table, from the last
slot's totals: a list of every node's reserved fraction, indexed by node
id, from its ``np.bincount`` by node over node capacity (0.0 where
nothing is held, and in slot 0).  The last slot
that admits drops the topology's hop cache.  The pools live in
one ``memory.PoolTable`` and every slot reserves them in one array pass
over the slot's reservation points.  The
flow table is a ``tele.SessionTable`` of teleportation sessions or a
``tag.HopTable`` of tell-and-go hops, both ``memory.FlowColumns``: a
flow's points are fixed when it is admitted, and only the tell-and-go
floors are built per slot.  Either table runs the whole slot for all its
rows as array passes.  A pool keeps only its reserved total, for one slot;
what transport state outlives it lives in the table.  The engine keeps no
trace: ``Engine.step`` returns the slot's int64 column blocks (see
``trace``), the columns the table returns and the pool totals beside
the pool nodes, kind codes and capacities every block shares
(``PoolTable.node``, ``kind`` and ``capacity``).  The totals are
``PoolTable.reserved`` itself, not a copy: its writers and ``clear``
replace the array, never write into it.  ``Engine.run`` wraps
every slot's blocks as the run's two ``trace.Rows``.  It builds no row
objects; ``metrics.summarize`` reads the columns into the run summary.
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
from .routing import (DEFAULT_CONGESTION_WEIGHT, MAX_CONGESTION_WEIGHT,
                      Path, compute_path)
from .tag import ChannelModel, HopTable
from .tele import (SessionTable, reserve_explicit, reserve_fair,
                   reserve_teleport)
from .topology import (DEFAULT_CAPACITY, INFRA_KIND, MAX_INFRA, MIN_ALPHA,
                       NetworkKind, NodeKind, Topology, generate_waxman)
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
        """Raise ConfigError, naming the field, for a config outside its
        bounds.

        ``generate_waxman`` holds an ``n_infra``-square matrix of draws and
        tables of its ``n_infra**2 / 2`` pairs: its traced peak is 48 bytes
        per ``n_infra**2`` (measured at 800, 1,600 and 3,200 nodes; 3,200
        peak at 469 MiB).  So ``MAX_INFRA``, 4,096, bounds setup at
        48 * 4,096**2 bytes = 768 MiB, under a tenth of an 8 GiB host, and
        a config above it is refused before anything is allocated.  An
        inline topology may hold as many nodes as a Waxman one at the
        bound: ``MAX_INFRA`` infrastructure nodes and a host on each.
        """
        if self.seed is None:
            raise ConfigError("a seed is mandatory for reproducibility")
        if self.network not in _COMPATIBLE[self.protocol]:
            raise ConfigError(
                f"protocol {self.protocol.value} cannot run on a "
                f"{self.network.value} network"
            )
        _within("n_slots", self.n_slots, 0)
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError("per-sharing success probability must be in [0, 1]")
        if not (math.isfinite(self.slot_length) and self.slot_length > 0):
            raise ConfigError("slot_length must be positive and finite")
        _within("capacity", self.capacity, 0, MAX_UNITS)
        if not 0 <= self.congestion_weight <= MAX_CONGESTION_WEIGHT:
            raise ConfigError("congestion_weight must be in "
                              f"[0, {MAX_CONGESTION_WEIGHT}]")
        spec = self.topology
        if isinstance(spec, WaxmanSpec):
            _within("waxman: n_infra", spec.n_infra, 2, MAX_INFRA)
            if not MIN_ALPHA <= spec.alpha <= 1:
                raise ConfigError(f"waxman: alpha must be in [{MIN_ALPHA!r}, 1]")
            for field in ("target_avg_degree", "area_side"):
                if not 0 < getattr(spec, field) < math.inf:
                    raise ConfigError(f"waxman: {field} must be positive and finite")
        else:
            _within("inline topology: node count", len(spec.nodes), 0,
                    2 * MAX_INFRA)
            for node in spec.nodes:
                _within(f"node {node.id}: capacity", node.capacity, 0,
                        MAX_UNITS)
        if isinstance(self.sessions, int):
            _within("session count", self.sessions, 0, MAX_SESSIONS)
            return
        _within("session count", len(self.sessions), 0, MAX_SESSIONS)
        for index, spec in enumerate(self.sessions):
            where = f"session {index}: "
            if spec.qubits is not None:
                _within(where + "qubits", spec.qubits, 0, _MAX_QUBITS)
            if spec.initial_window is not None:
                _within(where + "initial_window", spec.initial_window, 1,
                        MAX_UNITS)
            _within(where + "start_slot", spec.start_slot, 0)


def _within(what: str, value: int, low: int,
            high: int | None = None) -> None:
    """Raise ConfigError, naming ``what``, unless ``low <= value <= high``."""
    if value < low:
        raise ConfigError(f"{what} must be " + (
            "non-negative" if low == 0 else f"at least {low}"))
    if high is not None and value > high:
        raise ConfigError(f"{what} must be at most {high}")


@dataclass
class RunResult:
    """One run's trace and summary.  ``session_rows`` and ``pool_rows``
    are read-only ``trace.Rows`` over the int64 column blocks of every
    slot ``Engine.step`` ran; a hand-built result may hold row lists
    instead."""

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
        # The last slot's pool totals, which routing's load table reads.
        self._reserved = self.pools.reserved
        self.slot = 0

    # -- setup ---------------------------------------------------------

    def _resolve_sessions(self) -> dict[int, list[tuple[int, SessionSpec]]]:
        """Session ids and resolved specs by start slot, in id order.  One
        ``integers`` call over the bounds ``[h, h - 1]`` per sampled session
        (``h`` hosts) draws what one scalar call per bound would."""
        cfg = self.cfg
        hosts = sorted(n.id for n in self.topology.hosts())
        host_ids = set(hosts)
        requested = cfg.sessions
        if isinstance(requested, int):
            requested = [SessionSpec()] * requested
        schedule: dict[int, list[tuple[int, SessionSpec]]] = {}
        h = len(hosts)
        sampled = sum(spec.src is None for spec in requested) if h >= 2 else 0
        rng = stream(cfg.seed, SESSION_STREAM)
        ends = iter(rng.integers(np.tile([h, h - 1], sampled)).tolist())
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
                if h < 2:
                    raise ConfigError("need at least two hosts to sample sessions")
                i, j = next(ends), next(ends)
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
        admitted, scheduled = [], self._schedule.pop(self.slot, ())
        load = self._load if scheduled else None
        for sid, spec in scheduled:
            path = compute_path(self.topology, spec.src, spec.dst, load,
                                self.cfg.congestion_weight)
            self.paths[sid] = path.nodes
            if spec.qubits != 0:
                admitted.append((sid, path, spec.qubits, spec.initial_window))
        if scheduled and not self._schedule:
            # No later slot routes: free the hop lists for the rest of the run.
            self.topology.drop_hops()
        return admitted

    # -- per-slot phases ------------------------------------------------

    def step(self) -> tuple[int, tuple, tuple]:
        """Run the next slot; returns its ``(slot, session columns, pool
        columns)``, the blocks ``run`` wraps as ``trace.Rows``.  The pool
        block holds the slot's ``PoolTable.reserved`` array, which
        ``clear`` replaces."""
        if self.slot >= self.cfg.n_slots:
            raise RuntimeError(f"slot {self.slot}: the run has only "
                               f"{self.cfg.n_slots} slots")
        self.table.admit(self._admit())
        sessions = self.table.step()
        self._reserved = self.pools.reserved
        self.pools.clear()
        slot, self.slot = self.slot, self.slot + 1
        return slot, sessions, (self.pools.node, self.pools.kind,
                                self._reserved, self.pools.capacity)

    @property
    def _load(self) -> list[float]:
        """Reserved fraction per node, indexed by node id, in the last slot
        stepped (all 0.0 before the first); routing reads it in a slot that
        admits."""
        capacity = self._node_capacity
        # Node totals are exact float sums (see memory.MAX_UNITS).
        occupancy = np.bincount(self.pools.node, self._reserved,
                                len(capacity))
        held = np.flatnonzero(occupancy)
        occupancy[held] = np.minimum(1.0, occupancy[held] / capacity[held])
        return occupancy.tolist()

    # -- whole run ------------------------------------------------------

    def run(self) -> RunResult:
        """Step every slot of a fresh engine, then summarize the whole run;
        raises RuntimeError, naming the slot, if the engine was stepped."""
        if self.slot:
            raise RuntimeError(f"slot {self.slot}: run() needs an engine "
                               "that was never stepped")
        blocks = [self.step() for _ in range(self.cfg.n_slots)]
        result = RunResult(
            protocol=self.cfg.protocol.value,
            network=self.cfg.network.value,
            seed=self.cfg.seed,
            n_slots=self.cfg.n_slots,
            slot_length=self.cfg.slot_length,
            paths=dict(sorted(self.paths.items())),
            session_rows=Rows(SessionRow, [(slot, columns)
                                           for slot, columns, _ in blocks]),
            pool_rows=Rows(PoolRow, [(slot, columns)
                                     for slot, _, columns in blocks]),
            summary={},
        )
        result.summary = summarize(result)
        return result


def run(cfg: RunConfig) -> RunResult:
    """Execute one configured run; pure function of the configuration."""
    return Engine(cfg).run()
