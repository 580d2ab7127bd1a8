"""qdnsim: a deterministic, time-slotted simulator of quantum data networks.

The package models two transport families for streams of data qubits:
teleportation over reserved entanglement circuits (with explicit-window
and fair-share variants) and tell-and-go delivery protected by a
(2,3)-threshold sharing code, together with the quantum-memory
reservation machinery both rely on.
"""

from .engine import (
    Engine,
    Protocol,
    RunConfig,
    RunResult,
    SessionSpec,
    WaxmanSpec,
    run,
)
from .errors import (
    CapacityExceededError,
    ConfigError,
    DeadlockError,
    GenerationError,
    InfeasibleReservationError,
    MetricUndefinedError,
    NoRouteError,
    QdnError,
)
from .memory import Demand, Grant, MemoryPool, assign_memory, partition
from .metrics import (
    SteadyStats,
    ThroughputReport,
    effective_window,
    idle_fraction,
    jain,
    mean_windows,
    steady_state_stats,
    throughput,
    utilization,
    window_series,
)
from .routing import Path, compute_path
from .tag import ChannelModel, HopSession, SharingTransfer, Stage, advance, plan_transfers
from .tele import Phase, TeleSession, next_window
from .topology import (
    NetworkKind,
    Node,
    NodeKind,
    Topology,
    generate_waxman,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityExceededError",
    "ChannelModel",
    "ConfigError",
    "DeadlockError",
    "Demand",
    "Engine",
    "GenerationError",
    "Grant",
    "HopSession",
    "InfeasibleReservationError",
    "MemoryPool",
    "MetricUndefinedError",
    "NetworkKind",
    "NoRouteError",
    "Node",
    "NodeKind",
    "Path",
    "Phase",
    "Protocol",
    "QdnError",
    "RunConfig",
    "RunResult",
    "SessionSpec",
    "SharingTransfer",
    "Stage",
    "SteadyStats",
    "TeleSession",
    "ThroughputReport",
    "Topology",
    "WaxmanSpec",
    "advance",
    "assign_memory",
    "compute_path",
    "effective_window",
    "generate_waxman",
    "idle_fraction",
    "jain",
    "mean_windows",
    "next_window",
    "partition",
    "plan_transfers",
    "run",
    "steady_state_stats",
    "throughput",
    "utilization",
    "validate",
    "window_series",
]
