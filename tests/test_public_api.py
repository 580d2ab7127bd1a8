"""The package's public surface: narrowing or widening it is deliberate."""

import qdnsim

PUBLIC = [
    "CapacityExceededError", "ChannelModel", "ConfigError", "DeadlockError",
    "Demand", "Engine", "GenerationError", "Grant", "HopSession",
    "InfeasibleReservationError", "MemoryPool", "MetricUndefinedError",
    "NetworkKind", "NoRouteError", "Node", "NodeKind", "Path", "Phase",
    "Protocol", "QdnError", "RunConfig", "RunResult", "SessionSpec",
    "SharingTransfer", "Stage", "SteadyStats", "TeleSession",
    "ThroughputReport", "Topology", "WaxmanSpec", "advance", "assign_memory",
    "compute_path", "effective_window", "generate_waxman", "idle_fraction",
    "jain", "mean_windows", "next_window", "partition", "plan_transfers",
    "run", "steady_state_stats", "throughput", "utilization", "validate",
    "window_series",
]


def test_all_is_pinned():
    assert len(PUBLIC) == 47
    assert sorted(qdnsim.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in qdnsim.__all__:
        assert getattr(qdnsim, name) is not None, name
