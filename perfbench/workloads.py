"""Seeded workloads, the fixed analysis pass and the correctness checks.

Every workload is a list of ``(label, RunConfig)`` pairs that one benchmark
iteration runs in turn.  The sweep values are pinned here rather than read
from ``qdnsim.presets`` so that the benchmark's inputs cannot move when a
preset is retuned.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from qdnsim import metrics
from qdnsim.engine import Protocol, RunConfig, SessionSpec, WaxmanSpec
from qdnsim.topology import NetworkKind

#: Seed whose emitted files are pinned in ``digests.json``.
DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")

# The wide-area sweep behind ``SWEEP_*`` and ``TRADEOFF_P`` in presets.py.
SWEEP_INFRA = 50
SWEEP_ALPHA = 0.06
SWEEP_SESSIONS = 100
SWEEP_SLOTS = 200
SWITCH_P = 0.65

CHURN_INFRA = 200
CHURN_SESSIONS = 1600
CHURN_LAST_START = 179

#: Fraction of slots discarded before steady-state statistics.
WARMUP_FRACTION = 0.25

FORMATS = ["tabular", "records"]


def _sweep(seed: int, protocol: Protocol, network: NetworkKind,
           p: float = 1.0) -> RunConfig:
    return RunConfig(
        seed=seed, protocol=protocol, network=network,
        topology=WaxmanSpec(n_infra=SWEEP_INFRA, alpha=SWEEP_ALPHA),
        sessions=SWEEP_SESSIONS, n_slots=SWEEP_SLOTS, p=p,
    )


def _churn(seed: int) -> RunConfig:
    draw = random.Random(seed)
    sessions = [
        SessionSpec(
            qubits=round(2 ** draw.uniform(5, 10)),
            start_slot=draw.randint(0, CHURN_LAST_START),
        )
        for _ in range(CHURN_SESSIONS)
    ]
    return RunConfig(
        seed=seed, protocol=Protocol.TELE, network=NetworkKind.TELE,
        topology=WaxmanSpec(n_infra=CHURN_INFRA, alpha=SWEEP_ALPHA),
        sessions=sessions, n_slots=SWEEP_SLOTS,
    )


def configs(workload: str, seed: int) -> list[tuple[str, RunConfig]]:
    """The runs one iteration of ``workload`` makes, drawn from ``seed``."""
    if workload == "tele_wan":
        return [
            (protocol.value, _sweep(seed, protocol, NetworkKind.TELE))
            for protocol in (Protocol.TELE, Protocol.EW, Protocol.FRA)
        ]
    if workload == "tag_relay":
        return [("tag", _sweep(seed, Protocol.TAG, NetworkKind.TAG_RELAY))]
    if workload == "tag_switch_lossy":
        return [("tag", _sweep(seed, Protocol.TAG, NetworkKind.TAG_SWITCH,
                               p=SWITCH_P))]
    if workload == "tele_churn":
        return [("tele", _churn(seed))]
    raise ValueError(f"unknown workload {workload!r}")



def memory_pools(result) -> list[tuple[int, str]]:
    """Every pool with nonzero capacity, from the first recorded slot."""
    return sorted(
        (row.node, row.pool) for row in result.pool_rows
        if row.slot == 0 and row.capacity > 0
    )


def analyze(result, pools: list[tuple[int, str]]) -> None:
    """What presets and acceptance checks compute, widened to every
    session and pool.  Module attributes are looked up at call time so
    that the tracer sees the calls."""
    warmup = int(result.n_slots * WARMUP_FRACTION)
    for sid in result.paths:
        metrics.effective_window(result, sid)
        series = metrics.window_series(result, sid, 0)
        if len(series) > warmup:
            metrics.steady_state_stats(series, warmup)
    for node, kind in pools:
        metrics.utilization(result, node, kind)
    means = list(metrics.mean_windows(result).values())
    if any(m > 0 for m in means):
        metrics.jain(means)
    metrics.throughput(result)


def file_digests(paths) -> dict[str, str]:
    """SHA-256 of each emitted file, keyed by file name."""
    digests = {}
    for path in paths:
        with open(path, "rb") as handle:
            digests[Path(path).name] = hashlib.file_digest(
                handle, "sha256").hexdigest()
    return digests


def pinned_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def invariant_failures(result) -> list[tuple[str, str]]:
    """Trace invariants every run must satisfy, as (check, detail) pairs."""
    failures = []
    for row in result.pool_rows:
        if row.reserved > row.capacity:
            failures.append((
                "pool_capacity",
                f"slot {row.slot} {row.pool}@{row.node}: "
                f"{row.reserved} > {row.capacity}",
            ))
            break
    egress: dict[int, int] = {}
    for row in result.session_rows:
        expected = row.window // 2 if row.congested else row.window
        if row.granted != expected:
            failures.append((
                "single_halving",
                f"slot {row.slot} session {row.session} hop {row.hop}: "
                f"granted {row.granted}, window {row.window}, "
                f"congested {row.congested}",
            ))
            break
    for row in result.session_rows:
        egress[row.session] = max(egress.get(row.session, 0), row.hop)
    delivered = sum(
        row.delivered for row in result.session_rows
        if row.hop == egress[row.session]
    )
    if result.summary["delivered_total"] != delivered:
        failures.append((
            "delivered_total",
            f"summary {result.summary['delivered_total']} != "
            f"egress rows {delivered}",
        ))
    return failures

