"""The run summary, fairness, utilization, throughput and sawtooth
statistics over finished traces.

``summarize`` builds ``RunResult.summary``; the engine calls it once, at
the end of a run.  A finished trace is indexed once: the first call groups
its session rows by session and its nonzero-capacity pool rows by
``(node, pool)``, and every call then reads only its own group, in row
order.  The groups hold row offsets, not rows.  They live on the result
outside its dataclass fields, so they take no part in ``==`` or ``repr``,
and are rebuilt whenever a row list is a different object or has a
different length than when they were built.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .errors import MetricUndefinedError

if TYPE_CHECKING:
    from .engine import RunResult


def jain(values: list[float]) -> float:
    """Jain's fairness index: (sum w)^2 / (N * sum w^2); 1 means equality."""
    if not values:
        raise MetricUndefinedError("fairness of an empty list is undefined")
    if any(v < 0 for v in values):
        raise ValueError("window averages must be non-negative")
    if all(v == 0 for v in values):
        raise MetricUndefinedError("fairness of all-zero windows is undefined")
    total = sum(values)
    return total ** 2 / (len(values) * sum(v * v for v in values))


def _rows(result: RunResult, rows: list, group, key) -> list:
    """The rows of ``group(rows)[key]`` in row order; the grouping is kept
    on ``result`` while ``rows`` stays the same list object of the same
    length."""
    cache = vars(result).setdefault("_metrics_index", {})
    entry = cache.get(group)
    if entry is None or entry[0] is not rows or entry[1] != len(rows):
        entry = cache[group] = (rows, len(rows), group(rows))
    try:
        offsets = entry[2].get(key, ())
    except TypeError:  # an unhashable id matches no row
        offsets = ()
    return [rows[i] for i in offsets]


def _by_session(rows: list) -> dict:
    groups = defaultdict(partial(array, "I"))
    for i, row in enumerate(rows):
        groups[row.session].append(i)
    return dict(groups)


def _by_pool(rows: list) -> dict:
    groups = defaultdict(partial(array, "I"))
    for i, row in enumerate(rows):
        if row.capacity > 0:
            groups[row.node, row.pool].append(i)
    return dict(groups)


def utilization(result: RunResult, node: int, pool: str) -> list[float]:
    """Per-slot reserved/capacity for one pool, in [0, 1]."""
    rows = _rows(result, result.pool_rows, _by_pool, (node, pool))
    if not rows:
        raise MetricUndefinedError(
            f"no recorded occupancy for a nonzero-capacity {pool} pool at "
            f"node {node}"
        )
    return [row.reserved / row.capacity for row in rows]


def _session_rows(result: RunResult, session: int) -> list:
    return _rows(result, result.session_rows, _by_session, session)


def effective_window(result: RunResult, session: int) -> list[int]:
    """Per-slot minimum window across a flow's hop sessions."""
    per_slot: dict[int, int] = {}
    for row in _session_rows(result, session):
        if row.slot not in per_slot or row.window < per_slot[row.slot]:
            per_slot[row.slot] = row.window
    return [per_slot[slot] for slot in sorted(per_slot)]


def window_series(result: RunResult, session: int, hop: int = 0) -> list[int]:
    """Announced window per slot for one session (one hop of a flow)."""
    return [row.window for row in _session_rows(result, session)
            if row.hop == hop]


@dataclass(frozen=True)
class SteadyStats:
    minimum: float
    maximum: float
    mean: float
    period: float | None  # None when the series has no repeating peaks


def steady_state_stats(series: list[float], warmup: int) -> SteadyStats:
    """Statistics over the post-warmup suffix of a window series.

    The sawtooth period is estimated from the spacing of successive local
    maxima (points from which the series next moves downward).
    """
    if not 0 <= warmup < len(series):
        raise ValueError("warmup must lie in [0, len(series))")
    suffix = series[warmup:]
    peaks = [
        i for i in range(len(suffix) - 1)
        if suffix[i] > suffix[i + 1]
        and (i == 0 or suffix[i] >= suffix[i - 1])
    ]
    period = None
    if len(peaks) >= 2:
        gaps = [b - a for a, b in zip(peaks, peaks[1:])]
        period = sum(gaps) / len(gaps)
    return SteadyStats(
        minimum=min(suffix),
        maximum=max(suffix),
        mean=sum(suffix) / len(suffix),
        period=period,
    )


def idle_fraction(result: RunResult, node: int, pool: str, warmup: int) -> float:
    """Largest post-warmup fraction of an occupied pool left unreserved."""
    series = utilization(result, node, pool)
    if not 0 <= warmup < len(series):
        raise ValueError("warmup must lie in [0, len(utilization series))")
    return max(1.0 - u for u in series[warmup:])


@dataclass(frozen=True)
class ThroughputReport:
    total: int
    per_slot: float
    per_time: float


def _throughput(result: RunResult, total: int) -> ThroughputReport:
    per_slot = total / result.n_slots if result.n_slots else 0.0
    return ThroughputReport(total, per_slot, per_slot / result.slot_length)


def throughput(result: RunResult) -> ThroughputReport:
    """Delivered qubits in total, per slot, and per abstract time unit."""
    return _throughput(result, result.summary["delivered_total"])


def mean_windows(result: RunResult) -> dict[int, float]:
    """Per-session mean effective window over the session's active slots."""
    return {
        sid: info["mean_window"]
        for sid, info in result.summary["sessions"].items()
    }


def summarize(result: RunResult) -> dict:
    """``RunResult.summary``: per admitted session, what its egress (highest)
    hop delivered, its mean effective window and its hop count; then their
    total and rates, and the Jain index of the means (None if all are 0)."""
    sessions = {}
    for sid, path in sorted(result.paths.items()):
        rows = _session_rows(result, sid)
        egress = max((row.hop for row in rows), default=0)
        windows = effective_window(result, sid)
        sessions[sid] = {
            "delivered": sum(r.delivered for r in rows if r.hop == egress),
            "mean_window": sum(windows) / len(windows) if windows else 0.0,
            "hops": len(path) - 1,
        }
    rates = _throughput(result, sum(info["delivered"] for info in sessions.values()))
    means = [info["mean_window"] for info in sessions.values()]
    return {
        "delivered_total": rates.total,
        "throughput_per_slot": rates.per_slot,
        "throughput_per_time": rates.per_time,
        "jain_mean_window": jain(means) if any(m > 0 for m in means) else None,
        "sessions": sessions,
    }
