"""The run summary, fairness, utilization, throughput and sawtooth
statistics over finished traces.

``summarize`` builds ``RunResult.summary``; the engine calls it once, at
the end of a run.  The metrics read the trace's int64 column blocks (see
``trace``); a row list, as a hand-built ``RunResult`` may hold, goes
through ``Rows.of`` first.  Each table of a finished trace is indexed
once, by one sort of its columns: the session rows by session and slot,
with each (session, slot) group's minimum window and each session's
summary totals, and the nonzero-capacity pool rows by ``(node, pool)``,
in row order.  Every call then reads one slice of an index.  An index
drops each temporary column as soon as it is read: it is built when the
trace is largest, so its peak is the run's.  The index lives on the
result outside its dataclass fields, so it takes no part in ``==`` or
``repr``, and is rebuilt whenever a row sequence is a different object
or has a different length than when it was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MetricUndefinedError
from .trace import WORDS, PoolRow, Rows, SessionRow

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


def _column(rows: Rows, field: str) -> np.ndarray:
    """One int64 column of every row: a ``str`` field's codes."""
    if field == "slot":
        return np.repeat(np.array([slot for slot, _ in rows.blocks],
                                  dtype=np.int64),
                         [len(columns[0]) for _, columns in rows.blocks])
    at = rows.row_type._fields.index(field) - 1
    return np.concatenate([np.zeros(0, dtype=np.int64),
                           *(columns[at] for _, columns in rows.blocks)])


def _runs(n: int, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the runs of equal ``keys`` over ``n`` rows."""
    change = np.zeros(n, dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    starts = np.flatnonzero(change)
    return starts, np.r_[starts[1:], n]


class _SessionIndex:
    """Session rows sorted by session, then slot, then row order.

    ``rows[sid]`` and ``groups[sid]`` are a session's slices of the sorted
    rows and of ``mins``, the minimum window of each of its active slots.
    ``totals[sid]`` is what its egress (highest) hop delivered, the sum of
    ``mins`` and their count.
    """

    def __init__(self, rows: Rows):
        slot, session = _column(rows, "slot"), _column(rows, "session")
        self.order = order = np.lexsort((slot, session))
        slot, session, n = slot[order], session[order], len(order)
        starts, ends = _runs(n, session)
        group_starts, _ = _runs(n, session, slot)
        ids = session[starts].tolist()
        del slot, session
        first_group = np.searchsorted(group_starts, starts)
        last_group = np.r_[first_group[1:], len(group_starts)]
        self.rows = dict(zip(ids, zip(starts.tolist(), ends.tolist())))
        self.groups = dict(zip(ids, zip(first_group.tolist(),
                                        last_group.tolist())))
        self.hop = _column(rows, "hop")[order]
        self.window = _column(rows, "window")[order]
        if not n:
            self.mins, self.totals = [], {}
            return
        mins = np.minimum.reduceat(self.window, group_starts)
        delivered = _column(rows, "delivered")[order]
        delivered[self.hop != np.repeat(np.maximum.reduceat(self.hop, starts),
                                        ends - starts)] = 0
        # A grant fits its pools (at most MAX_UNITS) and a window is at most
        # twice the last grant, so these int64 sums over slots are exact.
        self.totals = dict(zip(ids, zip(
            np.add.reduceat(delivered, starts).tolist(),
            np.add.reduceat(mins, first_group).tolist(),
            (last_group - first_group).tolist())))
        self.mins = mins.tolist()


class _PoolIndex:
    """Nonzero-capacity pool rows grouped by ``(node, pool)``, in row
    order; ``groups[node, pool]`` is a pool's slice of ``reserved`` and
    ``capacity``."""

    def __init__(self, rows: Rows):
        words = WORDS["pool"]
        key = _column(rows, "node") * len(words) + _column(rows, "pool")
        capacity = _column(rows, "capacity")
        held = np.flatnonzero(capacity > 0)
        key = key[held]
        by_key = np.argsort(key, kind="stable")
        key, order = key[by_key], held[by_key]
        del held, by_key
        self.capacity = capacity[order]
        del capacity
        self.reserved = _column(rows, "reserved")[order]
        starts, ends = _runs(len(order), key)
        node, kind = np.divmod(key[starts], len(words))
        self.groups = dict(zip(
            zip(node.tolist(), [words[code] for code in kind.tolist()]),
            zip(starts.tolist(), ends.tolist())))


def _index(result: RunResult, field: str, row_type: type, build):
    """``build`` over ``result``'s ``field`` rows, kept on ``result`` while
    they stay the same object of the same length."""
    rows = getattr(result, field)
    cache = vars(result).setdefault("_metrics_index", {})
    entry = cache.get(field)
    if entry is None or entry[0] is not rows or entry[1] != len(rows):
        entry = cache[field] = (rows, len(rows),
                                build(Rows.of(row_type, rows)))
    return entry[2]


def _slice(groups: dict, key) -> tuple[int, int]:
    try:
        return groups.get(key, (0, 0))
    except TypeError:  # an unhashable id matches no row
        return 0, 0


def utilization(result: RunResult, node: int, pool: str) -> list[float]:
    """Per-slot reserved/capacity for one pool, in [0, 1].

    One float64 division of the int64 columns: it equals Python's
    ``int / int`` while both are below 2**53, which the engine's are (at
    most ``memory.MAX_UNITS``)."""
    index = _index(result, "pool_rows", PoolRow, _PoolIndex)
    start, end = _slice(index.groups, (node, pool))
    if start == end:
        raise MetricUndefinedError(
            f"no recorded occupancy for a nonzero-capacity {pool} pool at "
            f"node {node}"
        )
    return (index.reserved[start:end] / index.capacity[start:end]).tolist()


def _sessions(result: RunResult) -> _SessionIndex:
    return _index(result, "session_rows", SessionRow, _SessionIndex)


def effective_window(result: RunResult, session: int) -> list[int]:
    """Per-slot minimum window across a flow's hop sessions."""
    index = _sessions(result)
    start, end = _slice(index.groups, session)
    return index.mins[start:end]


def window_series(result: RunResult, session: int, hop: int = 0) -> list[int]:
    """Announced window per slot for one session (one hop of a flow)."""
    index = _sessions(result)
    start, end = _slice(index.rows, session)
    at = np.flatnonzero(index.hop[start:end] == hop) + start
    return index.window[at[np.argsort(index.order[at])]].tolist()


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
    totals = _sessions(result).totals
    sessions = {}
    for sid, path in sorted(result.paths.items()):
        delivered, window_sum, active = totals.get(sid, (0, 0, 0))
        sessions[sid] = {
            "delivered": delivered,
            "mean_window": window_sum / active if active else 0.0,
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
