"""Fairness, utilization, throughput, and sawtooth statistics."""

import random

import pytest

from qdnsim.engine import PoolRow, Protocol, RunResult, SessionRow
from qdnsim.errors import MetricUndefinedError
from qdnsim.metrics import (
    effective_window,
    idle_fraction,
    jain,
    steady_state_stats,
    throughput,
    utilization,
    window_series,
)
from qdnsim.topology import NetworkKind

from test_engine import star_config


def result_with(session_rows=(), pool_rows=(), n_slots=10, slot_length=1.0,
                total=0):
    return RunResult(
        protocol="tele", network="tele", seed=0, n_slots=n_slots,
        slot_length=slot_length, paths={},
        session_rows=list(session_rows), pool_rows=list(pool_rows),
        summary={"delivered_total": total, "sessions": {}},
    )


def session_row(slot, window, hop=0, session=0, delivered=0):
    return SessionRow(slot=slot, session=session, hop=hop, window=window,
                      congested=0, granted=window, delivered=delivered,
                      phase="CA", firsts=0, seconds=0, losses=0, stored=0)


class TestJain:
    def test_equal_windows_give_one(self):
        assert jain([5, 5, 5, 5]) == 1.0

    def test_single_active_session(self):
        assert jain([1, 0, 0, 0]) == 0.25

    def test_two_unequal(self):
        assert jain([4, 2]) == pytest.approx(0.9)

    def test_scale_invariance(self):
        rng = random.Random(4)
        for _ in range(50):
            values = [rng.uniform(0.1, 9) for _ in range(rng.randint(1, 9))]
            c = rng.uniform(0.1, 10)
            assert jain([c * v for v in values]) == pytest.approx(jain(values))

    def test_permutation_invariance(self):
        values = [3.0, 1.5, 8.0, 2.2]
        shuffled = [8.0, 2.2, 3.0, 1.5]
        assert jain(values) == pytest.approx(jain(shuffled))

    def test_all_zero_undefined(self):
        with pytest.raises(MetricUndefinedError):
            jain([0, 0])


class TestUtilization:
    def test_empty_pool(self):
        rows = [PoolRow(0, 3, "receive", 0, 100)]
        assert utilization(result_with(pool_rows=rows), 3, "receive") == [0.0]

    def test_full_pool(self):
        rows = [PoolRow(0, 3, "receive", 100, 100)]
        assert utilization(result_with(pool_rows=rows), 3, "receive") == [1.0]

    def test_zero_capacity_undefined(self):
        rows = [PoolRow(0, 3, "receive", 0, 0)]
        with pytest.raises(MetricUndefinedError):
            utilization(result_with(pool_rows=rows), 3, "receive")


class TestEffectiveWindow:
    def test_minimum_across_hops(self):
        rows = [session_row(0, 8, hop=0), session_row(0, 3, hop=1),
                session_row(0, 5, hop=2)]
        assert effective_window(result_with(session_rows=rows), 0) == [3]

    def test_single_hop_passthrough(self):
        rows = [session_row(0, 7), session_row(1, 9)]
        assert effective_window(result_with(session_rows=rows), 0) == [7, 9]

    def test_equal_hops(self):
        rows = [session_row(0, 4, hop=h) for h in range(3)]
        assert effective_window(result_with(session_rows=rows), 0) == [4]


class TestSteadyStateStats:
    def test_constant_series(self):
        stats = steady_state_stats([5.0] * 40, warmup=10)
        assert stats.mean == 5.0
        assert stats.period is None

    def test_ideal_sawtooth_mean(self):
        # Ramp 6..12 repeatedly: mean 9 equals three quarters of the peak.
        series = []
        for _ in range(10):
            series.extend(range(6, 13))
        stats = steady_state_stats([float(x) for x in series], warmup=0)
        assert stats.mean == pytest.approx(9.0)
        assert stats.period == pytest.approx(7.0)
        assert stats.maximum == 12

    def test_warmup_must_leave_data(self):
        with pytest.raises(ValueError):
            steady_state_stats([1.0, 2.0], warmup=2)

    def test_negative_warmup_rejected(self):
        # A negative warmup would measure only the last few points.
        with pytest.raises(ValueError, match="warmup"):
            steady_state_stats([float(x) for x in range(1, 9)], warmup=-3)


class TestIdleFraction:
    def test_fully_utilized(self):
        rows = [PoolRow(s, 3, "receive", 100, 100) for s in range(20)]
        assert idle_fraction(result_with(pool_rows=rows), 3, "receive", 5) == 0.0

    def test_reports_worst_slot(self):
        rows = [PoolRow(0, 3, "receive", 100, 100),
                PoolRow(1, 3, "receive", 87, 100),
                PoolRow(2, 3, "receive", 95, 100)]
        value = idle_fraction(result_with(pool_rows=rows), 3, "receive", 1)
        assert value == pytest.approx(0.13)

    @pytest.mark.parametrize("warmup", [-1, 3])
    def test_warmup_out_of_range_rejected(self, warmup):
        # Three slots; -1 would measure only the last one.
        rows = [PoolRow(s, 3, "receive", 100 - s, 100) for s in range(3)]
        with pytest.raises(ValueError, match="warmup"):
            idle_fraction(result_with(pool_rows=rows), 3, "receive", warmup)


class TestThroughput:
    def test_per_time_consistency(self):
        result = result_with(n_slots=20, slot_length=2.5, total=60)
        report = throughput(result)
        assert report.per_slot == 3.0
        assert report.per_time * result.slot_length * result.n_slots == 60

    def test_zero_slots(self):
        report = throughput(result_with(n_slots=0))
        assert report.total == 0 and report.per_slot == 0.0


class TestWindowSeries:
    def test_engine_trace_round_trip(self):
        cfg = star_config(Protocol.TELE, NetworkKind.TELE, [(None, None)],
                          n_slots=5)
        from qdnsim.engine import run

        series = window_series(run(cfg), 0)
        assert series == [1, 2, 4, 8, 16]


# -- the indexed trace metrics against the full-scan reference ---------------


def scan_utilization(result, node, pool):
    series = [
        row.reserved / row.capacity
        for row in result.pool_rows
        if row.node == node and row.pool == pool and row.capacity > 0
    ]
    if not series:
        raise MetricUndefinedError(
            f"no recorded occupancy for a nonzero-capacity {pool} pool at "
            f"node {node}"
        )
    return series


def scan_effective_window(result, session):
    per_slot = {}
    for row in result.session_rows:
        if row.session != session:
            continue
        per_slot[row.slot] = min(per_slot.get(row.slot, row.window), row.window)
    return [per_slot[slot] for slot in sorted(per_slot)]


def scan_window_series(result, session, hop=0):
    return [
        row.window
        for row in result.session_rows
        if row.session == session and row.hop == hop
    ]


def outcome(fn, *args):
    try:
        return fn(*args)
    except MetricUndefinedError as exc:
        return ("MetricUndefinedError", str(exc))


def assert_matches_scan(result, sessions, hops, pools):
    """Every indexed metric equals its full-scan reference, value or error."""
    for sid in sessions:
        assert outcome(effective_window, result, sid) == \
            outcome(scan_effective_window, result, sid)
        for hop in hops:
            assert outcome(window_series, result, sid, hop) == \
                outcome(scan_window_series, result, sid, hop)
    for node, pool in pools:
        assert outcome(utilization, result, node, pool) == \
            outcome(scan_utilization, result, node, pool)


POOL_KINDS = ("send", "receive", "transit")


def shuffled_trace(seed, n_slots=12):
    """Session rows of up to three hops per session and pool rows, some of
    zero capacity, in shuffled slot order."""
    rng = random.Random(seed)
    session_rows = [
        session_row(slot, rng.randint(0, 40), hop=hop, session=sid)
        for sid in range(rng.randint(1, 6))
        for hop in range(rng.randint(1, 3))
        for slot in rng.sample(range(n_slots), rng.randint(1, n_slots))
    ]
    pool_rows = [
        PoolRow(slot, node, kind, rng.randint(0, 30),
                rng.choice([0, 30, 30, 50]))
        for node in range(rng.randint(1, 5))
        for kind in rng.sample(POOL_KINDS, rng.randint(1, 3))
        for slot in range(n_slots)
    ]
    rng.shuffle(session_rows)
    rng.shuffle(pool_rows)
    return session_rows, pool_rows


#: Ids past every generated one, and unhashable ones, so each check also
#: asks for unknown ones.
ALL_SESSIONS = [*range(-1, 8), [0]]
ALL_HOPS = range(-1, 4)
ALL_POOLS = [(node, kind) for node in [*range(-1, 7), [0]]
             for kind in [*POOL_KINDS, ["send"]]]


class TestIndexedMetrics:
    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_traces_match_scan(self, seed):
        session_rows, pool_rows = shuffled_trace(seed)
        result = result_with(session_rows, pool_rows)
        assert_matches_scan(result, ALL_SESSIONS, ALL_HOPS, ALL_POOLS)

    def test_empty_result_matches_scan(self):
        assert_matches_scan(result_with(), ALL_SESSIONS, ALL_HOPS, ALL_POOLS)

    @pytest.mark.parametrize("seed", range(6))
    def test_quotients_up_to_2_53(self, seed):
        # utilization divides int64 columns in float64; every value below
        # 2**53 converts exactly, so each quotient is Python's int / int.
        rng = random.Random(seed)

        def value():
            return rng.choice([rng.randint(0, 2**53), 2**53 - rng.randint(0, 9),
                               rng.randint(0, 2**20), 2**53, 0])
        pool_rows = [PoolRow(slot, node, kind, value(), value())
                     for node in range(rng.randint(1, 5))
                     for kind in rng.sample(POOL_KINDS, rng.randint(1, 3))
                     for slot in range(12)]
        rng.shuffle(pool_rows)
        assert_matches_scan(result_with(pool_rows=pool_rows), [], [],
                            ALL_POOLS)

    def test_zero_capacity_pool_is_undefined(self):
        rows = [PoolRow(s, 3, "receive", 0, 0) for s in range(4)]
        rows += [PoolRow(s, 3, "send", 2, 4 if s % 2 else 0) for s in range(4)]
        result = result_with(pool_rows=rows)
        with pytest.raises(MetricUndefinedError, match="receive pool at node 3"):
            utilization(result, 3, "receive")
        assert utilization(result, 3, "send") == [0.5, 0.5]

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_appended_after_a_call_are_seen(self, seed):
        session_rows, pool_rows = shuffled_trace(seed)
        half_s, half_p = len(session_rows) // 2, len(pool_rows) // 2
        result = result_with(session_rows[:half_s], pool_rows[:half_p])
        assert_matches_scan(result, ALL_SESSIONS, ALL_HOPS, ALL_POOLS)
        result.session_rows.extend(session_rows[half_s:])
        result.pool_rows.extend(pool_rows[half_p:])
        assert_matches_scan(result, ALL_SESSIONS, ALL_HOPS, ALL_POOLS)

    def test_replaced_row_list_of_same_length_is_seen(self):
        result = result_with(
            [session_row(0, 5, session=0), session_row(0, 7, session=1)],
            [PoolRow(0, 1, "send", 1, 4), PoolRow(0, 2, "send", 2, 4)])
        assert window_series(result, 0) == [5]
        assert utilization(result, 1, "send") == [0.25]
        result.session_rows = [session_row(0, 9, session=1),
                               session_row(0, 3, session=0)]
        result.pool_rows = [PoolRow(0, 2, "send", 0, 4),
                            PoolRow(0, 1, "send", 3, 4)]
        assert window_series(result, 0) == [3]
        assert utilization(result, 1, "send") == [0.75]

    def test_index_is_not_part_of_the_result(self):
        session_rows, pool_rows = shuffled_trace(3)
        indexed = result_with(session_rows, pool_rows)
        plain = result_with(session_rows, pool_rows)
        assert_matches_scan(indexed, ALL_SESSIONS, ALL_HOPS, ALL_POOLS)
        assert indexed == plain
        assert repr(indexed) == repr(plain)

    def test_multi_hop_tag_relay_run_matches_scan(self):
        from qdnsim.engine import run
        from test_golden import CONFIGS

        result = run(CONFIGS["tag_relay"]())
        hops = {row.hop for row in result.session_rows}
        assert max(hops) >= 2
        pools = {(row.node, row.pool) for row in result.pool_rows}
        assert_matches_scan(result, [*result.paths, max(result.paths) + 1],
                            range(max(hops) + 2), sorted(pools) + [(-1, "send")])
