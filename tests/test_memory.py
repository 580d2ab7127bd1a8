"""Memory assignment, partitioning, and pool accounting."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qdnsim.errors import CapacityExceededError, InfeasibleReservationError
from qdnsim.memory import (
    MAX_UNITS,
    Demand,
    Incidence,
    MemoryPool,
    PoolTable,
    TAG_SEND_COST,
    TAG_SPLIT,
    TELE_SPLIT,
    assign_memory,
    cost,
    partition,
    reserve,
)


def grants_of(windows, capacity, unit_cost=Fraction(1)):
    demands = [Demand(i, w, unit_cost) for i, w in enumerate(windows)]
    result = assign_memory(demands, capacity)
    return (
        [result[i].window for i in range(len(windows))],
        [result[i].congested for i in range(len(windows))],
    )


class TestPartition:
    def test_tele_split_of_1000(self):
        assert partition(1000, TELE_SPLIT) == (666, 334)

    def test_tag_split_of_1000(self):
        assert partition(1000, TAG_SPLIT) == (692, 308)

    def test_zero_capacity(self):
        assert partition(0, TELE_SPLIT) == (0, 0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            partition(-1, TELE_SPLIT)

    @pytest.mark.parametrize("split", [TELE_SPLIT, TAG_SPLIT])
    def test_send_share_is_the_floor_of_the_exact_product(self, split):
        totals = [*range(10_001), *range(MAX_UNITS - 1_000, MAX_UNITS + 1_001)]
        for total in totals:
            send = math.floor(split * total)
            assert partition(total, split) == (send, total - send), total


class TestAssignMemory:
    def test_undersubscribed_grants_everything(self):
        windows, congested = grants_of([2, 1], 10, unit_cost=Fraction(2))
        assert windows == [2, 1]
        assert congested == [False, False]

    def test_single_cut_frees_enough(self):
        # Demand 13 against 10: halving the largest releases 3 units.
        windows, congested = grants_of([6, 5, 2], 10)
        assert windows == [3, 5, 2]
        assert congested == [True, False, False]

    def test_two_cuts_needed(self):
        # Demand 9 against 5 shrinks 9 -> 7 -> 5 across two cuts.
        windows, congested = grants_of([3, 3, 3], 5)
        assert windows == [1, 1, 3]
        assert congested == [True, True, False]

    def test_infeasible_after_cutting_everyone(self):
        with pytest.raises(InfeasibleReservationError):
            grants_of([4, 4], 3)

    def test_tie_break_cuts_smaller_session_first(self):
        windows, congested = grants_of([3, 3], 5)
        assert windows == [1, 3]
        assert congested == [True, False]

    def test_fractional_cost_uses_ceilings(self):
        result = assign_memory([Demand(0, 4, TAG_SEND_COST)], 9)
        assert result[0].window == 4  # ceil(9*4/4) = 9 fits exactly

    def test_floor_blocks_release(self):
        # Cutting a floored demand releases nothing; the cut moves on.
        demands = [Demand(0, 4, floor=6), Demand(1, 4)]
        result = assign_memory(demands, 9)
        assert result[0] == result[0].__class__(2, True)
        assert result[0].window == 2 and result[0].congested
        assert result[1].window == 2 and result[1].congested

    def test_fuzzed_assignments_never_overcommit(self):
        import random

        rng = random.Random(1234)
        for _ in range(500):
            n = rng.randint(1, 12)
            windows = [rng.randint(1, 40) for _ in range(n)]
            cost = rng.choice([Fraction(1), Fraction(2), TAG_SEND_COST])
            demands = [Demand(i, w, cost) for i, w in enumerate(windows)]
            capacity = rng.randint(1, 150)
            try:
                result = assign_memory(demands, capacity)
            except InfeasibleReservationError:
                continue
            used = sum(d.cost(result[d.session].window) for d in demands)
            assert used <= capacity
            # Every grant is the request or its half, flagged accordingly.
            for d in demands:
                grant = result[d.session]
                if grant.congested:
                    assert grant.window == d.window // 2
                else:
                    assert grant.window == d.window
            # Cuts form a prefix of the descending-window order.
            order = sorted(demands, key=lambda d: (-d.window, d.session))
            flags = [result[d.session].congested for d in order]
            assert flags == sorted(flags, reverse=True)

    def test_deterministic(self):
        demands = [Demand(i, w) for i, w in enumerate([7, 7, 3, 9])]
        first = assign_memory(demands, 14)
        second = assign_memory(list(reversed(demands)), 14)
        assert first == second


class TestMemoryPool:
    def test_reserve_tracks_free_space(self):
        pool = MemoryPool(0, "receive", 100)
        pool.require(10)
        assert pool.reserved == 10
        assert pool.capacity - pool.reserved == 90

    def test_over_reservation_raises(self):
        pool = MemoryPool(0, "receive", 100)
        with pytest.raises(CapacityExceededError,
                           match="receive@0: reserving 101 with only 100 "
                                 "of 100 free"):
            pool.require(101)

    def test_release_restores_capacity(self):
        pool = MemoryPool(0, "receive", 100)
        pool.require(60)
        pool.require(-60)
        assert pool.capacity - pool.reserved == 100

    def test_require_moves_both_directions(self):
        pool = MemoryPool(0, "send", 50)
        pool.require(30)
        pool.require(-18)
        assert pool.reserved == 12
        pool.require(-12)
        assert pool.reserved == 0

    def test_negative_target_rejected(self):
        # Returning more than is reserved would take the total below zero.
        pool = MemoryPool(0, "send", 50)
        pool.require(7)
        with pytest.raises(ValueError,
                           match="pool send@0: cannot return 8 of 7 reserved"):
            pool.require(-8)
        assert pool.reserved == 7

    def test_running_total_tracks_holdings(self):
        pool = MemoryPool(0, "send", 50)
        total = 0
        for units in (20, 15, -15, -10):
            pool.require(units)
            total += units
            assert pool.reserved == total
            assert 0 <= pool.reserved <= pool.capacity
        with pytest.raises(CapacityExceededError,
                           match="send@0: reserving 41 with only 40 of 50 "
                                 "free"):
            pool.require(41)
        assert pool.reserved == 10
        pool.require(40)
        assert pool.capacity - pool.reserved == 0
        with pytest.raises(ValueError, match="cannot return 51 of 50"):
            pool.require(-51)
        assert pool.reserved == 50
        pool.clear()
        assert pool.reserved == 0


def table_and_points(pools, requests):
    """A ``PoolTable`` of ``pools`` and the ``Incidence`` of ``requests``,
    each ``(session, window, points)`` with ``(key, unit cost, floor)``
    points; the session id is the tie id."""
    table = PoolTable(pools)
    rows = [(table.index[key], rank, session, Fraction(price).numerator,
             Fraction(price).denominator, floor)
            for rank, (session, _, points) in enumerate(requests)
            for key, price, floor in points]
    columns = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    windows = np.array([window for _, window, _ in requests], dtype=np.int64)
    return table, Incidence(*columns), windows


def replay_holds(pools, requests, granted):
    """``MemoryPool.require`` at every point in hold order: the first
    error's text, or the totals by key."""
    by_key = {(pool.node, pool.kind): pool for pool in pools}
    try:
        for (_, _, points), window in zip(requests, granted):
            for key, price, floor in points:
                by_key[key].require(cost(price, window, floor))
    except CapacityExceededError as exc:
        return str(exc)
    return {key: pool.reserved for key, pool in by_key.items()}


def reference_reserve(pools, requests):
    """Each pool's ``assign_memory`` in key order, then the replayed holds:
    the grants and the totals by key, or the first error's text."""
    marked = set()
    for pool in sorted(pools, key=lambda pool: (pool.node, pool.kind)):
        demands = [Demand(session, window, price, floor)
                   for session, window, points in requests
                   for key, price, floor in points
                   if key == (pool.node, pool.kind)]
        try:
            grants = assign_memory(demands, pool.capacity)
        except InfeasibleReservationError as exc:
            return f"pool {pool.kind}@{pool.node}: {exc}"
        marked.update(s for s, grant in grants.items() if grant.congested)
    grants = [(window // 2, True) if session in marked else (window, False)
              for session, window, _ in requests]
    totals = replay_holds(pools, requests, [window for window, _ in grants])
    return grants, totals


def random_instance(rng):
    """Pools of mixed kinds and sessions over them with repeated windows
    (ties), zero windows, all three prices and floors above cost."""
    pools = [MemoryPool(node, kind, rng.randint(0, 120))
             for node in rng.sample(range(9), rng.randint(1, 4))
             for kind in rng.sample(["send", "receive", "transit"],
                                    rng.randint(1, 2))]
    keys = [(pool.node, pool.kind) for pool in pools]
    requests = []
    for session in rng.sample(range(50), rng.randint(1, 6)):
        points = [(key, rng.choice([1, 2, TAG_SEND_COST]),
                   rng.choice([0, 0, 0, rng.randint(0, 8),
                               rng.randint(0, 30)]))
                  for key in rng.sample(keys, rng.randint(1, len(keys)))]
        requests.append((session, rng.choice([rng.randint(0, 20), 8]),
                         points))
    return pools, requests


def full_demand(requests):
    """Each pool key's total cost of the requests' full windows."""
    demand = {}
    for _, window, points in requests:
        for key, price, floor in points:
            demand[key] = demand.get(key, 0) + cost(price, window, floor)
    return demand


def wide_instance(rng):
    """Up to 60 pools and 12 sessions whose windows come from a few
    values up to ``2 * MAX_UNITS + 1`` (equal windows under different
    ties), with capacities near each pool's full demand, or all of it."""
    keys = [(node, kind) for node in rng.sample(range(40), rng.randint(1, 30))
            for kind in rng.sample(["send", "receive", "transit"],
                                   rng.randint(1, 2))]
    bound = 2 * MAX_UNITS + 1
    palette = [rng.choice([bound, bound - 1, MAX_UNITS, 1, 0,
                           rng.randint(0, bound)]) for _ in range(3)]
    requests = []
    for session in rng.sample(range(10**6), rng.randint(1, 12)):
        points = [(key, rng.choice([1, 2, TAG_SEND_COST]),
                   rng.choice([0, 0, rng.randint(0, MAX_UNITS)]))
                  for key in rng.sample(keys, rng.randint(1, min(6, len(keys))))]
        requests.append((session, rng.choice(palette), points))
    demand, roomy = full_demand(requests), rng.random() < 0.2
    pools = []
    for key in keys:
        total = demand.get(key, 0)
        pools.append(MemoryPool(*key, total if roomy else max(0, rng.choice(
            [total, total - 1, total * 3 // 4, total * 5 // 8]))))
    return pools, requests


def check_reserve(pools, requests, outcomes):
    """``reserve`` against ``reference_reserve``: the same grants and
    totals, or the same error text; counts the outcome in ``outcomes``."""
    expected = reference_reserve(pools, requests)
    table, points, windows = table_and_points(pools, requests)
    if isinstance(expected, str):
        outcomes["infeasible"] += 1
        with pytest.raises(InfeasibleReservationError) as info:
            reserve(table, points, windows)
        assert str(info.value) == expected
        return
    outcomes["feasible"] += 1
    grants, totals = expected
    granted, congested = reserve(table, points, windows)
    assert list(zip(granted.tolist(), congested.tolist())) == grants
    assert dict(zip(table.keys, table.reserved.tolist())) == totals
    assert (table.reserved <= table.capacity).all()
    demand = full_demand(requests)
    outcomes["no_pool_over"] += all(
        demand.get((pool.node, pool.kind), 0) <= pool.capacity
        for pool in pools)
    cut = {window for (_, window, _), (_, halved)
           in zip(requests, grants) if halved}
    outcomes["halved"] += len(cut) > 0
    outcomes["tie_cut"] += any(
        window in cut and not halved
        for (_, window, _), (_, halved) in zip(requests, grants))


class TestPoolTable:
    def test_keys_sorted_with_their_capacities(self):
        table = PoolTable([MemoryPool(3, "send", 5), MemoryPool(1, "send", 7),
                           MemoryPool(1, "receive", 2)])
        assert table.keys == [(1, "receive"), (1, "send"), (3, "send")]
        assert table.capacity.tolist() == [2, 7, 5]
        assert table.reserved.tolist() == [0, 0, 0]

    def test_overcommit_names_first_point_in_hold_order(self):
        # Pool 0 overfills at the third point, pool 1 at the second: the
        # second is reported, and nothing is held.
        pools = [MemoryPool(0, "receive", 10), MemoryPool(1, "receive", 5)]
        requests = [(0, 6, [((0, "receive"), 1, 0)]),
                    (1, 6, [((1, "receive"), 1, 0), ((0, "receive"), 1, 0)])]
        table, points, windows = table_and_points(pools, requests)
        with pytest.raises(CapacityExceededError) as info:
            table.hold(points, windows)
        assert str(info.value) == (
            "pool receive@1: reserving 6 with only 5 of 5 free")
        assert str(info.value) == replay_holds(pools, requests, [6, 6])
        assert not table.reserved.any()

    def test_clear_zeroes_every_total(self):
        pools = [MemoryPool(0, "send", 10), MemoryPool(1, "receive", 10)]
        requests = [(0, 3, [((0, "send"), 2, 0), ((1, "receive"), 1, 0)])]
        table, points, windows = table_and_points(pools, requests)
        table.hold(points, windows)
        assert table.reserved.tolist() == [6, 3]
        table.clear()
        assert table.reserved.tolist() == [0, 0]


class TestReserveTwoPassFuzz:
    def test_pool_totals_match_grants(self):
        # The array pass against each pool's assign_memory and a replay of
        # MemoryPool.require: the same grants and totals, or the same
        # error text for the first infeasible pool in key order.
        rng = random.Random(20261018)
        outcomes = dict.fromkeys(
            ["feasible", "infeasible", "halved", "tie_cut", "floor_over_cost",
             "zero_window", "no_pool_over"], 0)
        for _ in range(600):
            pools, requests = random_instance(rng)
            check_reserve(pools, requests, outcomes)
            outcomes["floor_over_cost"] += any(
                floor > cost(price, window)
                for _, window, points in requests
                for _, price, floor in points)
            outcomes["zero_window"] += any(
                window == 0 for _, window, _ in requests)
        assert min(outcomes.values()) > 0, outcomes

    def test_cut_order_at_the_window_bound(self):
        # Windows up to the largest a run reaches, 2 * MAX_UNITS + 1, some
        # equal across ties, over up to 60 pools: pass 1's one int64 sort
        # key must order the cuts as assign_memory does.
        rng = random.Random(29)
        outcomes = dict.fromkeys(
            ["feasible", "infeasible", "halved", "tie_cut", "no_pool_over",
             "bound_window", "many_pools"], 0)
        for _ in range(300):
            pools, requests = wide_instance(rng)
            check_reserve(pools, requests, outcomes)
            outcomes["bound_window"] += any(
                window == 2 * MAX_UNITS + 1 for _, window, _ in requests)
            outcomes["many_pools"] += len(pools) > 8
        assert min(outcomes.values()) > 0, outcomes

    def test_hold_matches_replayed_requires(self):
        # Arbitrary windows held on top of an earlier hold: the totals of
        # MemoryPool.require replayed in hold order, or its first error.
        rng = random.Random(7)
        overcommits = 0
        for _ in range(400):
            pools, requests = random_instance(rng)
            table, points, windows = table_and_points(pools, requests)
            # Each replay carries on from the totals the last one left.
            first = [rng.randint(0, window) for window in windows.tolist()]
            totals = replay_holds(pools, requests, first)
            if isinstance(totals, str):
                continue
            table.hold(points, np.array(first, dtype=np.int64))
            assert dict(zip(table.keys, table.reserved.tolist())) == totals
            granted = [rng.randint(0, 12) for _ in requests]
            expected = replay_holds(pools, requests, granted)
            before = table.reserved.copy()
            if isinstance(expected, str):
                overcommits += 1
                with pytest.raises(CapacityExceededError) as info:
                    table.hold(points, np.array(granted, dtype=np.int64))
                assert str(info.value) == expected
                assert (table.reserved == before).all()
                continue
            table.hold(points, np.array(granted, dtype=np.int64))
            assert dict(zip(table.keys, table.reserved.tolist())) == expected
        assert overcommits > 20


def reserve_outcome(table, points, windows):
    """``reserve``'s grants and the totals it leaves, or its error's type
    and text; on an error the table must hold what it held before."""
    before = table.reserved.tolist()
    try:
        granted, congested = reserve(table, points, windows)
    except (CapacityExceededError, InfeasibleReservationError) as exc:
        assert table.reserved.tolist() == before
        return type(exc), str(exc)
    return (list(zip(granted.tolist(), congested.tolist())),
            table.reserved.tolist())


class TestReserveOnHeldTable:
    # Pass 1 decides on the slot's demand alone; pass 2 holds on top of
    # what the table already holds, so a request set that fits its pools
    # may still overcommit them, and must then leave the table unchanged.

    def test_no_pool_over(self):
        # Both sessions' 6 + 4 send units fit the 12-unit send pool: with
        # 2 held they fill it, and with 3 held the first point past
        # capacity is session 2's.
        pools = [MemoryPool(0, "send", 12), MemoryPool(1, "receive", 10)]
        requests = [(1, 3, [((0, "send"), 2, 0), ((1, "receive"), 1, 0)]),
                    (2, 2, [((0, "send"), 2, 0), ((1, "receive"), 1, 0)])]
        for held, expected in [
                (2, ([(3, False), (2, False)], [12, 5])),
                (3, (CapacityExceededError,
                     "pool send@0: reserving 4 with only 3 of 12 free"))]:
            table, points, windows = table_and_points(pools, requests)
            table.reserved[0] = held
            assert reserve_outcome(table, points, windows) == expected

    def test_some_pools_over(self):
        # Receive@0 is asked for 14 of 10 and cuts session 1 (8 -> 4);
        # receive@1 is asked for 8 of 8.  With 3 held at receive@1 the
        # grants fit; with 1 held at receive@0 and 5 at receive@1, session
        # 1's second point is the first in hold order past capacity, though
        # receive@0, earlier in key order, would overfill too.
        pools = [MemoryPool(0, "receive", 10), MemoryPool(1, "receive", 8)]
        requests = [(1, 8, [((0, "receive"), 1, 0), ((1, "receive"), 1, 0)]),
                    (2, 6, [((0, "receive"), 1, 0)])]
        for held, expected in [
                ([0, 3], ([(4, True), (6, False)], [10, 7])),
                ([1, 5], (CapacityExceededError,
                          "pool receive@1: reserving 4 with only 3 of 8 "
                          "free"))]:
            table, points, windows = table_and_points(pools, requests)
            table.reserved[:] = held
            assert reserve_outcome(table, points, windows) == expected

    def test_matches_replay_from_held_totals(self):
        # Random holds, then reserve: the grants of each pool's
        # assign_memory and the totals of MemoryPool.require replayed from
        # the held totals in hold order, or the first error either raises.
        rng = random.Random(35)
        outcomes = dict.fromkeys(
            ["fits", "overcommit", "over_fits", "over_overcommit",
             "infeasible"], 0)
        for _ in range(600):
            pools, requests = random_instance(rng)
            table, points, windows = table_and_points(pools, requests)
            first = [rng.randint(0, window) for window in windows.tolist()]
            if isinstance(replay_holds(pools, requests, first), str):
                continue
            table.hold(points, np.array(first, dtype=np.int64))
            over = any(full_demand(requests).get((pool.node, pool.kind), 0)
                       > pool.capacity for pool in pools)
            # The replay carries on from the totals the first one left.
            expected = reference_reserve(pools, requests)
            got = reserve_outcome(table, points, windows)
            if isinstance(expected, str):
                outcomes["infeasible"] += 1
                assert got == (InfeasibleReservationError, expected)
                continue
            grants, totals = expected
            prefix = "over_" if over else ""
            if isinstance(totals, str):
                outcomes[prefix + "overcommit"] += 1
                assert got == (CapacityExceededError, totals)
            else:
                outcomes[prefix + "fits"] += 1
                assert got == (grants, [totals[key] for key in table.keys])
        assert min(outcomes.values()) > 0, outcomes
