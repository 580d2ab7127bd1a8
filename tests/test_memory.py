"""Memory assignment, partitioning, and pool accounting."""

from fractions import Fraction

import pytest

from qdnsim.errors import CapacityExceededError, InfeasibleReservationError
from qdnsim.memory import (
    Demand,
    MemoryPool,
    TAG_SEND_COST,
    TAG_SPLIT,
    TELE_SPLIT,
    assign_memory,
    cost,
    partition,
    reserve_two_pass,
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


class TestReserveTwoPassFuzz:
    def test_pool_totals_match_grants(self):
        # Random sessions over shared pools: every call either raises
        # InfeasibleReservationError or leaves each pool holding exactly
        # the cost of the grants crossing it, within its capacity.
        import random

        rng = random.Random(20261018)
        outcomes = {"feasible": 0, "infeasible": 0, "halved": 0}
        for _ in range(400):
            keys = [(node, "receive") for node in range(rng.randint(1, 4))]
            pools = {key: MemoryPool(key[0], key[1], rng.randint(0, 60))
                     for key in keys}
            requests = []
            for session in range(rng.randint(1, 6)):
                crossed = rng.sample(keys, rng.randint(1, len(keys)))
                points = [(key, rng.choice([1, 2, TAG_SEND_COST]),
                           rng.choice([0, 0, rng.randint(0, 8)]))
                          for key in crossed]
                requests.append((session, rng.randint(0, 20), points))
            try:
                grants = reserve_two_pass(requests, pools)
            except InfeasibleReservationError:
                outcomes["infeasible"] += 1
                continue
            outcomes["feasible"] += 1
            expected = dict.fromkeys(keys, 0)
            for (_, window, points), grant in zip(requests, grants):
                assert grant.window == (window // 2 if grant.congested
                                        else window)
                outcomes["halved"] += grant.congested
                for key, unit_cost, floor in points:
                    expected[key] += cost(unit_cost, grant.window, floor)
            for key, pool in pools.items():
                assert pool.reserved == expected[key]
                assert 0 <= pool.reserved <= pool.capacity
        assert min(outcomes.values()) > 0, outcomes
