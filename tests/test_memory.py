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
    partition,
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
        pool.require("s", 10)
        assert pool.held("s") == 10
        assert pool.capacity - pool.reserved == 90

    def test_over_reservation_raises(self):
        pool = MemoryPool(0, "receive", 100)
        with pytest.raises(CapacityExceededError,
                           match="receive@0: reserving 101 with only 100 "
                                 "of 100 free"):
            pool.require("s", 101)

    def test_release_restores_capacity(self):
        pool = MemoryPool(0, "receive", 100)
        pool.require("s", 60)
        pool.require("s", 0)
        assert pool.capacity - pool.reserved == 100

    def test_require_moves_both_directions(self):
        pool = MemoryPool(0, "send", 50)
        pool.require("s", 30)
        pool.require("s", 12)
        assert pool.held("s") == 12
        pool.require("s", 0)
        assert pool.reserved == 0

    def test_negative_target_rejected(self):
        pool = MemoryPool(0, "send", 50)
        pool.require("s", 7)
        with pytest.raises(ValueError, match="cannot hold -1 units"):
            pool.require("s", -1)
        assert pool.held("s") == 7 and pool.reserved == 7

    def test_running_total_tracks_holdings(self):
        pool = MemoryPool(0, "send", 50)

        def check():
            assert pool.reserved == sum(pool.held(s) for s in ("a", "b"))
            assert 0 <= pool.reserved <= pool.capacity

        pool.require("a", 20)
        check()
        pool.require("b", 15)
        check()
        pool.require("a", 5)
        check()
        pool.require("b", 5)
        check()
        with pytest.raises(CapacityExceededError):
            pool.require("b", 46)  # 41 more with 40 free
        check()
        pool.require("b", 45)
        check()
        assert pool.capacity - pool.reserved == 0
        pool.require("a", 0)
        check()
        pool.clear()
        check()
        assert pool.reserved == 0
