"""Window control and the three teleportation reservation schemes."""

from qdnsim.memory import MemoryPool
from qdnsim.routing import Path
from qdnsim.tele import (
    Phase,
    TeleSession,
    next_window,
    reserve_explicit,
    reserve_fair,
    reserve_teleport,
)


def star_pools(n_sessions, egress_receive, ingress_send=10**6, hub_transit=10**6):
    """Pools for n ingress hosts -> hub -> one egress host.

    Node ids: hub 0, ingress hosts 1..n, egress host n+1.
    """
    pools = {(0, "transit"): MemoryPool(0, "transit", hub_transit)}
    for i in range(1, n_sessions + 1):
        pools[(i, "send")] = MemoryPool(i, "send", ingress_send)
        pools[(i, "receive")] = MemoryPool(i, "receive", 10**6)
    egress = n_sessions + 1
    pools[(egress, "send")] = MemoryPool(egress, "send", 10**6)
    pools[(egress, "receive")] = MemoryPool(egress, "receive", egress_receive)
    return pools, egress


def star_sessions(windows, egress, remaining=None):
    return [
        TeleSession(id=i, path=Path((i + 1, 0, egress)), remaining=remaining,
                    window=w)
        for i, w in enumerate(windows)
    ]


class TestNextWindow:
    def test_slow_start_doubles(self):
        assert next_window(8, Phase.SLOW_START, False) == (16, Phase.SLOW_START)

    def test_congestion_halves_then_avoidance_increments(self):
        assert next_window(8, Phase.SLOW_START, True) == (5, Phase.AVOIDANCE)

    def test_window_floor_of_one(self):
        assert next_window(1, Phase.AVOIDANCE, True) == (1, Phase.AVOIDANCE)

    def test_avoidance_grows_by_one(self):
        assert next_window(7, Phase.AVOIDANCE, False) == (8, Phase.AVOIDANCE)


class TestTeleSession:
    def test_fresh_session_announces_one(self):
        session = TeleSession(id=0, path=Path((1, 0, 2)), remaining=10)
        assert session.announce() == 1

    def test_transfer_caps_at_remaining(self):
        session = TeleSession(id=0, path=Path((1, 0, 2)), remaining=2)
        assert session.transfer(6) == 2
        assert session.finished

    def test_transfer_of_zero(self):
        session = TeleSession(id=0, path=Path((1, 0, 2)), remaining=10)
        assert session.transfer(0) == 0

    def test_unbounded_stream_never_finishes(self):
        session = TeleSession(id=0, path=Path((1, 0, 2)), remaining=None)
        assert session.transfer(6) == 6
        assert not session.finished


class TestReserveTeleport:
    def test_single_session_full_grant(self):
        pools, egress = star_pools(1, egress_receive=10**6)
        sessions = star_sessions([5], egress)
        outcomes = reserve_teleport(sessions, pools)
        assert outcomes[0].window == 5
        assert not outcomes[0].congested

    def test_bottleneck_halves_largest_until_fit(self):
        # Five windows totalling 103 against a 100-unit receive pool:
        # halving the largest (25, smallest id among ties) releases 13.
        pools, egress = star_pools(5, egress_receive=100)
        sessions = star_sessions([25, 25, 25, 20, 8], egress)
        outcomes = reserve_teleport(sessions, pools)
        assert [outcomes[i].window for i in range(5)] == [12, 25, 25, 20, 8]
        assert [outcomes[i].congested for i in range(5)] == [
            True, False, False, False, False
        ]
        assert pools[(egress, "receive")].reserved == 90

    def test_two_bottlenecks_single_halving(self):
        # Ingress send pool and egress receive pool both too small: the
        # window is halved once, not twice.
        pools, egress = star_pools(1, egress_receive=9, ingress_send=19)
        sessions = star_sessions([10], egress)
        outcomes = reserve_teleport(sessions, pools)
        assert outcomes[0].window == 5
        assert outcomes[0].congested

    def test_reservations_cover_every_hop(self):
        pools, egress = star_pools(1, egress_receive=100)
        sessions = star_sessions([4], egress)
        reserve_teleport(sessions, pools)
        assert pools[(1, "send")].reserved == 8      # 2 units per circuit
        assert pools[(0, "transit")].reserved == 8
        assert pools[(egress, "receive")].reserved == 4


class TestReserveExplicit:
    def test_even_split_of_capacity(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([1] * 10, egress)
        outcomes = reserve_explicit(sessions, pools)
        assert all(outcomes[i].window == 10 for i in range(10))

    def test_window_is_path_minimum(self):
        # Egress supports 4 per session, hub supports far more.
        pools, egress = star_pools(5, egress_receive=20)
        sessions = star_sessions([1] * 5, egress)
        outcomes = reserve_explicit(sessions, pools)
        assert all(outcomes[i].window == 4 for i in range(5))

    def test_single_session_takes_smallest_capacity(self):
        pools, egress = star_pools(1, egress_receive=50)
        sessions = star_sessions([1], egress)
        outcomes = reserve_explicit(sessions, pools)
        assert outcomes[0].window == 50


class TestReserveFair:
    def test_request_at_fair_share_passes(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([10] * 10, egress)
        outcomes = reserve_fair(sessions, pools)
        assert all(not outcomes[i].congested for i in range(10))

    def test_request_above_fair_share_is_halved(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([11] + [1] * 9, egress)
        outcomes = reserve_fair(sessions, pools)
        assert outcomes[0].window == 5
        assert outcomes[0].congested

    def test_sawtooth_caps_near_fair_share(self):
        # One session against a fair share of 8, driven for 50 slots.
        pools, egress = star_pools(1, egress_receive=8)
        session = star_sessions([1], egress)[0]
        announced = []
        for _ in range(50):
            announced.append(session.announce())
            outcomes = reserve_fair([session], pools)
            session.advance_window(outcomes[session.id].congested)
            for pool in pools.values():
                pool.clear()
        steady = announced[10:]
        assert max(steady) <= 2 * 8 + 1
        assert min(steady) >= 4
        assert 8 in steady  # repeatedly touches the fair share


class TestWindowTrajectory:
    def test_slow_start_then_sawtooth(self):
        # Against a fixed grant ceiling the window keeps returning to a
        # sawtooth between roughly half and the full ceiling.
        session = TeleSession(id=0, path=Path((1, 0, 2)), remaining=None)
        seen = []
        for _ in range(40):
            window = session.announce()
            congested = window > 20
            seen.append(window)
            session.advance_window(congested)
        steady = seen[10:]
        assert max(steady) <= 41
        assert min(steady) >= 10
