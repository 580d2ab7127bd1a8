"""Window control and the three teleportation reservation schemes."""

import numpy as np

from qdnsim.memory import (RECEIVE_COST, TELE_SEND_COST, MemoryPool,
                           PoolTable)
from qdnsim.routing import Path
from qdnsim.tele import (
    Phase,
    TeleSession,
    incidence,
    next_window,
    reserve_explicit,
    release_surplus,
    reserve_fair,
    reserve_teleport,
    session_points,
)


def star_pools(n_sessions, egress_receive, ingress_send=10**6, hub_transit=10**6):
    """Pools for n ingress hosts -> hub -> one egress host.

    Node ids: hub 0, ingress hosts 1..n, egress host n+1.
    """
    pools = [MemoryPool(0, "transit", hub_transit)]
    for i in range(1, n_sessions + 1):
        pools.append(MemoryPool(i, "send", ingress_send))
        pools.append(MemoryPool(i, "receive", 10**6))
    egress = n_sessions + 1
    pools.append(MemoryPool(egress, "send", 10**6))
    pools.append(MemoryPool(egress, "receive", egress_receive))
    return PoolTable(pools), egress


def star_sessions(windows, egress, pools, remaining=None):
    paths = [Path((i + 1, 0, egress)) for i in range(len(windows))]
    return [
        TeleSession(id=i, remaining=remaining, window=w,
                    points=session_points(path, pools))
        for i, (path, w) in enumerate(zip(paths, windows))
    ]


def unsorted_star(windows, send_capacities, egress_receive=10**6):
    """Sessions 7, 3 and 5, in that order, from hosts 1..3 through hub 0 to
    host 4; each host's send pool has its own capacity."""
    pools = [MemoryPool(0, "transit", 10**6), MemoryPool(4, "send", 10**6),
             MemoryPool(4, "receive", egress_receive)]
    for host, send in enumerate(send_capacities, start=1):
        pools.append(MemoryPool(host, "send", send))
        pools.append(MemoryPool(host, "receive", 10**6))
    pools = PoolTable(pools)
    sessions = [
        TeleSession(id=sid, remaining=None, window=window,
                    points=session_points(Path((host, 0, 4)), pools))
        for host, (sid, window) in enumerate(zip([7, 3, 5], windows), start=1)
    ]
    return sessions, pools


def held(pools, key):
    """The units ``pools`` holds at ``key``."""
    return int(pools.reserved[pools.index[key]])


def grants(scheme, sessions, pools):
    """``scheme``'s grants as ``(window, congested)`` pairs of plain
    values, in session order."""
    granted, congested = scheme(sessions, incidence(sessions), pools)
    return list(zip(granted.tolist(), congested.tolist()))


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
        session = TeleSession(id=0, remaining=10)
        assert session.window == 1

    def test_transfer_caps_at_remaining(self):
        session = TeleSession(id=0, remaining=2)
        assert session.transfer(6) == 2
        assert session.finished

    def test_transfer_of_zero(self):
        session = TeleSession(id=0, remaining=10)
        assert session.transfer(0) == 0

    def test_unbounded_stream_never_finishes(self):
        session = TeleSession(id=0, remaining=None)
        assert session.transfer(6) == 6
        assert not session.finished


    def test_points_fixed_by_path(self):
        pools = PoolTable([MemoryPool(node, kind, 10)
                           for node in range(6)
                           for kind in ("send", "receive", "transit")])
        points = session_points(Path((4, 0, 1, 5)), pools)
        keys = [(4, "send"), (0, "transit"), (1, "transit"), (5, "receive")]
        assert points.tolist() == [
            [pools.index[key] for key in keys],
            [TELE_SEND_COST, TELE_SEND_COST, TELE_SEND_COST, RECEIVE_COST]]


class TestReserveTeleport:
    def test_single_session_full_grant(self):
        pools, egress = star_pools(1, egress_receive=10**6)
        sessions = star_sessions([5], egress, pools)
        assert grants(reserve_teleport, sessions, pools) == [(5, False)]

    def test_bottleneck_halves_largest_until_fit(self):
        # Five windows totalling 103 against a 100-unit receive pool:
        # halving the largest (25, smallest id among ties) releases 13.
        pools, egress = star_pools(5, egress_receive=100)
        sessions = star_sessions([25, 25, 25, 20, 8], egress, pools)
        assert grants(reserve_teleport, sessions, pools) == [
            (12, True), (25, False), (25, False), (20, False), (8, False)]
        assert held(pools, (egress, "receive")) == 90

    def test_two_bottlenecks_single_halving(self):
        # Ingress send pool and egress receive pool both too small: the
        # window is halved once, not twice.
        pools, egress = star_pools(1, egress_receive=9, ingress_send=19)
        sessions = star_sessions([10], egress, pools)
        assert grants(reserve_teleport, sessions, pools) == [(5, True)]

    def test_reservations_cover_every_hop(self):
        pools, egress = star_pools(1, egress_receive=100)
        sessions = star_sessions([4], egress, pools)
        grants(reserve_teleport, sessions, pools)
        assert held(pools, (1, "send")) == 8      # 2 units per circuit
        assert held(pools, (0, "transit")) == 8
        assert held(pools, (egress, "receive")) == 4


    def test_grants_in_session_order(self):
        # 14 receive units asked of 10 at the egress: session 7's window of
        # 8, the largest, is cut.
        sessions, pools = unsorted_star([8, 2, 4], [10**6] * 3,
                                        egress_receive=10)
        assert grants(reserve_teleport, sessions, pools) == [
            (4, True), (2, False), (4, False)]
        # Each host's send pool holds its own session's 2 units per
        # circuit; the shared egress holds the sum of the grants.
        assert [held(pools, (host, "send")) for host in (1, 2, 3)] == [
            8, 4, 8]
        assert held(pools, (4, "receive")) == 4 + 2 + 4


class TestReserveExplicit:
    def test_even_split_of_capacity(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([1] * 10, egress, pools)
        assert grants(reserve_explicit, sessions, pools) == [(10, False)] * 10

    def test_window_is_path_minimum(self):
        # Egress supports 4 per session, hub supports far more.
        pools, egress = star_pools(5, egress_receive=20)
        sessions = star_sessions([1] * 5, egress, pools)
        assert grants(reserve_explicit, sessions, pools) == [(4, False)] * 5

    def test_single_session_takes_smallest_capacity(self):
        pools, egress = star_pools(1, egress_receive=50)
        sessions = star_sessions([1], egress, pools)
        assert grants(reserve_explicit, sessions, pools) == [(50, False)]


    def test_grants_in_session_order(self):
        # Each session's share is its own host's send pool at 2 units each.
        sessions, pools = unsorted_star([1] * 3, [20, 8, 12])
        assert [window for window, _ in grants(
            reserve_explicit, sessions, pools)] == [10, 4, 6]
        assert [held(pools, (host, "send")) for host in (1, 2, 3)] == [
            20, 8, 12]
        assert held(pools, (4, "receive")) == 10 + 4 + 6

    def test_shares_count_sessions_per_node_across_roles(self):
        # Hosts 1 and 2 each send one session and receive the other's:
        # two sessions traverse each host, so each gets half of its
        # 20-unit receive pool, the hosts' smaller window capacity.
        pools = PoolTable([MemoryPool(0, "transit", 10**6)]
                          + [MemoryPool(host, kind, 20 * price)
                             for host in (1, 2)
                             for kind, price in (("send", 3),
                                                 ("receive", 1))])
        sessions = [TeleSession(id=i, remaining=None,
                                points=session_points(Path(nodes), pools))
                    for i, nodes in enumerate([(1, 0, 2), (2, 0, 1)])]
        assert grants(reserve_explicit, sessions, pools) == [(10, False)] * 2


class TestReserveFair:
    def test_request_at_fair_share_passes(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([10] * 10, egress, pools)
        assert grants(reserve_fair, sessions, pools) == [(10, False)] * 10

    def test_request_above_fair_share_is_halved(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([11] + [1] * 9, egress, pools)
        assert grants(reserve_fair, sessions, pools)[0] == (5, True)

    def test_sawtooth_caps_near_fair_share(self):
        # One session against a fair share of 8, driven for 50 slots.
        pools, egress = star_pools(1, egress_receive=8)
        session = star_sessions([1], egress, pools)[0]
        announced = []
        for _ in range(50):
            announced.append(session.window)
            [(_, congested)] = grants(reserve_fair, [session], pools)
            session.advance_window(congested)
            pools.clear()
        steady = announced[10:]
        assert max(steady) <= 2 * 8 + 1
        assert min(steady) >= 4
        assert 8 in steady  # repeatedly touches the fair share

    def test_grants_in_session_order(self):
        # Shares 10, 4 and 6: sessions 7 and 5 ask for more and are halved.
        sessions, pools = unsorted_star([11, 4, 7], [20, 8, 12])
        assert grants(reserve_fair, sessions, pools) == [
            (5, True), (4, False), (3, True)]
        assert [held(pools, (host, "send")) for host in (1, 2, 3)] == [
            10, 8, 6]
        assert held(pools, (4, "receive")) == 5 + 4 + 3


class TestReleaseSurplus:
    def test_returns_unused_cost_at_each_point(self):
        # Session 7 is granted 10 and delivers 3: its send and transit
        # points drop from 20 to 6 units, its receive point from 10 to 3.
        sessions, pools = unsorted_star([10, 2, 4], [10**6] * 3)
        points = incidence(sessions)
        granted, _ = reserve_teleport(sessions, points, pools)
        release_surplus(points, granted, np.array([3, 2, 4]), pools)
        assert held(pools, (1, "send")) == 6
        assert held(pools, (0, "transit")) == 6 + 4 + 8
        assert held(pools, (4, "receive")) == 3 + 2 + 4

    def test_full_delivery_keeps_reservation(self):
        sessions, pools = unsorted_star([10, 2, 4], [10**6] * 3)
        points = incidence(sessions)
        granted, _ = reserve_teleport(sessions, points, pools)
        release_surplus(points, granted, granted, pools)
        assert held(pools, (2, "send")) == 4
        assert held(pools, (4, "receive")) == 10 + 2 + 4


class TestWindowTrajectory:
    def test_slow_start_then_sawtooth(self):
        # Against a fixed grant ceiling the window keeps returning to a
        # sawtooth between roughly half and the full ceiling.
        session = TeleSession(id=0, remaining=None)
        seen = []
        for _ in range(40):
            window = session.window
            congested = window > 20
            seen.append(window)
            session.advance_window(congested)
        steady = seen[10:]
        assert max(steady) <= 41
        assert min(steady) >= 10
