"""Window control, the three teleportation reservation schemes and the
session table that runs them."""

import random

import numpy as np
import pytest

from qdnsim import tele
from qdnsim.errors import CapacityExceededError, ConfigError
from qdnsim.memory import (MAX_UNITS, RECEIVE_COST, TELE_PRICES,
                           TELE_SEND_COST, MemoryPool, PoolTable, path_points)
from qdnsim.routing import Path
from qdnsim.tag import ChannelModel, HopTable
from qdnsim.tele import (
    INITIAL_WINDOW,
    NO_PHASE,
    PHASES,
    Phase,
    SessionTable,
    TeleSession,
    _fair_shares,
    advance_windows,
    next_window,
    reserve_explicit,
    reserve_fair,
    reserve_teleport,
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


def star_sessions(windows, egress):
    """Admissions of unbounded sessions 0..n-1, from hosts 1..n through
    hub 0 to ``egress``, announcing ``windows``."""
    return [(i, Path((i + 1, 0, egress)), None, w)
            for i, w in enumerate(windows)]


def unsorted_star(windows, send_capacities, egress_receive=10**6,
                  qubits=(None, None, None)):
    """Sessions 7, 3 and 5, in that order, from hosts 1..3 through hub 0 to
    host 4; each host's send pool has its own capacity."""
    pools = [MemoryPool(0, "transit", 10**6), MemoryPool(4, "send", 10**6),
             MemoryPool(4, "receive", egress_receive)]
    for host, send in enumerate(send_capacities, start=1):
        pools.append(MemoryPool(host, "send", send))
        pools.append(MemoryPool(host, "receive", 10**6))
    sessions = [(sid, Path((host, 0, 4)), size, window)
                for host, (sid, window, size)
                in enumerate(zip([7, 3, 5], windows, qubits), start=1)]
    return sessions, PoolTable(pools)


def held(pools, key):
    """The units ``pools`` holds at ``key``."""
    return int(pools.reserved[pools.index[key]])


def table_of(scheme, sessions, pools):
    """A session table reserving by ``scheme`` with ``sessions`` admitted."""
    table = SessionTable(pools, scheme, explicit=False)
    table.admit(sessions)
    return table


def grants(scheme, sessions, pools):
    """``scheme``'s grants in one table step, as ``(window, congested)``
    pairs of plain values, in session order."""
    _, _, _, congested, granted, *_ = table_of(scheme, sessions, pools).step()
    return list(zip(granted.tolist(), congested.astype(bool).tolist()))


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
        points = path_points(pools, [7], [(4, 0, 1, 5)], TELE_PRICES)
        keys = [(4, "send"), (0, "transit"), (1, "transit"), (5, "receive")]
        assert points.tolist() == [
            [pools.index[key] for key in keys],
            [TELE_SEND_COST, TELE_SEND_COST, TELE_SEND_COST, RECEIVE_COST],
            [1] * 4]
        # Several sessions' points follow one another, in order.
        points = path_points(pools, [3, 1], [(4, 0, 1, 5), (2, 3)],
                             TELE_PRICES)
        keys += [(2, "send"), (3, "receive")]
        assert points.tolist() == [
            [pools.index[key] for key in keys],
            [TELE_SEND_COST] * 3 + [RECEIVE_COST, TELE_SEND_COST, RECEIVE_COST],
            [1] * 6]

    @pytest.mark.parametrize("table, path, node, kind", [
        ("tele", (4, 2, 5), 2, "transit"),    # a host has no transit pool
        ("tele", (4, 0, 9), 9, "receive"),    # a node past every pool's node
        ("tele", (0, 2, 5), 0, "send"),       # a repeater has no send pool
        # Tell-and-go hops: over relays one per link, over switches one
        # from source to destination.
        ("relay", (4, 0, 1, 5), 0, "receive"),
        ("relay", (1, 2, 5), 1, "send"),
        ("switch", (0, 2, 5), 0, "send"),
        ("switch", (4, 2, 9), 9, "receive"),
    ], ids=["path0-2-transit", "path1-9-receive", "path2-0-send",
            "relay-0-receive", "relay-1-send", "switch-0-send",
            "switch-9-receive"])
    def test_missing_pool_names_session_and_node(self, table, path, node,
                                                 kind):
        """A path node without the pool its role needs is refused, not
        read as pool -1: hosts 2, 4 and 5 have send and receive pools
        only, repeaters 0 and 1 transit only.  Session 11's path has
        every pool each table needs."""
        pools = PoolTable(
            [MemoryPool(host, kind, 10) for host in (2, 4, 5)
             for kind in ("send", "receive")]
            + [MemoryPool(repeater, "transit", 10) for repeater in (0, 1)])
        table, first = {
            "tele": (SessionTable(pools, reserve_teleport, explicit=False),
                     (4, 0, 1, 5)),
            "relay": (HopTable(pools, ChannelModel(1.0),
                               np.random.default_rng(0), switched=False),
                      (4, 2, 5)),
            "switch": (HopTable(pools, ChannelModel(1.0),
                                np.random.default_rng(0), switched=True),
                       (4, 0, 1, 5)),
        }[table]
        with pytest.raises(ConfigError,
                           match=f"session 12: node {node} has no {kind} pool"):
            table.admit([(11, Path(first), 8, None),
                         (12, Path(path), 8, None)])
        assert len(table.session) == 0


class TestReserveTeleport:
    def test_single_session_full_grant(self):
        pools, egress = star_pools(1, egress_receive=10**6)
        sessions = star_sessions([5], egress)
        assert grants(reserve_teleport, sessions, pools) == [(5, False)]

    def test_bottleneck_halves_largest_until_fit(self):
        # Five windows totalling 103 against a 100-unit receive pool:
        # halving the largest (25, smallest id among ties) releases 13.
        pools, egress = star_pools(5, egress_receive=100)
        sessions = star_sessions([25, 25, 25, 20, 8], egress)
        assert grants(reserve_teleport, sessions, pools) == [
            (12, True), (25, False), (25, False), (20, False), (8, False)]
        assert held(pools, (egress, "receive")) == 90

    def test_two_bottlenecks_single_halving(self):
        # Ingress send pool and egress receive pool both too small: the
        # window is halved once, not twice.
        pools, egress = star_pools(1, egress_receive=9, ingress_send=19)
        sessions = star_sessions([10], egress)
        assert grants(reserve_teleport, sessions, pools) == [(5, True)]

    def test_reservations_cover_every_hop(self):
        pools, egress = star_pools(1, egress_receive=100)
        sessions = star_sessions([4], egress)
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
        sessions = star_sessions([1] * 10, egress)
        assert grants(reserve_explicit, sessions, pools) == [(10, False)] * 10

    def test_window_is_path_minimum(self):
        # Egress supports 4 per session, hub supports far more.
        pools, egress = star_pools(5, egress_receive=20)
        sessions = star_sessions([1] * 5, egress)
        assert grants(reserve_explicit, sessions, pools) == [(4, False)] * 5

    def test_single_session_takes_smallest_capacity(self):
        pools, egress = star_pools(1, egress_receive=50)
        sessions = star_sessions([1], egress)
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
        sessions = [(i, Path(nodes), None, None)
                    for i, nodes in enumerate([(1, 0, 2), (2, 0, 1)])]
        assert grants(reserve_explicit, sessions, pools) == [(10, False)] * 2


def fair_instance(draw):
    """Hosts with send and receive pools and transit-only repeaters, any
    pool possibly of zero capacity, and up to 12 sessions between hosts
    through distinct repeaters, as pools and paths."""
    nodes = draw.sample(range(40), draw.randint(2, 14))
    cut = draw.randint(2, len(nodes))
    hosts, repeaters = nodes[:cut], nodes[cut:]

    def capacity():
        return draw.choice([0] + [draw.randint(1, 6), draw.randint(0, 300),
                                  draw.randint(0, MAX_UNITS)] * 3)
    pools = [MemoryPool(node, kind, capacity())
             for node in hosts for kind in ("send", "receive")]
    pools += [MemoryPool(node, "transit", capacity()) for node in repeaters]
    paths = []
    for _ in range(draw.randint(0, 12)):
        src, dst = draw.sample(hosts, 2)
        middle = draw.sample(repeaters, draw.randint(0, min(3, len(repeaters))))
        paths.append(Path((src, *middle, dst)))
    return pools, paths


def scalar_fair_shares(pools, paths):
    """Each node's floor(C/N), node by node, and each path's minimum of
    them: C the node's smallest pool over its price, N the paths that
    cross the node."""
    window_capacity, crossing = {}, {}
    for pool in pools:
        price = RECEIVE_COST if pool.kind == "receive" else TELE_SEND_COST
        window_capacity[pool.node] = min(
            window_capacity.get(pool.node, pool.capacity // price),
            pool.capacity // price)
    for path in paths:
        for node in path.nodes:
            crossing[node] = crossing.get(node, 0) + 1
    return [min(window_capacity[node] // crossing[node] for node in path.nodes)
            for path in paths]


class TestFairSharesDifferential:
    def test_matches_scalar_per_node_shares(self):
        # The array pass against floor(C/N) node by node, over random pool
        # tables and session paths.
        draw = random.Random(2029)
        outcomes = dict.fromkeys(
            ["transit", "zero_capacity", "single_crossing", "both_roles",
             "zero_share", "large_share", "no_sessions"], 0)
        for _ in range(400):
            pools, paths = fair_instance(draw)
            table = SessionTable(PoolTable(pools), reserve_explicit,
                                 explicit=True)
            table.admit([(i, path, None, None) for i, path in enumerate(paths)])
            expected = scalar_fair_shares(pools, paths)
            assert _fair_shares(table.incidence(), table.pools,
                                len(paths)).tolist() == expected
            crossed = [node for path in paths for node in path.nodes]
            empty = {pool.node for pool in pools if pool.capacity == 0}
            outcomes["transit"] += any(len(path.nodes) > 2 for path in paths)
            outcomes["zero_capacity"] += any(node in empty for node in crossed)
            outcomes["single_crossing"] += any(crossed.count(node) == 1
                                               for node in crossed)
            outcomes["both_roles"] += bool(
                {path.src for path in paths} & {path.dst for path in paths})
            outcomes["zero_share"] += 0 in expected
            outcomes["large_share"] += any(share > 10**6 for share in expected)
            outcomes["no_sessions"] += not paths
        assert min(outcomes.values()) > 0, outcomes


def held_or_refused(hold, pools):
    """The totals ``hold()`` leaves in ``pools``, or the overcommit it
    raises."""
    try:
        hold()
    except CapacityExceededError as exc:
        return str(exc)
    return pools.reserved.tolist()


class TestSchemesHoldGrants:
    @pytest.mark.parametrize("scheme, overcommits", [
        (reserve_explicit, False), (reserve_fair, True)])
    def test_pool_totals_match_hold(self, scheme, overcommits):
        # EW and FRA price their grants at session points directly; holding
        # the same grants through PoolTable.hold must leave the same totals,
        # or raise the same overcommit.  An EW share always fits.
        draw = random.Random(2030)
        refused = 0
        for _ in range(300):
            pools, paths = fair_instance(draw)
            table = SessionTable(PoolTable(pools), scheme,
                                 explicit=scheme is reserve_explicit)
            table.admit([(i, path, None, draw.choice(
                [1, draw.randint(1, 300), draw.randint(1, MAX_UNITS)]))
                for i, path in enumerate(paths)])
            windows, points = table.window, table.incidence()
            shares = _fair_shares(points, table.pools, len(paths))
            granted = shares if scheme is reserve_explicit else np.where(
                windows > shares, windows // 2, windows)
            reference = PoolTable(pools)
            expected = held_or_refused(
                lambda: reference.hold(points, granted), reference)
            assert held_or_refused(
                lambda: scheme(windows, points, table.pools, table.shares),
                table.pools) == expected
            refused += isinstance(expected, str)
        assert 0 < refused < 300 if overcommits else refused == 0, refused


class TestReserveFair:
    def test_request_at_fair_share_passes(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([10] * 10, egress)
        assert grants(reserve_fair, sessions, pools) == [(10, False)] * 10

    def test_request_above_fair_share_is_halved(self):
        pools, egress = star_pools(10, egress_receive=100)
        sessions = star_sessions([11] + [1] * 9, egress)
        assert grants(reserve_fair, sessions, pools)[0] == (5, True)

    def test_sawtooth_caps_near_fair_share(self):
        # One session against a fair share of 8, driven for 50 slots.
        pools, egress = star_pools(1, egress_receive=8)
        table = table_of(reserve_fair, star_sessions([1], egress), pools)
        announced = []
        for _ in range(50):
            _, _, [window], *_ = table.step()
            announced.append(int(window))
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
        # Session 7 is granted 10 and delivers its last 3 qubits: its send
        # and transit points drop from 20 to 6 units, its receive point
        # from 10 to 3.
        sessions, pools = unsorted_star([10, 2, 4], [10**6] * 3,
                                        qubits=(3, 2, 4))
        table_of(reserve_teleport, sessions, pools).step()
        assert held(pools, (1, "send")) == 6
        assert held(pools, (0, "transit")) == 6 + 4 + 8
        assert held(pools, (4, "receive")) == 3 + 2 + 4

    def test_full_delivery_keeps_reservation(self):
        sessions, pools = unsorted_star([10, 2, 4], [10**6] * 3)
        table_of(reserve_teleport, sessions, pools).step()
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


class TestWindowRules:
    def test_table_steps_windows_by_next_window(self):
        """``advance_windows`` is ``next_window`` on every row, from window
        1 to windows past ``MAX_UNITS``, in both phases, congested or
        not."""
        windows = [*range(1, 10), 15, 16, 17, MAX_UNITS - 1, MAX_UNITS,
                   MAX_UNITS + 1, 2 * MAX_UNITS + 1]
        grid = [(window, phase, congested) for window in windows
                for phase in PHASES for congested in (False, True)]
        window, phase = advance_windows(
            np.array([window for window, _, _ in grid], dtype=np.int64),
            np.array([PHASES.index(phase) for _, phase, _ in grid],
                     dtype=np.int64),
            np.array([cut for _, _, cut in grid]))
        got = list(zip(window.tolist(),
                       (PHASES[code] for code in phase.tolist())))
        assert got == [next_window(*row) for row in grid]


def forced(draw, explicit, decisions):
    """A scheme whose cuts (or, under ``explicit``, grants) are drawn from
    ``draw`` rather than from the pools; it holds what it grants and
    appends each slot's windows, grants and cuts to ``decisions``."""
    def scheme(windows, points, pools, shares):
        n = len(windows)
        if explicit:
            congested = np.zeros(n, dtype=bool)
            granted = np.array([draw.randint(0, 2**20) for _ in range(n)],
                               dtype=np.int64)
        else:
            congested = np.array([draw.random() < 0.4 for _ in range(n)],
                                 dtype=bool)
            granted = np.where(congested, windows // 2, windows)
        pools.hold(points, granted)
        decisions.append((windows.tolist(), granted.tolist(),
                          congested.tolist()))
        return granted, congested
    return scheme


class TestSessionTable:
    @pytest.mark.parametrize("seed, explicit", [(1, False), (2, False),
                                                (3, True)])
    def test_rows_match_scalar_sessions(self, seed, explicit):
        """``step`` row by row against ``TeleSession.transfer`` and
        ``next_window``, over sessions admitted in batches: finite and
        unbounded, announcing from 1 to near ``MAX_UNITS``, with cuts
        forced at random; under the EW rule a row announces its grant, with
        the ``-`` phase code, and the window never advances."""
        draw = random.Random(seed)
        pools = PoolTable([MemoryPool(node, kind, 2**62) for node in range(8)
                           for kind in ("send", "receive", "transit")])
        decisions = []
        table = SessionTable(pools, forced(draw, explicit, decisions),
                             explicit)
        reference, admitted, finished = [], 0, 0
        for _ in range(16):
            batch = []
            for _ in range(draw.choice([0, 1, 2, 3])):
                window = draw.choice([None, 1, draw.randint(2, 64),
                                      draw.randint(MAX_UNITS - 64, MAX_UNITS)])
                qubits = draw.choice([None, draw.randint(1, 40),
                                      draw.randint(1, 2**40)])
                nodes = tuple(draw.sample(range(8), draw.randint(2, 5)))
                batch.append((admitted, Path(nodes), qubits, window))
                reference.append(TeleSession(
                    id=admitted, remaining=qubits,
                    window=window or INITIAL_WINDOW))
                admitted += 1
            table.admit(batch)
            record = table.step()
            windows, granted, congested = decisions[-1]
            assert len(windows) == len(reference)
            expected = []
            for session, announced, grant, cut in zip(reference, windows,
                                                      granted, congested):
                assert announced == session.window
                if explicit:
                    window, phase = grant, NO_PHASE
                else:
                    window, phase = session.window, PHASES.index(session.phase)
                    session.advance_window(cut)
                expected.append((session.id, 0, window, int(cut), grant,
                                 session.transfer(grant), phase, 0, 0, 0, 0))
            assert list(zip(*(column.tolist() for column in record))) == expected
            finished += sum(session.finished for session in reference)
            reference = [session for session in reference
                         if not session.finished]
            assert table.session.tolist() == [s.id for s in reference]
            pools.clear()
        assert admitted > 10 and finished > 0

    def test_finite_sessions_leave_as_they_deliver_their_last_qubit(self):
        """Each finite session of ``MIXED_PLAN`` leaves in the slot it
        delivers its last qubit, and each stream stays."""
        pools = PoolTable([MemoryPool(node, kind, 10**6) for node in range(10)
                           for kind in ("send", "receive", "transit")])
        table = SessionTable(pools, reserve_teleport, explicit=False)
        last, left = countdown_slots(
            table, MIXED_PLAN, dict.fromkeys(range(8), 0),
            lambda table: np.repeat(table.session, table.length))
        assert left == last
        assert sorted(left) == [0, 2, 7]
        assert table.session.tolist() == [3, 5]

    def test_stream_only_table_skips_the_countdown(self):
        """A table of streams alone counts nothing down, and keeps its
        ``remaining`` column as it is."""
        pools, egress = star_pools(3, 10**6)
        table = table_of(reserve_teleport, star_sessions([1, 4, 2], egress),
                         pools)
        for _ in range(3):
            remaining = table.remaining
            table.step()
            assert table.remaining is remaining
            pools.clear()
        assert table.count_down(np.ones(3, dtype=np.int64)) is False
        assert table.remaining is remaining
        assert table.session.tolist() == [0, 1, 2]


def countdown_slots(table, plan, egress, ties, n_slots=80):
    """Step ``table`` for ``n_slots`` slots, admitting ``plan[slot]``'s
    ``(id, path, qubits, initial window)`` flows first and clearing its
    pools after.  Returns, per finite session, the slot in which the
    ``egress`` hop of each session id delivered its last qubit, and, per
    session, the slot in which its rows left.  After every slot the points
    follow the live rows: ``rank`` numbers them and ``tie`` equals
    ``ties(table)``."""
    qubits = {sid: size for batch in plan for sid, _, size, _ in batch}
    got, last, left = dict.fromkeys(qubits, 0), {}, {}
    for slot in range(n_slots):
        table.admit(plan[slot] if slot < len(plan) else [])
        session, hop, _, _, _, delivered, *_ = table.step()
        for sid, at, count in zip(session.tolist(), hop.tolist(),
                                  delivered.tolist()):
            if at == egress[sid]:
                got[sid] += count
                if got[sid] == qubits[sid]:
                    last[sid] = slot
        left.update(dict.fromkeys(
            set(session.tolist()) - set(table.session.tolist()), slot))
        assert table.rank.tolist() == np.repeat(
            np.arange(len(table.length)), table.length).tolist()
        assert table.tie.tolist() == ties(table).tolist()
        table.pools.clear()
    return last, left


#: Flows admitted out of id order across slots, session 0 and the largest
#: id 7 among them, finite and unbounded: per slot, ``(id, path, qubits,
#: initial window)`` over nodes 0 to 9.
MIXED_PLAN = [[(7, Path((1, 2, 3)), 5, None), (3, Path((4, 5)), None, None)],
              [],
              [(0, Path((6, 2, 4, 8)), 2, 3), (5, Path((8, 9, 1)), None, 2)],
              [(2, Path((9, 0)), 9, None)]]


def session_set_plan(draw):
    """Per slot, the finite sessions a table admits over 40 slots: batches
    of up to four in the first 25 slots and none after, so that finished
    sessions retire while others stay live and the table ends empty."""
    plan, admitted = [], 0
    for slot in range(40):
        batch = []
        for _ in range(draw.choice([0, 0, 1, 2, 4]) if slot < 25 else 0):
            nodes = tuple(draw.sample(range(8), draw.randint(2, 4)))
            batch.append((admitted, Path(nodes), draw.randint(1, 30),
                          draw.choice([None, draw.randint(1, 12)])))
            admitted += 1
        plan.append(batch)
    return plan


class TestSharesHeldPerSessionSet:
    @pytest.mark.parametrize("scheme", [reserve_explicit, reserve_fair,
                                        reserve_teleport])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_shares_refresh_once_per_session_set(self, scheme, seed,
                                                  monkeypatch):
        """A table's grants against ``_fair_shares`` recomputed on the
        slot's incidence, while sessions are admitted in batches, finish,
        retire and are followed by admissions, down to an empty table; EW
        and FRA compute the shares once per change of the session set, a
        ``reserve_teleport`` table never."""
        calls = []
        monkeypatch.setattr(tele, "_fair_shares",
                            lambda *args: calls.append(1) or _fair_shares(*args))
        pools = PoolTable([MemoryPool(node, kind, 90) for node in range(8)
                           for kind in ("send", "receive", "transit")])
        table = SessionTable(pools, scheme,
                             explicit=scheme is reserve_explicit)
        seen = dict.fromkeys(["batch", "finished_beside_live",
                              "admitted_after_retire", "empty", "cut"], 0)
        changes, last, retired = 0, None, False
        for batch in session_set_plan(random.Random(seed)):
            table.admit(batch)
            rows = table.session.tolist()
            changes += rows != last
            seen["batch"] += len(batch) > 1
            seen["admitted_after_retire"] += retired and bool(batch)
            seen["empty"] += last is not None and not rows
            windows = table.window.copy()
            shares = _fair_shares(table.incidence(), pools, len(rows))
            _, _, _, congested, granted, *_ = table.step()
            if scheme is reserve_explicit:
                assert granted.tolist() == shares.tolist()
                assert not congested.any()
            elif scheme is reserve_fair:
                assert congested.tolist() == (windows > shares).tolist()
                assert granted.tolist() == np.where(
                    windows > shares, windows // 2, windows).tolist()
            left = table.session.tolist()
            retired = len(left) < len(rows)
            seen["finished_beside_live"] += retired and bool(left)
            seen["cut"] += bool(congested.any())
            last = rows
            pools.clear()
        assert len(calls) == (0 if scheme is reserve_teleport else changes)
        assert 0 < changes < 40
        if scheme is not reserve_fair:
            seen.pop("cut")
        assert min(seen.values()) > 0, seen
