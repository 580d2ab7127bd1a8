"""Threshold-sharing delivery state machine and per-slot scheduling."""

import random
from collections import Counter

import numpy as np
import pytest

from qdnsim.memory import (RECEIVE_COST, TAG_QUBIT_UNITS,
                           TAG_SEND_COST, MemoryPool, PoolTable, cost)
from qdnsim.rng import stream
from qdnsim.routing import Path
from qdnsim.tag import (
    _NEVER,
    ChannelModel,
    HopSession,
    HopTable,
    SharingTransfer,
    Stage,
    _hits,
    _plan,
    _reserve,
    _runs,
    _send,
    advance,
    plan_transfers,
)
from qdnsim.tele import UNBOUNDED, Phase, next_window


def hop_with(in_flight=(), queued=0, window=2):
    """A hop holding one qubit per entry of ``in_flight``, at the entry's
    round and stage."""
    hop = HopSession(session=0, hop=0, sender=0, receiver=1, window=window,
                     unminted=queued)
    for qubit, target in enumerate(in_flight):
        hop.in_flight[qubit] = target
    return hop


def hop_table(pools, flows, p=1.0, rng=None):
    """A ``HopTable`` of one-hop flows from node 0 to node 1 of ``pools``,
    each ``(session, qubits, initial window)``, whose sharings succeed with
    probability ``p``."""
    table = HopTable(pools, ChannelModel(p), rng or stream(0, "channel"),
                     switched=True)
    table.admit([(sid, Path((0, 1)), qubits, window)
                 for sid, qubits, window in flows])
    return table


def one_hop_pools(capacity=10**6):
    return PoolTable([MemoryPool(0, "send", capacity),
                      MemoryPool(1, "receive", capacity)])


def fresh_hop(unminted):
    """One hop's columns with nothing in flight: firsts, seconds, stored,
    backlog and unminted (``UNBOUNDED`` for None)."""
    rounds = np.zeros((1, 1), dtype=np.int64)
    return (rounds, rounds, np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.array([UNBOUNDED if unminted is None else unminted]))


class ReferenceHop:
    """The per-qubit hop that a hop's counted columns lump: one
    ``SharingTransfer`` per in-flight qubit, advanced one outcome at a
    time, picked by ``(-round, qubit)``."""

    def __init__(self, unminted):
        self.unminted = unminted
        self.queue = []
        self.flying = {}
        self.next_qubit = 0
        self.next_handed = 10**6  # ids of qubits handed over from upstream
        self.stored_firsts = 0

    def accept(self, n):
        self.queue += range(self.next_handed, self.next_handed + n)
        self.next_handed += n

    def pick(self, stage, count):
        return sorted((t for t in self.flying.values() if t.stage is stage),
                      key=lambda t: (-t.round, t.qubit))[:count]

    def encode(self):
        if self.queue:
            qubit = self.queue.pop(0)
        else:
            qubit = self.next_qubit
            self.next_qubit += 1
            if self.unminted is not None:
                self.unminted -= 1
        self.flying[qubit] = SharingTransfer(qubit)
        return self.flying[qubit]

    def step(self, n_seconds, n_firsts, encodes, outcomes):
        """Sends ``n_seconds`` seconds, ``n_firsts`` firsts and ``encodes``
        fresh qubits' firsts; returns (seconds, firsts, delivered, losses),
        the first two as the rounds picked."""
        seconds = self.pick(Stage.SECOND, n_seconds)
        firsts = self.pick(Stage.FIRST, n_firsts)
        picked = ([t.round for t in seconds], [t.round for t in firsts])
        transfers = seconds + firsts
        transfers += [self.encode() for _ in range(encodes)]
        assert len(transfers) == len(outcomes)
        delivered = 0
        for transfer, success in zip(transfers, outcomes):
            delta, done = advance(transfer, success)
            self.stored_firsts += delta
            if done:
                del self.flying[transfer.qubit]
                delivered += 1
        return (*picked, delivered, outcomes.count(False))

    def census(self):
        return Counter((t.stage, t.round) for t in self.flying.values())


def census(firsts, seconds):
    """Qubits per (stage, round) of one hop's firsts and seconds rows."""
    rows = {Stage.FIRST: firsts[0], Stage.SECOND: seconds[0]}
    return Counter({(stage, r): n for stage, row in rows.items()
                    for r, n in enumerate(row.tolist()) if n})


def rounds(row):
    """A row of counts per round as the rounds it counts, highest first."""
    return np.repeat(np.arange(len(row)), row)[::-1].tolist()


class TestAdvance:
    def test_successful_first_is_stored(self):
        transfer = SharingTransfer(qubit=0)
        delta, done = advance(transfer, True)
        assert (delta, done) == (1, False)
        assert transfer.stage is Stage.SECOND
        assert transfer.stored_at_receiver == 1

    def test_failed_first_costs_nothing(self):
        transfer = SharingTransfer(qubit=0)
        delta, done = advance(transfer, False)
        assert (delta, done) == (0, False)
        assert transfer.stage is Stage.FIRST
        assert transfer.round == 0

    def test_two_successes_deliver_with_peak_of_two(self):
        transfer = SharingTransfer(qubit=0)
        advance(transfer, True)
        delta, done = advance(transfer, True)
        assert done
        assert delta == -1  # the single stored first is released

    def test_failed_second_deepens_recursion(self):
        transfer = SharingTransfer(qubit=0, round=2, stage=Stage.SECOND)
        delta, done = advance(transfer, False)
        assert (delta, done) == (0, False)
        assert transfer.round == 3
        assert transfer.stage is Stage.FIRST
        assert transfer.stored_at_receiver == 3

    def test_deep_chain_releases_everything(self):
        transfer = SharingTransfer(qubit=0, round=4, stage=Stage.SECOND)
        delta, done = advance(transfer, True)
        assert done
        assert delta == -5

    def test_delivered_cannot_advance(self):
        transfer = SharingTransfer(qubit=0, stage=Stage.DELIVERED)
        with pytest.raises(ValueError):
            advance(transfer, True)

    def test_adversarial_losses_then_successes_deliver(self):
        transfer = SharingTransfer(qubit=0)
        outcomes = [False, True, False, False, True, False, True, True]
        delivered = False
        for success in outcomes:
            if transfer.stage is Stage.DELIVERED:
                break
            _, delivered = advance(transfer, success)
        assert delivered
        assert transfer.stored_at_receiver == 0


class TestEncode:
    def test_encode_initial_state(self):
        # A window of 2 sends one sharing: a fresh qubit's first, here lost.
        table = hop_table(one_hop_pools(), [(0, 1, None)], p=0.0)
        table.step()
        assert table.firsts.tolist() == [[1]]  # round 0, stage FIRST
        assert table.seconds.tolist() == [[0]]
        assert table.unminted.tolist() == [0]

    def test_infinite_supply(self):
        # A window of 10 encodes 10 // 2 fresh qubits; the stream mints on.
        table = hop_table(one_hop_pools(), [(0, None, 10)], p=0.0)
        table.step()
        assert table.firsts.tolist() == [[5]]
        assert table.unminted.tolist() == [UNBOUNDED]


class TestIncrementalState:
    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_random_steps_keep_count_and_buckets_exact(self, p):
        # One hop's columns, stepped by the passes ``HopTable.step`` chains,
        # and the per-qubit reference take the same plans and outcomes;
        # after every slot they agree on everything a trace reads, and the
        # counts the passes return equal the sums they stand for.
        rng = random.Random(int(p * 10))
        for _ in range(200):
            unminted = rng.choice([None, 0, 5, 40])
            bound = rng.choice([None, 3, 8])
            firsts, seconds, stored, backlog, supply = fresh_hop(unminted)
            in_flight = np.zeros(1, dtype=np.int64)
            reference = ReferenceHop(unminted)
            for _ in range(rng.randint(0, 30)):
                handed = rng.randint(0, 3)
                if bound is None or backlog[0] + handed <= bound:
                    backlog = backlog + handed
                    reference.accept(handed)
                budgets = np.array([[rng.randint(0, 24)], [rng.randint(0, 24)],
                                    [rng.choice([_NEVER, rng.randint(0, 6)])]])
                (take_seconds, take_firsts, encodes, firsts_sent,
                 seconds_sent) = _plan(*budgets, stored, firsts, seconds,
                                       backlog, supply)
                assert firsts_sent.tolist() == (
                    take_firsts.sum(axis=1) + encodes).tolist()
                assert seconds_sent.tolist() == take_seconds.sum(axis=1).tolist()
                runs = _runs(take_seconds, take_firsts, encodes)
                outcomes = [rng.random() < p for _ in range(runs.sum())]
                picked_seconds, picked_firsts, delivered, losses = \
                    reference.step(take_seconds.sum(), take_firsts.sum(),
                                   encodes[0], outcomes)
                assert rounds(take_seconds[0]) == picked_seconds
                assert rounds(take_firsts[0]) == picked_firsts
                ok = _hits(runs, np.array(outcomes, dtype=bool))
                (firsts, seconds, stored, backlog, supply, sent,
                 landed) = _send(firsts, seconds, stored, backlog, supply,
                                 runs, ok)
                assert sent.tolist() == [delivered]
                assert landed.tolist() == [ok[0, take_seconds.shape[1]:].sum()]
                assert outcomes.count(False) == losses
                assert (firsts_sent + seconds_sent - sent - landed).tolist() == [
                    runs.sum() - ok.sum()]
                in_flight = in_flight + encodes - sent
                assert in_flight.tolist() == (
                    firsts.sum(axis=1) + seconds.sum(axis=1)).tolist()
                assert stored.tolist() == [reference.stored_firsts]
                assert census(firsts, seconds) == reference.census()
                assert backlog.tolist() == [len(reference.queue)]
                assert supply.tolist() == [
                    UNBOUNDED if unminted is None else reference.unminted]

    def test_kept_in_flight_column_matches_the_round_counts(self):
        # Lossy relay hops whose finite sessions retire: after every slot
        # the table's kept in-flight column equals its round counts' sum.
        pools = PoolTable([MemoryPool(node, kind, 60) for node in range(4)
                           for kind in ("send", "receive")])
        table = HopTable(pools, ChannelModel(0.6), stream(3, "channel"),
                         switched=False)
        table.admit([(0, Path((0, 1, 2, 3)), 12, None),
                     (1, Path((3, 2, 1)), None, 4), (2, Path((1, 2)), 5, 8)])
        assert table.in_flight.tolist() == [0] * 6
        for _ in range(150):
            table.step()
            pools.clear()
            assert table.in_flight.tolist() == (
                table.firsts.sum(axis=1) + table.seconds.sum(axis=1)).tolist()
        assert table.session.tolist() == [1, 1]  # the finite flows retired

    def test_in_flight_writes_keep_count_exact(self):
        hop = hop_with(queued=0)
        hop.in_flight[0] = SharingTransfer(0, round=2, stage=Stage.SECOND)
        hop.in_flight[1] = SharingTransfer(1, round=1)
        hop.in_flight[2] = SharingTransfer(2, round=1)
        assert hop.stored_firsts == 5
        assert hop.seconds == {2: 1} and hop.firsts == {1: 2}
        assert hop.in_flight_count == 3
        with pytest.raises(ValueError):
            hop.in_flight[3] = SharingTransfer(3, stage=Stage.DELIVERED)

    def test_points_floored_by_hop_counters(self):
        # Three qubits in flight hold 3 sender units each; the receiver
        # stores 2 + 1 + 1 first sharings for them.  A window of 2 prices
        # below both floors; a window of 8 costs 18 send units (9/4 each)
        # and 8 receive units (1 each), above them.
        hop = hop_with(queued=0)
        hop.in_flight[0] = SharingTransfer(0, round=1, stage=Stage.SECOND)
        hop.in_flight[1] = SharingTransfer(1, round=1)
        hop.in_flight[2] = SharingTransfer(2, round=0, stage=Stage.SECOND)
        floor = np.array([TAG_QUBIT_UNITS * hop.in_flight_count,
                          hop.stored_firsts])
        for window, send, receive in [(2, 9, 4), (8, 18, 8)]:
            pools = one_hop_pools(100)
            granted, congested, _ = _reserve(
                pools, hop_table(pools, [(0, None, None)]).incidence(floor),
                np.array([window]))
            assert granted.tolist() == [window]
            assert congested.tolist() == [False]
            assert send == max(cost(TAG_SEND_COST, window),
                               TAG_QUBIT_UNITS * hop.in_flight_count)
            assert receive == max(cost(RECEIVE_COST, window),
                                  hop.stored_firsts)
            assert pools.reserved.tolist() == [send, receive]

    def test_budgets_are_reservation_less_floors(self):
        # With 4 stored firsts, a grant of 8 holds 8 receive units (4
        # free); a grant of 2 is all floor.  The random hops hold up to 30
        # qubits, so their floors also pass the cost of the larger grants.
        hop = hop_with(queued=0)
        hop.in_flight[0] = SharingTransfer(0, round=1, stage=Stage.SECOND)
        hop.in_flight[1] = SharingTransfer(1, round=1)
        hop.in_flight[2] = SharingTransfer(2, round=0, stage=Stage.SECOND)
        hops = [hop]
        rng = random.Random(15)
        for session in range(1, 9):
            hops.append(HopSession(session=session, hop=0, sender=0,
                                   receiver=1, unminted=None))
            for qubit in range(rng.randint(0, 30)):
                hops[-1].in_flight[qubit] = SharingTransfer(
                    qubit, rng.randint(0, 3),
                    rng.choice([Stage.FIRST, Stage.SECOND]))
        assert any(3 * each.in_flight_count > cost(TAG_SEND_COST, 19)
                   and each.stored_firsts > 19 for each in hops)
        pools = one_hop_pools()
        points = hop_table(pools, [(session, None, None)
                                   for session in range(len(hops))])
        floor = np.ravel([(TAG_QUBIT_UNITS * each.in_flight_count,
                           each.stored_firsts) for each in hops])
        budgets = {}
        for granted in range(20):
            pools.clear()
            windows, _, receive = _reserve(pools, points.incidence(floor),
                                           np.full(len(hops), granted))
            assert windows.tolist() == [granted] * len(hops)
            budgets[granted] = receive.tolist()
            assert budgets[granted] == [
                max(granted - each.stored_firsts, 0) for each in hops]
        assert budgets[8][0] == 4
        assert budgets[2][0] == 0


class TestPlanTransfers:
    def test_fresh_session_sends_one_first(self):
        hop = hop_with(queued=5, window=2)
        plan = plan_transfers(hop, granted=2, receiver_free=2,
                              encode_blocks_free=1)
        assert plan.second_count == 0
        assert plan.first_count == 1

    def test_seconds_prioritized_and_first_bound(self):
        # Five stored firsts across three pending seconds; the first-sharing
        # budget formula caps firsts at floor(W/2) + seconds - stored = 2.
        in_flight = [
            SharingTransfer(0, round=1, stage=Stage.SECOND),   # stores 2
            SharingTransfer(1, round=1, stage=Stage.SECOND),   # stores 2
            SharingTransfer(2, round=0, stage=Stage.SECOND),   # stores 1
            SharingTransfer(3, round=0, stage=Stage.FIRST),
        ]
        hop = hop_with(in_flight=in_flight, queued=10, window=8)
        assert hop.stored_firsts == 5
        plan = plan_transfers(hop, granted=8, receiver_free=20,
                              encode_blocks_free=10)
        assert plan.second_count == 3
        assert plan.first_count <= 2
        assert plan.seconds == [(1, 2), (0, 1)]  # highest-round bin first

    def test_pause_when_stored_exceeds_half_window(self):
        in_flight = [
            SharingTransfer(i, round=0, stage=Stage.SECOND) for i in range(4)
        ]
        hop = hop_with(in_flight=in_flight, queued=10, window=4)
        plan = plan_transfers(hop, granted=4, receiver_free=0,
                              encode_blocks_free=10)
        assert plan.second_count == 0  # no receiver space at all
        assert plan.first_count == 0

    def test_budget_is_three_quarters_of_window(self):
        hop = hop_with(queued=100, window=8)
        plan = plan_transfers(hop, granted=8, receiver_free=100,
                              encode_blocks_free=100)
        assert plan.first_count + plan.second_count <= 6

    def test_escape_hatch_allows_seconds_beyond_window(self):
        # Stored firsts fill the window; a single free receiver unit still
        # admits seconds (up to the slot budget), never firsts.
        in_flight = [
            SharingTransfer(i, round=0, stage=Stage.SECOND) for i in range(4)
        ]
        hop = hop_with(in_flight=in_flight, queued=0, window=4)
        plan = plan_transfers(hop, granted=4, receiver_free=1,
                              encode_blocks_free=0)
        assert plan.second_count == 3  # capped by floor(3W/4)
        assert plan.first_count == 0

    def test_fuzzed_plans_respect_budgets(self):
        rng = random.Random(99)
        for _ in range(10_000):
            window = rng.randint(0, 40)
            n_second = rng.randint(0, 10)
            n_first = rng.randint(0, 10)
            in_flight = []
            qubit = 0
            for _ in range(n_second):
                in_flight.append(
                    SharingTransfer(qubit, rng.randint(0, 3), Stage.SECOND)
                )
                qubit += 1
            for _ in range(n_first):
                in_flight.append(
                    SharingTransfer(qubit, rng.randint(0, 3), Stage.FIRST)
                )
                qubit += 1
            hop = hop_with(in_flight=in_flight, queued=rng.randint(0, 30),
                           window=window)
            stored = hop.stored_firsts
            free = rng.randint(0, 50)
            plan = plan_transfers(hop, granted=window, receiver_free=free,
                                  encode_blocks_free=rng.randint(0, 30))
            firsts, seconds = plan.first_count, plan.second_count
            assert seconds <= len([t for t in in_flight if t.stage is Stage.SECOND])
            assert firsts + seconds <= (3 * window) // 4
            assert firsts <= free
            if free == 0:
                assert seconds == 0
            if firsts:  # window bound, modulo the seconds escape hatch
                assert stored + firsts + seconds <= window

    def test_send_blocks_of_the_grant_never_cut_a_plan(self):
        # Fresh encodes fit into floor(3g/4) less the stored firsts and the
        # firsts in flight, and a second in flight stores at least one
        # first, so they fit into the 3-unit send blocks a grant of g
        # leaves above the in-flight floor.
        rng = random.Random(44)
        tight = 0
        for _ in range(5_000):
            granted = rng.randint(0, 60)
            hop = hop_with(
                [SharingTransfer(qubit, rng.randint(0, 4),
                                 rng.choice([Stage.FIRST, Stage.SECOND]))
                 for qubit in range(rng.randint(0, 12))],
                queued=rng.choice([None, rng.randint(0, 40)]), window=granted)
            blocks = max(cost(TAG_SEND_COST, granted)
                         - TAG_QUBIT_UNITS * hop.in_flight_count,
                         0) // TAG_QUBIT_UNITS
            free = rng.randint(0, 60)
            downstream = rng.choice([None, rng.randint(0, 12)])
            plan = plan_transfers(hop, granted, free, blocks, downstream)
            unbudgeted = plan_transfers(hop, granted, free, 10**9, downstream)
            assert plan == unbudgeted
            tight += plan.encodes == blocks > 0
        assert tight

    def test_window_zero_sends_nothing(self):
        in_flight = [SharingTransfer(0, stage=Stage.SECOND)]
        hop = hop_with(in_flight=in_flight, queued=5, window=0)
        plan = plan_transfers(hop, granted=0, receiver_free=10,
                              encode_blocks_free=10)
        assert plan.first_count == 0 and plan.second_count == 0

    def test_encode_deferred_without_sender_blocks(self):
        # Queued qubits wait when the send pool has no free 3-unit block.
        hop = hop_with(queued=5, window=4)
        plan = plan_transfers(hop, granted=4, receiver_free=10,
                              encode_blocks_free=0)
        assert plan.encodes == 0
        assert plan.first_count == 0


class TestTagFlowAdmit:
    # Hosts 1 and 2 at the ends of path 1-0-5-2; relay 0's send pool
    # holds 3 qubits in flight, relay 5's 4.
    path = Path((1, 0, 5, 2))
    pools = PoolTable([MemoryPool(node, kind, capacity)
                       for node, capacity in [(1, 90), (0, 11), (5, 12), (2, 90)]
                       for kind in ("send", "receive")])

    def admit(self, sid, qubits, initial_window, switched):
        """A fresh hop table with the flow admitted."""
        table = HopTable(self.pools, ChannelModel(1.0), stream(0, "channel"),
                         switched)
        table.admit([(sid, self.path, qubits, initial_window)])
        return table

    def hops(self, table):
        """Each row as (session, hop, sender, receiver, unminted, queue
        bound, remaining), with None for an unbounded count or no bound."""
        keys = self.pools.keys
        columns = [getattr(table, name).tolist() for name in (
            "session", "hop", "unminted", "queue_bound", "remaining")]
        return [(session, hop, keys[send][0], keys[receive][0],
                 None if unminted == UNBOUNDED else unminted,
                 bound if hop else None,
                 None if remaining == UNBOUNDED else remaining)
                for session, hop, unminted, bound, remaining, send, receive
                in zip(*columns, table.pool[0::2].tolist(),
                       table.pool[1::2].tolist())]

    def test_switch_flow_is_one_end_to_end_hop(self):
        table = self.admit(4, 7, None, switched=True)
        assert self.hops(table) == [(4, 0, 1, 2, 7, None, 7)]
        assert table.forwards.tolist() == [False]

    def test_relay_flow_has_one_hop_per_link(self):
        table = self.admit(4, 7, None, switched=False)
        # Only the ingress hop mints qubits and only the egress hop counts
        # what is left to deliver; each relay hop's queue is bounded by its
        # sender's send pool // 3.
        assert self.hops(table) == [
            (4, 0, 1, 0, 7, None, None),
            (4, 1, 0, 5, 0, 11 // TAG_QUBIT_UNITS, None),
            (4, 2, 5, 2, 0, 12 // TAG_QUBIT_UNITS, 7)]
        assert table.forwards.tolist() == [True, True, False]

    def test_unbounded_stream_mints_without_end(self):
        table = self.admit(0, None, None, switched=False)
        assert [hop[4] for hop in self.hops(table)] == [None, 0, 0]
        assert [hop[6] for hop in self.hops(table)] == [None] * 3

    @pytest.mark.parametrize("switched", [True, False])
    def test_initial_window(self, switched):
        assert set(self.admit(0, 3, None, switched).window.tolist()) == {2}
        assert set(self.admit(0, 3, 9, switched).window.tolist()) == {9}

    def test_relay_queue_overflow_is_an_error(self):
        # Relay 0's queue holds 11 // 3 = 3 qubits: a third delivery fills
        # it, a fourth overflows it.
        table = self.admit(4, 7, None, switched=False)
        table.backlog[1] = 2
        table._hand_over(np.array([1, 0, 0]))
        assert table.backlog.tolist() == [0, 3, 0]
        with pytest.raises(OverflowError, match=(
                "^relay queue full on hop 1 of session 4$")):
            table._hand_over(np.array([1, 0, 0]))

    def test_one_slot_admits_flows_in_order(self):
        # Two flows admitted together: rows by flow, then by hop, and a
        # finished flow's rows leave together.
        table = HopTable(self.pools, ChannelModel(1.0), stream(0, "channel"),
                         switched=False)
        table.admit([(4, self.path, 7, None),
                     (2, Path((2, 5, 1)), 1, None)])
        assert list(zip(table.session.tolist(), table.hop.tolist())) == [
            (4, 0), (4, 1), (4, 2), (2, 0), (2, 1)]
        table._hand_over(np.array([0, 0, 0, 0, 1]))
        assert table.session.tolist() == [4, 4, 4]
        assert table.remaining.tolist() == [UNBOUNDED, UNBOUNDED, 7]

    def test_ties_stay_in_session_then_hop_order_across_slots(self):
        # Session 5 (hops 0-1 on 0-1-2) is admitted a slot before session
        # 3 (hops 0-3 on 3-4-5-1-2), whose last hop index is above every
        # earlier row's.  Both last hops then announce window 4 into node
        # 2's 7-unit receive pool: one cut fits, and it falls on the lower
        # (session, hop), (3, 3).
        pools = PoolTable([MemoryPool(node, kind, 7 if node == 2 and
                                      kind == "receive" else 10**6)
                           for node in range(6)
                           for kind in ("send", "receive")])
        table = HopTable(pools, ChannelModel(1.0), stream(0, "channel"),
                         switched=False)
        table.admit([(5, Path((0, 1, 2)), None, None)])
        table.step()
        pools.clear()
        table.admit([(3, Path((3, 4, 5, 1, 2)), None, 4)])
        session, hop, window, congested, *_ = table.step()
        rows = {(s, h): (w, c) for s, h, w, c in zip(
            session.tolist(), hop.tolist(), window.tolist(),
            congested.tolist())}
        assert rows[5, 1] == (4, 0)
        assert rows[3, 3] == (4, 1)
        assert sum(c for _, c in rows.values()) == 1


class TestPipeline:
    def test_lossless_pipeline_delivers_one_per_two_slots(self):
        # A grant of 2 sends one sharing a slot, a first then its second.
        firsts, seconds, stored, backlog, unminted = fresh_hop(None)
        delivered = 0
        for _ in range(20):
            plan = _plan(np.array([2]), 10**6 - stored, np.array([_NEVER]),
                         stored, firsts, seconds, backlog, unminted)
            runs = _runs(*plan[:3])
            firsts, seconds, stored, backlog, unminted, sent, landed = _send(
                firsts, seconds, stored, backlog, unminted, runs, runs)
            assert (plan[3] + plan[4]).tolist() == [1]
            assert (landed + sent).tolist() == [1]
            delivered += sent[0]
        assert delivered == 10

    def test_lossy_pipeline_eventually_delivers_everything(self):
        # A failed second sharing freezes the first-sharing budget until the
        # window outgrows the stored backlog, so the window rules must run.
        table = hop_table(one_hop_pools(), [(0, 3, None)], p=0.4,
                          rng=stream(7, "channel"))
        delivered = sum(table.step()[5].sum() for _ in range(400))
        assert delivered == 3
        assert len(table.session) == 0  # retired with nothing in flight


class TestChannelModel:
    def test_certain_success(self):
        rng = stream(0, "channel")
        channel = ChannelModel(1.0)
        assert channel.successes(rng, np.array([[100]])).tolist() == [[100]]

    def test_certain_failure(self):
        rng = stream(0, "channel")
        channel = ChannelModel(0.0)
        assert channel.successes(rng, np.array([[100]])).tolist() == [[0]]

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_outcomes_leave_the_generator_alone(self, p):
        rng = stream(0, "channel")
        counts = np.array([[100, 0], [7, 3]])
        assert ChannelModel(p).successes(rng, counts).tolist() == (
            counts * (p == 1.0)).tolist()
        assert (rng.random(5) == stream(0, "channel").random(5)).all()

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.65, 1.0])
    def test_successes_match_draw_run_by_run(self, p):
        # One draw for a hops x runs matrix gives each run, in row-major
        # order, the successes one draw per run would; at p = 0 or 1 those
        # are certain, and nothing is drawn.
        counts = np.array([[3, 0, 5, 0], [0, 0, 1, 0], [17, 4, 0, 9]])
        channel = ChannelModel(p)
        table, loop = stream(3, "channel"), stream(3, "channel")
        got = channel.successes(table, counts)
        assert got.tolist() == [[int((loop.random(n) < p).sum()) for n in row]
                                for row in counts.tolist()]
        if 0.0 < p < 1.0:
            assert repr(table.bit_generator.state) == repr(
                loop.bit_generator.state)
        empty = np.zeros((0, 3), dtype=np.int64)
        assert channel.successes(table, empty).shape == (0, 3)

    def test_half_probability_concentrates(self):
        rng = stream(0, "channel")
        channel = ChannelModel(0.5)
        hits = channel.successes(rng, np.array([[100_000]]))[0, 0]
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(1.5)


class TestWindowRules:
    def test_initial_window_is_two(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1)
        assert hop.window == 2
        assert hop.phase is Phase.SLOW_START

    def test_avoidance_grows_despite_zero_deliveries(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, window=9,
                         phase=Phase.AVOIDANCE)
        hop.window, hop.phase = next_window(hop.window, hop.phase, False)
        assert hop.window == 10

    def test_congestion_halves_then_increments(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, window=9,
                         phase=Phase.AVOIDANCE)
        hop.window, hop.phase = next_window(hop.window, hop.phase, True)
        assert hop.window == 5
