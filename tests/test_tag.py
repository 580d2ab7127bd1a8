"""Threshold-sharing delivery state machine and per-slot scheduling."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from qdnsim.memory import (RECEIVE_COST, TAG_QUBIT_UNITS,
                           TAG_SEND_COST, MemoryPool, PoolTable, cost)
from qdnsim.rng import stream
from qdnsim.routing import Path
from qdnsim.tag import (
    ChannelModel,
    HopSession,
    HopTable,
    Plan,
    SharingTransfer,
    Stage,
    advance,
    plan_transfers,
    reserve_sharing,
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


class ReferenceHop:
    """The per-qubit hop that the counted ``HopSession`` lumps: one
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

    def step(self, plan, outcomes):
        """Sends what ``plan`` counts; returns (seconds, firsts, delivered,
        losses), the first two as the rounds picked."""
        seconds = self.pick(Stage.SECOND, plan.second_count)
        firsts = self.pick(Stage.FIRST, plan.first_count - plan.encodes)
        picked = ([t.round for t in seconds], [t.round for t in firsts])
        transfers = seconds + firsts
        transfers += [self.encode() for _ in range(plan.encodes)]
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


def census(hop):
    """Qubits per (stage, round) of a counted hop."""
    return Counter({**{(Stage.FIRST, r): n for r, n in hop.firsts.items()},
                    **{(Stage.SECOND, r): n for r, n in hop.seconds.items()}})


def rounds(bins):
    return [round_ for round_, n in bins for _ in range(n)]


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
        hop = hop_with(queued=1)
        hop.send(Plan([], [], encodes=1), [False])
        assert hop.firsts == {0: 1} and not hop.seconds  # round 0, stage FIRST
        assert hop.in_flight_count == 1

    def test_encode_exhausts_supply(self):
        hop = hop_with(queued=2)
        hop.send(Plan([], [], encodes=1), [False])
        hop.send(Plan([], [], encodes=1), [False])
        assert hop.queued == 0
        with pytest.raises(ValueError):
            hop.send(Plan([], [], encodes=1), [False])

    def test_infinite_supply(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, unminted=None)
        hop.send(Plan([], [], encodes=5), [False] * 5)
        assert hop.in_flight_count == 5
        assert hop.queued == math.inf

    @pytest.mark.parametrize("outcomes", [[True, True, True], []])
    def test_send_takes_one_outcome_per_planned_sharing(self, outcomes):
        # Three outcomes for one sharing would store three firsts for one
        # qubit in flight; none would count the sharing as lost.
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, unminted=None)
        with pytest.raises(ValueError, match="^[03] outcomes, 1 planned$"):
            hop.send(Plan([], [], encodes=1), outcomes)
        assert hop.in_flight_count == hop.stored_firsts == 0


class TestIncrementalState:
    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_random_steps_keep_count_and_buckets_exact(self, p):
        # A counted hop and the per-qubit reference take the same plans and
        # outcomes; after every slot they agree on everything a trace reads.
        rng = random.Random(int(p * 10))
        for _ in range(200):
            unminted = rng.choice([None, 0, 5, 40])
            bound = rng.choice([None, 3, 8])
            hop = HopSession(session=0, hop=1, sender=0, receiver=1,
                             unminted=unminted, queue_bound=bound)
            reference = ReferenceHop(unminted)
            for _ in range(rng.randint(0, 30)):
                handed = rng.randint(0, 3)
                if bound is None or hop.backlog + handed <= bound:
                    hop.backlog += handed
                    reference.accept(handed)
                window = rng.randint(0, 24)
                plan = plan_transfers(
                    hop, window, receiver_free=rng.randint(0, 24),
                    encode_blocks_free=rng.randint(0, 12),
                    downstream_free=rng.choice([None, rng.randint(0, 6)]))
                outcomes = [rng.random() < p for _ in
                            range(plan.first_count + plan.second_count)]
                seconds, firsts, delivered, losses = reference.step(
                    plan, outcomes)
                assert rounds(plan.seconds) == seconds
                assert rounds(plan.firsts) == firsts
                assert hop.send(plan, outcomes) == delivered
                assert outcomes.count(False) == losses
                assert plan.second_count == len(seconds)
                assert plan.first_count == len(firsts) + plan.encodes
                assert hop.stored_firsts == reference.stored_firsts
                assert census(hop) == reference.census()
                assert hop.backlog == len(reference.queue)
                assert hop.unminted == reference.unminted

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
        for window, send, receive in [(2, 9, 4), (8, 18, 8)]:
            hop.window = window
            pools = PoolTable([MemoryPool(0, "send", 100),
                               MemoryPool(1, "receive", 100)])
            granted, congested, _ = reserve_sharing([hop], pools)
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
        budgets = {}
        for granted in range(20):
            for each in hops:
                each.window = granted
            pools = PoolTable([MemoryPool(0, "send", 10**6),
                               MemoryPool(1, "receive", 10**6)])
            windows, _, receive = reserve_sharing(hops, pools)
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
        return [(session, hop, keys[send][0], keys[receive][0],
                 None if unminted == UNBOUNDED else unminted,
                 bound if hop else None,
                 None if remaining == UNBOUNDED else remaining)
                for session, hop, send, receive, unminted, bound, remaining
                in zip(*(getattr(table, name).tolist() for name in (
                    "session", "hop", "send", "receive", "unminted",
                    "queue_bound", "remaining")))]

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
    def drive(self, hop, slots, granted, p=1.0, receiver_capacity=10**6):
        rng = stream(7, "channel")
        channel = ChannelModel(p)
        delivered = 0
        for _ in range(slots):
            free = receiver_capacity - hop.stored_firsts
            blocks = 10**6
            plan = plan_transfers(hop, granted, free, blocks)
            sent = plan.first_count + plan.second_count
            delivered += hop.send(plan, channel.draw(rng, sent))
        return delivered

    def test_lossless_pipeline_delivers_one_per_two_slots(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, unminted=None)
        delivered = self.drive(hop, slots=20, granted=2)
        assert delivered == 10

    def test_lossy_pipeline_eventually_delivers_everything(self):
        # A failed second sharing freezes the first-sharing budget until the
        # window outgrows the stored backlog, so the window rules must run.
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, unminted=3)
        rng = stream(7, "channel")
        channel = ChannelModel(0.4)
        delivered = 0
        for _ in range(400):
            granted = hop.window
            plan = plan_transfers(hop, granted, 10**6 - hop.stored_firsts, 10**6)
            sent = plan.first_count + plan.second_count
            delivered += hop.send(plan, channel.draw(rng, sent))
            hop.window, hop.phase = next_window(hop.window, hop.phase, False)
        assert delivered == 3
        assert hop.in_flight_count == 0


class TestChannelModel:
    def test_certain_success(self):
        rng = stream(0, "channel")
        channel = ChannelModel(1.0)
        assert all(channel.draw(rng, 100))

    def test_certain_failure(self):
        rng = stream(0, "channel")
        channel = ChannelModel(0.0)
        assert not any(channel.draw(rng, 100))

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_outcomes_leave_the_generator_alone(self, p):
        rng = stream(0, "channel")
        assert ChannelModel(p).draw(rng, 100) == [p == 1.0] * 100
        assert (rng.random(5) == stream(0, "channel").random(5)).all()

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.65, 1.0])
    def test_successes_match_draw_run_by_run(self, p):
        # One draw for a hops x runs matrix gives each run, in row-major
        # order, the successes one draw per run would.
        counts = np.array([[3, 0, 5, 0], [0, 0, 1, 0], [17, 4, 0, 9]])
        channel = ChannelModel(p)
        table, loop = stream(3, "channel"), stream(3, "channel")
        got = channel.successes(table, counts)
        assert got.tolist() == [[sum(channel.draw(loop, n)) for n in row]
                                for row in counts.tolist()]
        assert repr(table.bit_generator.state) == repr(
            loop.bit_generator.state)
        empty = np.zeros((0, 3), dtype=np.int64)
        assert channel.successes(table, empty).shape == (0, 3)

    def test_half_probability_concentrates(self):
        rng = stream(0, "channel")
        channel = ChannelModel(0.5)
        hits = sum(channel.draw(rng, 100_000))
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
