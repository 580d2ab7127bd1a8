"""Threshold-sharing delivery state machine and per-slot scheduling."""

import math
import random

import pytest

from qdnsim.rng import stream
from qdnsim.tag import (
    ChannelModel,
    HopSession,
    SharingTransfer,
    Stage,
    advance,
    plan_transfers,
)
from qdnsim.tele import Phase


def hop_with(in_flight=(), queued=0, window=2):
    """A hop holding one transfer per entry of ``in_flight`` (qubits 0, 1,
    ... in order), each brought to the entry's round and stage by encoding
    it and sending it the outcomes that lead there."""
    hop = HopSession(session=0, hop=0, sender=0, receiver=1, window=window,
                     unminted=None)
    for target in in_flight:
        transfer = hop.encode_next()
        assert transfer.qubit == target.qubit
        for _ in range(target.round):
            hop.send(transfer, True)   # first stored
            hop.send(transfer, False)  # second lost: one round deeper
        if target.stage is Stage.SECOND:
            hop.send(transfer, True)
    hop.unminted = queued
    return hop


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
        transfer = hop.encode_next()
        assert transfer.round == 0 and transfer.stage is Stage.FIRST
        assert len(hop.in_flight) == 1

    def test_encode_exhausts_supply(self):
        hop = hop_with(queued=2)
        hop.encode_next()
        hop.encode_next()
        assert hop.queued == 0
        with pytest.raises(ValueError):
            hop.encode_next()

    def test_infinite_supply(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, unminted=None)
        for _ in range(5):
            hop.encode_next()
        assert len(hop.in_flight) == 5
        assert hop.queued == math.inf


class TestIncrementalState:
    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_random_steps_keep_count_and_buckets_exact(self, p):
        rng = random.Random(int(p * 10))
        for _ in range(200):
            hop = HopSession(session=0, hop=1, sender=0, receiver=1,
                             unminted=rng.choice([None, 0, 5]),
                             queue_bound=rng.choice([None, 3]))
            live = {}  # every transfer encoded and not yet delivered
            handed = 1000
            for _ in range(rng.randint(0, 60)):
                action = rng.random()
                if action < 0.3 and hop.queued > 0:
                    transfer = hop.encode_next()
                    live[transfer.qubit] = transfer
                elif action < 0.4 and hop.queue_free != 0:
                    hop.accept(handed)
                    handed += 1
                elif live:
                    transfer = rng.choice(list(live.values()))
                    if hop.send(transfer, rng.random() < p):
                        del live[transfer.qubit]
                assert hop.stored_firsts == sum(
                    t.stored_at_receiver
                    for t in [*hop.firsts.values(), *hop.seconds.values()])
                for stage, bucket in ((Stage.FIRST, hop.firsts),
                                      (Stage.SECOND, hop.seconds)):
                    expected = {q: t for q, t in live.items() if t.stage is stage}
                    assert bucket.keys() == expected.keys()
                    assert all(bucket[q] is t for q, t in expected.items())
                assert len(hop.in_flight) == len(live)

    def test_in_flight_writes_keep_count_exact(self):
        hop = hop_with(queued=0)
        hop.in_flight[0] = SharingTransfer(0, round=2, stage=Stage.SECOND)
        hop.in_flight[1] = SharingTransfer(1, round=1)
        assert hop.stored_firsts == 4
        assert list(hop.seconds) == [0] and list(hop.firsts) == [1]
        hop.in_flight[0] = SharingTransfer(0, round=0, stage=Stage.FIRST)
        assert hop.stored_firsts == 1
        assert not hop.seconds and sorted(hop.in_flight) == [0, 1]
        del hop.in_flight[1]
        assert hop.stored_firsts == 0 and list(hop.in_flight) == [0]
        with pytest.raises(ValueError):
            hop.in_flight[2] = SharingTransfer(3)


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
        assert plan.seconds[0].qubit == 0  # largest round first

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


class TestPipeline:
    def drive(self, hop, slots, granted, p=1.0, receiver_capacity=10**6):
        rng = stream(7, "channel")
        channel = ChannelModel(p)
        delivered = 0
        for _ in range(slots):
            free = receiver_capacity - hop.stored_firsts
            blocks = 10**6
            plan = plan_transfers(hop, granted, free, blocks)
            transfers = list(plan.seconds) + list(plan.firsts)
            transfers += [hop.encode_next() for _ in range(plan.encodes)]
            for transfer in transfers:
                if hop.send(transfer, channel.sample(rng)):
                    delivered += 1
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
            granted = hop.announce()
            plan = plan_transfers(hop, granted, 10**6 - hop.stored_firsts, 10**6)
            transfers = list(plan.seconds) + list(plan.firsts)
            transfers += [hop.encode_next() for _ in range(plan.encodes)]
            for transfer in transfers:
                if hop.send(transfer, channel.sample(rng)):
                    delivered += 1
            hop.apply_slot(congested=False)
        assert delivered == 3
        assert not hop.in_flight


class TestChannelModel:
    def test_certain_success(self):
        rng = stream(0, "channel")
        channel = ChannelModel(1.0)
        assert all(channel.sample(rng) for _ in range(100))

    def test_certain_failure(self):
        rng = stream(0, "channel")
        channel = ChannelModel(0.0)
        assert not any(channel.sample(rng) for _ in range(100))

    def test_half_probability_concentrates(self):
        rng = stream(0, "channel")
        channel = ChannelModel(0.5)
        hits = sum(channel.sample(rng) for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) < 0.01

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(1.5)


class TestWindowRules:
    def test_initial_window_is_two(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1)
        assert hop.announce() == 2
        assert hop.phase is Phase.SLOW_START

    def test_avoidance_grows_despite_zero_deliveries(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, window=9,
                         phase=Phase.AVOIDANCE)
        hop.apply_slot(congested=False)
        assert hop.window == 10

    def test_congestion_halves_then_increments(self):
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, window=9,
                         phase=Phase.AVOIDANCE)
        hop.apply_slot(congested=True)
        assert hop.window == 5
