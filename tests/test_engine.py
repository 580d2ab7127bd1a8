"""Slot loop: phase ordering, determinism, conservation."""

import tracemalloc
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from qdnsim import metrics
from qdnsim.cli import emit
from qdnsim.engine import (
    Engine,
    Protocol,
    RunConfig,
    SessionSpec,
    WaxmanSpec,
    run,
)
from qdnsim.errors import (ConfigError, DeadlockError,
                           InfeasibleReservationError)
from qdnsim.memory import (MAX_SESSIONS, MAX_UNITS, TAG_PRICES,
                           TAG_QUBIT_UNITS, FlowColumns, Incidence,
                           MemoryPool, PoolTable, path_points)
from qdnsim.presets import get_preset
from qdnsim.rng import CHANNEL_STREAM, SESSION_STREAM, stream
from qdnsim.routing import compute_path
from qdnsim.tag import ChannelModel, _reserve
from qdnsim.topology import MAX_INFRA, NetworkKind, Node, NodeKind, Topology
from qdnsim.trace import PoolRow, Rows, SessionRow
from test_differential import step_rows
from test_golden import CONFIGS as GOLDEN_CONFIGS


def star_topology(n_ingress, network=NetworkKind.TELE, hub_capacity=10**6,
                  ingress_capacity=10**6, egress_capacity=10**6):
    """Hub node 0, ingress hosts 1..n, egress host n+1."""
    if network is NetworkKind.TAG_SWITCH:
        hub_kind, hub_capacity = NodeKind.SWITCH, 0
    elif network is NetworkKind.TAG_RELAY:
        hub_kind = NodeKind.RELAY
    else:
        hub_kind = NodeKind.REPEATER
    nodes = [Node(0, hub_kind, 0.0, 0.0, hub_capacity)]
    edges = []
    for i in range(1, n_ingress + 1):
        nodes.append(Node(i, NodeKind.HOST, 1.0 * i, 0.0, ingress_capacity))
        edges.append((0, i))
    egress = n_ingress + 1
    nodes.append(Node(egress, NodeKind.HOST, 0.0, 1.0, egress_capacity))
    edges.append((0, egress))
    return Topology(network, nodes, edges), egress


def star_config(protocol, network, sessions, n_slots, seed=0, p=1.0, **caps):
    topology, egress = star_topology(len(sessions), network, **caps)
    specs = [
        SessionSpec(src=i + 1, dst=egress, qubits=q, initial_window=w)
        for i, (q, w) in enumerate(sessions)
    ]
    return RunConfig(
        seed=seed, protocol=protocol, network=network, topology=topology,
        sessions=specs, n_slots=n_slots, p=p,
    )


class TestTeleRuns:
    def test_slow_start_doubles_deliveries(self):
        cfg = star_config(Protocol.TELE, NetworkKind.TELE,
                          [(None, None)], n_slots=5)
        result = run(cfg)
        assert [row.delivered for row in result.session_rows] == [1, 2, 4, 8, 16]

    def test_finite_session_retires(self):
        cfg = star_config(Protocol.TELE, NetworkKind.TELE, [(3, 5)], n_slots=4)
        result = run(cfg)
        assert [row.delivered for row in result.session_rows] == [3]
        assert result.summary["delivered_total"] == 3

    def test_finished_session_leaves_flows_and_keeps_its_path(self):
        # Session 0 delivers its 3 qubits in the first slot; session 1
        # streams on and keeps its reservation points.
        cfg = star_config(Protocol.TELE, NetworkKind.TELE,
                          [(3, 5), (None, None)], n_slots=2)
        engine = Engine(cfg)
        engine.step()
        index = engine.pools.index
        assert engine.table.session.tolist() == [1]
        assert engine.table.length.tolist() == [3]
        assert engine.table.pool.tolist() == [
            index[2, "send"], index[0, "transit"], index[3, "receive"]]
        assert engine.paths == {0: (1, 0, 3), 1: (2, 0, 3)}
        assert run(cfg).paths == engine.paths

    def test_run_needs_an_engine_never_stepped(self):
        # run() steps every slot itself: after step(), or a second time,
        # it raises, naming the slot the engine is at.
        cfg = star_config(Protocol.TELE, NetworkKind.TELE, [(None, None)],
                          n_slots=2)
        engine = Engine(cfg)
        engine.step()
        with pytest.raises(RuntimeError, match="^slot 1: run"):
            engine.run()
        engine = Engine(cfg)
        engine.run()
        with pytest.raises(RuntimeError, match="^slot 2: run"):
            engine.run()

    def test_step_past_the_last_slot_is_an_error(self):
        engine = Engine(star_config(Protocol.TELE, NetworkKind.TELE,
                                    [(None, None)], n_slots=1))
        result = engine.run()
        with pytest.raises(RuntimeError, match="slot 1: the run has only 1 "
                                               "slots"):
            engine.step()
        assert len(result.session_rows) == 1

    def test_slot_count_allocates_nothing_up_front(self):
        # A trillion slots would need a 175 TiB pool matrix allocated in
        # advance; each step returns its slot's pool block instead.
        def config(n_slots):
            return RunConfig(
                seed=1, protocol=Protocol.TELE, network=NetworkKind.TELE,
                topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                    area_side=40.0),
                sessions=4, n_slots=n_slots)
        engine = Engine(config(10**12))
        pool_rows = [row for _ in range(3) for row in step_rows(engine)[1]]
        assert pool_rows == run(config(3)).pool_rows
        assert any(row.reserved for row in pool_rows)

    def test_zero_slots(self):
        cfg = star_config(Protocol.TELE, NetworkKind.TELE, [(None, None)],
                          n_slots=0)
        result = run(cfg)
        assert result.session_rows == []
        assert result.summary["delivered_total"] == 0

    def test_surplus_released_at_transfer(self):
        cfg = star_config(Protocol.TELE, NetworkKind.TELE, [(3, 5)], n_slots=1)
        result = run(cfg)
        egress_rows = [r for r in result.pool_rows
                       if r.pool == "receive" and r.reserved]
        assert egress_rows[0].reserved == 3  # not the granted 5

    def test_bottleneck_sawtooth_stays_bounded(self):
        cfg = star_config(
            Protocol.TELE, NetworkKind.TELE,
            [(None, None)] * 5, n_slots=120, ingress_capacity=3000,
            hub_capacity=3000, egress_capacity=300,
        )
        result = run(cfg)
        windows = [r.window for r in result.session_rows if r.slot >= 60]
        # Receive pool is 100 units; announced windows never blow past it.
        assert max(windows) <= 40
        assert min(windows) >= 8

    def test_staggered_admission(self):
        topology, egress = star_topology(2)
        cfg = RunConfig(
            seed=1, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology,
            sessions=[
                SessionSpec(src=1, dst=egress),
                SessionSpec(src=2, dst=egress, start_slot=3),
            ],
            n_slots=6,
        )
        result = run(cfg)
        first_slots = {}
        for row in result.session_rows:
            first_slots.setdefault(row.session, row.slot)
        assert first_slots == {0: 0, 1: 3}


class TestStepMemory:
    #: Bytes stepping may leave held after 800 slots beyond what it held
    #: after 200 when the caller drops every block: the engine keeps only
    #: its live state and the last slot's pool totals.  Keeping a block per
    #: slot held 0.8 MB (tele) and 1.5 MB (tag relay) more.
    GROWTH_BYTES = 2**16

    @pytest.mark.parametrize("protocol, network", [
        (Protocol.TELE, NetworkKind.TELE),
        (Protocol.TAG, NetworkKind.TAG_RELAY),
    ], ids=["tele", "tag_relay"])
    def test_held_memory_does_not_grow_with_the_slot_count(self, protocol,
                                                            network):
        held = []
        for n_slots in (200, 800):
            engine = Engine(RunConfig(
                seed=1, protocol=protocol, network=network,
                topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                    area_side=40.0),
                sessions=4, n_slots=n_slots))
            tracemalloc.start()
            try:
                for _ in range(n_slots):
                    engine.step()
                held.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        assert held[1] - held[0] < self.GROWTH_BYTES, held


class TestTagRuns:
    def test_single_hop_lossless_delivery(self):
        cfg = star_config(Protocol.TAG, NetworkKind.TAG_SWITCH,
                          [(None, None)], n_slots=30, p=1.0,
                          ingress_capacity=1300, egress_capacity=650)
        result = run(cfg)
        assert result.summary["delivered_total"] > 0
        # All sharings arrive: losses column stays zero.
        assert all(row.losses == 0 for row in result.session_rows)

    def test_relay_path_pipelines(self):
        cfg = star_config(Protocol.TAG, NetworkKind.TAG_RELAY,
                          [(5, None)], n_slots=60, p=1.0, hub_capacity=650,
                          ingress_capacity=650, egress_capacity=650)
        result = run(cfg)
        assert result.summary["delivered_total"] == 5
        hops = {row.hop for row in result.session_rows}
        assert hops == {0, 1}  # ingress->relay and relay->egress

    def test_lossy_channel_still_delivers(self):
        cfg = star_config(Protocol.TAG, NetworkKind.TAG_SWITCH,
                          [(4, None)], n_slots=200, p=0.5, seed=3,
                          ingress_capacity=650, egress_capacity=650)
        result = run(cfg)
        assert result.summary["delivered_total"] == 4
        assert any(row.losses for row in result.session_rows)

    def test_conservation_across_hops(self):
        cfg = star_config(Protocol.TAG, NetworkKind.TAG_RELAY,
                          [(None, None)] * 3, n_slots=50, p=1.0,
                          hub_capacity=650, ingress_capacity=650,
                          egress_capacity=650)
        result = run(cfg)
        last_hop = max(row.hop for row in result.session_rows)
        egress_delivered = sum(
            row.delivered for row in result.session_rows if row.hop == last_hop
        )
        assert egress_delivered == result.summary["delivered_total"]


def hop_pools(*pools):
    """A pool table of ``(node, kind, capacity)`` triples."""
    return PoolTable(MemoryPool(*pool) for pool in pools)


def held(pools, key):
    """The units ``pools`` holds at ``key``."""
    return int(pools.reserved[pools.index[key]])


def hop_points(pools, hops):
    """``(session, hop, sender, receiver)`` hops as ``FlowColumns`` rows at
    the points ``HopTable.admit`` gives them: the ``path_points`` of each
    sender and receiver at ``TAG_PRICES``, tied in (session, hop) order."""
    session, hop, sender, receiver = np.array(hops).T
    table = FlowColumns()
    table.admit((*path_points(pools, session, list(zip(sender, receiver)),
                              TAG_PRICES),
                 np.repeat(session * len(pools.keys) + hop, 2)),
                length=np.full(len(hops), 2))
    return table


def hop_grants(reserved):
    """``_reserve``'s grants and halved flags as pairs, in hop order."""
    granted, congested, _ = reserved
    return list(zip(granted.tolist(), congested.tolist()))


class TestReserveSharing:
    def test_fresh_hop_costs(self):
        # A window of 2 costs ceil(9*2/4) = 5 send units and 2 receive units.
        pools = hop_pools((0, "send", 100), (1, "receive", 100))
        points = hop_points(pools, [(0, 0, 0, 1)]).incidence()
        assert hop_grants(_reserve(pools, points, np.array([2]))) == [
            (2, False)]
        assert held(pools, (0, "send")) == 5
        assert held(pools, (1, "receive")) == 2

    def test_receive_reservation_floored_by_stored_firsts(self):
        # Stored first sharings cannot be evicted: a halved grant below the
        # backlog still reserves the backlog.  Three qubits await their
        # second sharing, so the receiver stores three firsts.
        floor = np.array([TAG_QUBIT_UNITS * 3, 3])
        pools = hop_pools((0, "send", 1000), (1, "receive", 10))
        points = hop_points(pools, [(0, 0, 0, 1)]).incidence(floor)
        assert hop_grants(_reserve(pools, points, np.array([14]))) == [
            (7, True)]
        assert held(pools, (1, "receive")) == 7  # max(grant, stored)

        # Window 4 against a 3-unit receive pool: the halved grant of 2
        # sits below the backlog, and the reservation stays at 3.
        pools = hop_pools((0, "send", 1000), (1, "receive", 3))
        points = hop_points(pools, [(0, 0, 0, 1)]).incidence(floor)
        assert hop_grants(_reserve(pools, points, np.array([4]))) == [
            (2, True)]
        assert held(pools, (1, "receive")) == 3

    def test_grants_in_hop_order(self):
        # Hops of sessions 7, 3 and 5 share receiver 4, whose 10 units
        # cannot hold all three windows: the largest, session 7's, is cut.
        pools = hop_pools((4, "receive", 10),
                          *((sender, "send", 100) for sender in range(3)))
        points = hop_points(pools, [(7, 0, 0, 4), (3, 0, 1, 4),
                                    (5, 0, 2, 4)]).incidence()
        assert hop_grants(_reserve(pools, points, np.array([8, 2, 4]))) == [
            (4, True), (2, False), (4, False)]
        # Each sender's pool holds its own hop's cost; receiver 4 holds
        # the sum of the three grants.
        assert [held(pools, (sender, "send")) for sender in range(3)] == [
            9, 5, 9]
        assert held(pools, (4, "receive")) == 4 + 2 + 4

    def test_equal_windows_cut_lower_session_then_hop_first(self):
        # Four hops of window 4 into a 14-unit receive pool: one cut frees
        # the 2 units needed, and (session 1, hop 0) is the lowest pair.
        # Hops 0 and 1 of session 1 share a receiver, which no path gives.
        pools = hop_pools((9, "receive", 14),
                          *((sender, "send", 100) for sender in range(4)))
        points = hop_points(pools, [(2, 0, 0, 9), (1, 1, 1, 9), (1, 0, 2, 9),
                                    (3, 0, 3, 9)]).incidence()
        assert hop_grants(_reserve(pools, points, np.full(4, 4))) == [
            (4, False), (4, False), (2, True), (4, False)]

    def test_stored_firsts_over_receive_pool_deadlock(self):
        # Four qubits await their second sharing: four firsts stored.
        pools = hop_pools((0, "send", 1000), (1, "receive", 3))
        points = hop_points(pools, [(0, 0, 0, 1)]).incidence(
            np.array([TAG_QUBIT_UNITS * 4, 4]))
        with pytest.raises(DeadlockError, match=(
                r"^stored sharings \(4\) exceed receive pool at node 1$")):
            _reserve(pools, points, np.array([2]))

    def test_deadlock_over_an_earlier_infeasible_send_pool(self):
        # Four qubits in flight need 12 send units of 10, and their four
        # stored firsts overfill the 3-unit receive pool: the deadlock is
        # reported, though the send pool comes first in key order.
        pools = hop_pools((0, "send", 10), (1, "receive", 3))
        points = hop_points(pools, [(0, 0, 0, 1)]).incidence(
            np.array([TAG_QUBIT_UNITS * 4, 4]))
        with pytest.raises(DeadlockError, match=(
                r"^stored sharings \(4\) exceed receive pool at node 1$")
                ) as info:
            _reserve(pools, points, np.array([2]))
        assert info.value.__cause__ is None
        assert pools.reserved.tolist() == [0, 0]

    def test_infeasible_send_pool_without_deadlock(self):
        # The same hop with room for its stored firsts: the send pool's
        # reservation error stands.
        pools = hop_pools((0, "send", 10), (1, "receive", 4))
        points = hop_points(pools, [(0, 0, 0, 1)]).incidence(
            np.array([TAG_QUBIT_UNITS * 4, 4]))
        with pytest.raises(InfeasibleReservationError, match=(
                r"^pool send@0: demand 12 exceeds capacity 10 after cutting "
                r"all$")):
            _reserve(pools, points, np.array([2]))

    def test_deadlock_names_the_first_receive_pool_in_node_order(self):
        # Each hop's receiver stores two firsts, one more than it holds.
        pools = hop_pools((0, "send", 1000), (5, "receive", 1),
                          (2, "receive", 1))
        points = hop_points(pools, [(5, 0, 0, 5), (2, 0, 0, 2)]).incidence(
            np.tile([TAG_QUBIT_UNITS * 2, 2], 2))
        with pytest.raises(DeadlockError, match="at node 2$"):
            _reserve(pools, points, np.array([2, 2]))


class TestReservationLifetime:
    @pytest.mark.parametrize("protocol, network, p", [
        (Protocol.TELE, NetworkKind.TELE, 1.0),
        (Protocol.EW, NetworkKind.TELE, 1.0),
        (Protocol.FRA, NetworkKind.TELE, 1.0),
        (Protocol.TAG, NetworkKind.TAG_RELAY, 0.7),
        (Protocol.TAG, NetworkKind.TAG_SWITCH, 0.7),
    ], ids=["tele", "ew", "fra", "tag_relay", "tag_switch"])
    def test_pools_empty_after_every_slot(self, protocol, network, p):
        # Reservations last one slot: the snapshot sees them, then every
        # pool is cleared, even while tell-and-go qubits are in flight.
        engine = Engine(RunConfig(
            seed=1, protocol=protocol, network=network,
            topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                area_side=40.0),
            sessions=4, n_slots=20, p=p,
        ))
        carried, pool_rows = 0, []
        for _ in range(engine.cfg.n_slots):
            pool_rows += step_rows(engine)[1]
            assert not engine.pools.reserved.any()
            if protocol is Protocol.TAG:
                hops = engine.table
                carried += int(hops.firsts.sum() + hops.seconds.sum()
                               + hops.stored.sum())
        assert any(row.reserved for row in pool_rows)
        assert protocol is not Protocol.TAG or carried > 0

    @pytest.mark.parametrize("protocol, network, p", [
        (Protocol.TELE, NetworkKind.TELE, 1.0),
        (Protocol.EW, NetworkKind.TELE, 1.0),
        (Protocol.FRA, NetworkKind.TELE, 1.0),
        (Protocol.TAG, NetworkKind.TAG_RELAY, 0.7),
        (Protocol.TAG, NetworkKind.TAG_SWITCH, 0.7),
    ], ids=["tele", "ew", "fra", "tag_relay", "tag_switch"])
    def test_pool_block_keeps_its_totals(self, protocol, network, p):
        """Slot 0's pool block holds the pool totals themselves, not a
        copy, and keeps its values while five more slots reserve, give
        back surplus, retire finished sessions and clear."""
        engine = Engine(RunConfig(
            seed=1, protocol=protocol, network=network,
            topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                area_side=40.0),
            sessions=[SessionSpec(qubits=qubits) for qubits in (None, 1, 3, 9)],
            n_slots=6, p=p,
        ))
        _, _, (_, _, reserved, _) = engine.step()
        kept = reserved.tolist()
        assert any(kept)
        for _ in range(5):
            engine.step()
        assert reserved.tolist() == kept

    @pytest.mark.parametrize("protocol, network", [
        (Protocol.TELE, NetworkKind.TELE),
        (Protocol.FRA, NetworkKind.TELE),
        (Protocol.TAG, NetworkKind.TAG_RELAY),
    ], ids=["tele", "fra", "tag_relay"])
    def test_load_table_is_each_nodes_reserved_fraction(self, protocol,
                                                        network):
        """After every slot, routing's load table holds, at each node's id,
        its pools' total over its capacity as Python divides them, capped at
        1, and exactly 0.0 at every node with nothing reserved; before the
        first slot it is all 0.0."""
        engine = Engine(RunConfig(
            seed=3, protocol=protocol, network=network,
            topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                area_side=40.0),
            sessions=6, n_slots=15, capacity=60,
        ))
        capacity = [node.capacity for node in engine.topology.nodes]
        assert engine._load == [0.0] * len(capacity)
        for _ in range(engine.cfg.n_slots):
            totals = [0] * len(capacity)
            for row in step_rows(engine)[1]:
                totals[row.node] += row.reserved
            expected = [min(1.0, total / capacity[node]) if total > 0 else 0.0
                        for node, total in enumerate(totals)]
            load = engine._load
            assert type(load) is list and load == expected
            assert all(type(value) is float for value in load)
            assert all(repr(value) == "0.0"
                       for value, total in zip(load, totals) if total == 0)
        assert any(0 < value < 1 for value in engine._load)
        assert 0.0 in engine._load

    def test_routing_reads_the_previous_slots_load(self, monkeypatch):
        """The load each admission is routed under is every node's reserved
        fraction in the previous slot's pool rows, indexed by node id, also
        for a session that starts after slots that admitted nothing; slot 0
        routes unloaded."""
        calls = []

        def recording(topology, src, dst, load, weight):
            calls.append((engine.slot, list(load)))
            return compute_path(topology, src, dst, load, weight)

        engine = Engine(RunConfig(
            seed=3, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                area_side=40.0),
            sessions=[SessionSpec(), SessionSpec(qubits=40), SessionSpec(),
                      SessionSpec(start_slot=6), SessionSpec(start_slot=6)],
            n_slots=10, capacity=60))
        monkeypatch.setattr("qdnsim.engine.compute_path", recording)
        result = engine.run()
        capacity = [node.capacity for node in engine.topology.nodes]

        def load_after(slot):
            totals = [0] * len(capacity)
            for row in result.pool_rows:
                if row.slot == slot:
                    totals[row.node] += row.reserved
            return [min(1.0, total / capacity[node]) if total > 0 else 0.0
                    for node, total in enumerate(totals)]

        assert [slot for slot, _ in calls] == [0, 0, 0, 6, 6]
        for slot, load in calls:
            assert load == load_after(slot - 1)
        assert calls[0][1] == [0.0] * len(capacity)
        assert any(0 < value < 1 for value in calls[-1][1])
        # The slot before differs from the ones before it: slow start grows
        # every window, so an older pool block would route differently.
        assert load_after(5) != load_after(4)


class TestDeterminism:
    def test_identical_configs_identical_traces(self):
        def make():
            return RunConfig(
                seed=42, protocol=Protocol.TELE, network=NetworkKind.TELE,
                topology=WaxmanSpec(n_infra=12, target_avg_degree=3.0,
                                    area_side=50.0),
                sessions=8, n_slots=40,
            )
        a, b = run(make()), run(make())
        assert a.session_rows == b.session_rows
        assert a.pool_rows == b.pool_rows
        assert a.summary == b.summary
        assert a.paths == b.paths

    def test_lossy_tag_reproducible(self):
        def make():
            return RunConfig(
                seed=5, protocol=Protocol.TAG, network=NetworkKind.TAG_SWITCH,
                topology=WaxmanSpec(n_infra=6, target_avg_degree=2.5,
                                    area_side=50.0),
                sessions=6, n_slots=40, p=0.7,
            )
        a, b = run(make()), run(make())
        assert a.session_rows == b.session_rows

    def test_golden_stream_draws(self):
        # First four draws of the labelled streams for seed 0, pinned so a
        # generator change cannot slip through silently.
        golden = {
            "topology": [0.26051903113007713, 0.49180452483356996,
                         0.5388924179906981, 0.6470327926957675],
            "channel": [0.5171470093506755, 0.3415725988204944,
                        0.7185285443633547, 0.4079235377164351],
            "sessions": [0.22380051828836645, 0.6680220405537353,
                         0.8010324261614021, 0.7699850866050014],
        }
        for label, expected in golden.items():
            g = stream(0, label)
            assert [g.random() for _ in range(4)] == expected

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
    def test_batched_draws_match_sequential_draws(self, seed, n):
        # The engine draws each hop's outcomes in one call; traces stay put
        # only while that equals one draw per sharing, in order.
        batched = stream(seed, CHANNEL_STREAM)
        sequential = stream(seed, CHANNEL_STREAM)
        assert batched.random(n).tolist() == [
            sequential.random() for _ in range(n)]
        assert batched.random() == sequential.random()
        hits = ChannelModel(0.7).successes(batched, np.array([[n]]))
        assert hits.tolist() == [[sum(sequential.random() < 0.7
                                      for _ in range(n))]]
        assert hits.dtype == np.int64

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_chunked_draws_equal_one_sliced_draw(self, seed):
        # The hop table draws a slot's outcomes in one call where the
        # per-hop loop drew once per hop, zero-length calls included.
        sizes = [3, 0, 5, 0, 0, 1, 17, 4, 0, 64, 2, 0]
        chunked = stream(seed, CHANNEL_STREAM)
        parts = [chunked.random(n).tolist() for n in sizes]
        one = stream(seed, CHANNEL_STREAM)
        whole = one.random(sum(sizes)).tolist()
        ends = list(accumulate(sizes))
        assert parts == [whole[end - n:end] for n, end in zip(sizes, ends)]
        assert repr(chunked.bit_generator.state) == repr(
            one.bit_generator.state)

    @pytest.mark.parametrize("network", [NetworkKind.TAG_RELAY,
                                         NetworkKind.TAG_SWITCH])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_channel_draws_nothing_in_a_run(self, p, network):
        engine = Engine(RunConfig(
            seed=3, protocol=Protocol.TAG, network=network,
            topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                area_side=40.0),
            sessions=5, n_slots=30, p=p,
        ))
        before = repr(engine._channel_rng.bit_generator.state)
        result = engine.run()
        assert sum(row.firsts + row.seconds for row in result.session_rows)
        assert repr(engine._channel_rng.bit_generator.state) == before


def scalar_schedule(cfg, hosts):
    """The start-slot schedule of ``cfg``'s sessions on ``hosts``, drawing
    each sampled session's two host indices with one scalar ``integers``
    call per index."""
    rng = stream(cfg.seed, SESSION_STREAM)
    requested = cfg.sessions
    if isinstance(requested, int):
        requested = [SessionSpec()] * requested
    schedule = {}
    for index, spec in enumerate(requested):
        if spec.src is None:
            i = int(rng.integers(len(hosts)))
            j = int(rng.integers(len(hosts) - 1))
            if j >= i:
                j += 1
            spec = replace(spec, src=hosts[i], dst=hosts[j])
        schedule.setdefault(spec.start_slot, []).append((index, spec))
    return schedule


class TestSessionSampling:
    MIXED = [
        SessionSpec(qubits=5, start_slot=2),
        SessionSpec(src=12, dst=15),
        SessionSpec(),
        SessionSpec(src=20, dst=13, qubits=0, start_slot=2),
        *(SessionSpec(start_slot=k % 4, initial_window=1 + k)
          for k in range(40)),
        SessionSpec(src=23, dst=12, start_slot=1),
        SessionSpec(qubits=7),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
    @pytest.mark.parametrize("sessions", [MIXED, 1, 300],
                             ids=["mixed", "one", "count"])
    def test_one_draw_equals_scalar_draws(self, seed, sessions):
        cfg = RunConfig(
            seed=seed, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=WaxmanSpec(n_infra=12), sessions=sessions, n_slots=1,
        )
        engine = Engine(cfg)
        hosts = [node.id for node in engine.topology.hosts()]
        assert hosts == list(range(12, 24))
        want = scalar_schedule(cfg, hosts)
        assert list(engine._schedule.items()) == list(want.items())


class TestConfigValidation:
    def test_tag_protocol_needs_tag_network(self):
        topology, egress = star_topology(1)
        cfg = RunConfig(
            seed=0, protocol=Protocol.TAG, network=NetworkKind.TELE,
            topology=topology, sessions=[SessionSpec(src=1, dst=egress)],
            n_slots=1,
        )
        with pytest.raises(ConfigError):
            run(cfg)

    def test_topology_network_mismatch(self):
        topology, egress = star_topology(1, network=NetworkKind.TAG_SWITCH)
        cfg = RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology, sessions=[SessionSpec(src=1, dst=egress)],
            n_slots=1,
        )
        with pytest.raises(ConfigError):
            run(cfg)

    def test_route_through_a_host_names_session_and_node(self):
        # Host 1 joins repeaters 0 and 2, so session 0's only route from
        # host 3 to host 4 runs through a node with no transit pool.
        kinds = [NodeKind.REPEATER, NodeKind.HOST, NodeKind.REPEATER,
                 NodeKind.HOST, NodeKind.HOST]
        topology = Topology(
            NetworkKind.TELE,
            [Node(i, kind, 0.0, 0.0, 100) for i, kind in enumerate(kinds)],
            [(0, 1), (1, 2), (0, 3), (2, 4)])
        cfg = RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology, sessions=[SessionSpec(src=3, dst=4)],
            n_slots=1,
        )
        with pytest.raises(ConfigError,
                           match="session 0: node 1 has no transit pool"):
            run(cfg)

    def test_bad_probability(self):
        cfg = star_config(Protocol.TELE, NetworkKind.TELE, [(None, None)], 1)
        cfg.p = 1.5
        with pytest.raises(ConfigError):
            run(cfg)

    def test_sampled_sessions_are_host_pairs(self):
        cfg = RunConfig(
            seed=9, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0,
                                area_side=40.0),
            sessions=20, n_slots=1,
        )
        result = run(cfg)
        assert len(result.paths) == 20
        for nodes in result.paths.values():
            assert nodes[0] != nodes[-1]
            assert nodes[0] >= 8 and nodes[-1] >= 8  # hosts sit above infra

    @pytest.mark.parametrize("sessions", [1, [SessionSpec()]])
    def test_sampling_needs_two_hosts(self, sessions):
        topology, _ = star_topology(0)
        cfg = RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology, sessions=sessions, n_slots=1,
        )
        with pytest.raises(ConfigError, match="two hosts"):
            run(cfg)

    @pytest.mark.parametrize("first, second, match", [
        (SessionSpec(), SessionSpec(src=999, dst=1), "two hosts"),
        (SessionSpec(src=999, dst=1), SessionSpec(), "session 0: endpoint 999"),
        (SessionSpec(dst=1), SessionSpec(), "session 0: name both"),
        (SessionSpec(src=1, dst=1), SessionSpec(), "session 0: src and dst"),
    ], ids=["sampled_first", "bad_endpoint_first", "dst_alone_first",
            "src_is_dst_first"])
    def test_first_failing_session_names_the_error(self, first, second, match):
        # The hub and one host: sampling fails only when a session samples,
        # so an earlier session's own error is raised first.
        topology, _ = star_topology(0)
        cfg = RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology, sessions=[first, second], n_slots=1,
        )
        with pytest.raises(ConfigError, match=match):
            Engine(cfg)

    @pytest.mark.parametrize("src", [999, 0])  # unknown node, repeater hub
    def test_explicit_endpoint_must_be_host(self, src):
        topology, egress = star_topology(1)
        cfg = RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology, n_slots=1,
            sessions=[SessionSpec(src=1, dst=egress),
                      SessionSpec(src=src, dst=egress)],
        )
        with pytest.raises(ConfigError, match="session 1"):
            run(cfg)

    @pytest.mark.parametrize("spec, match", [
        (SessionSpec(src=1), "session 1: name both src and dst"),
        (SessionSpec(dst=2), "session 1: name both src and dst"),
        (SessionSpec(src=2, dst=2, start_slot=3),
         "session 1: src and dst must differ"),
    ], ids=["src_alone", "dst_alone", "src_is_dst"])
    def test_endpoints_named_both_or_neither_and_distinct(self, spec, match):
        # Rejected when the engine is built, before any slot runs.
        topology, egress = star_topology(1)
        cfg = RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology, n_slots=5,
            sessions=[SessionSpec(src=1, dst=egress), spec],
        )
        with pytest.raises(ConfigError, match=match):
            Engine(cfg)

    @pytest.mark.parametrize("protocol, network, qubits, window, field", [
        (Protocol.TELE, NetworkKind.TELE, None, -4, "initial_window"),
        (Protocol.TELE, NetworkKind.TELE, None, 0, "initial_window"),
        (Protocol.TAG, NetworkKind.TAG_RELAY, -3, None, "qubits"),
    ])
    def test_listed_session_fields_in_range(self, protocol, network, qubits,
                                            window, field):
        cfg = star_config(protocol, network, [(10, None), (qubits, window)], 1)
        with pytest.raises(ConfigError, match=f"session 1: {field}"):
            run(cfg)

    def test_negative_start_slot_rejected(self):
        topology, egress = star_topology(1)
        cfg = RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=topology, n_slots=1,
            sessions=[SessionSpec(src=1, dst=egress),
                      SessionSpec(src=1, dst=egress, start_slot=-1)],
        )
        with pytest.raises(ConfigError, match="session 1: start_slot"):
            run(cfg)

    def test_infeasible_reservation_names_its_pool(self):
        # Three sessions cross a relay's 6-unit send pool; even halved to
        # window 1 each costs 3 units there.
        cfg = RunConfig(
            seed=1, protocol=Protocol.TAG, network=NetworkKind.TAG_RELAY,
            topology=WaxmanSpec(8, 3.0, 40.0), sessions=4, n_slots=1,
            capacity=10,
        )
        with pytest.raises(InfeasibleReservationError, match=r"send@\d+"):
            run(cfg)


def host_topology(n):
    """A tele topology of ``n`` unconnected hosts."""
    return Topology(NetworkKind.TELE,
                    [Node(i, NodeKind.HOST, 0.0, 0.0, 0) for i in range(n)], [])


class TestIntegerRange:
    """Pool totals are float64 sums, exact below 2**53: capacities and
    initial windows are bounded by MAX_UNITS, sessions by MAX_SESSIONS.
    Topologies are bounded by MAX_INFRA, for setup memory."""

    def base(self, **change):
        return replace(RunConfig(
            seed=0, protocol=Protocol.TELE, network=NetworkKind.TELE,
            topology=WaxmanSpec(8, 3.0, 40.0), sessions=4, n_slots=1),
            **change)

    @pytest.mark.parametrize("field, value, match", [
        ("capacity", lambda n: n, "capacity"),
        ("topology", lambda n: star_topology(1, egress_capacity=n)[0],
         "node 2: capacity"),
        ("sessions", lambda n: [SessionSpec(initial_window=n)],
         "session 0: initial_window"),
    ], ids=["capacity", "node_capacity", "initial_window"])
    def test_units_past_the_bound_rejected(self, field, value, match):
        self.base(**{field: value(MAX_UNITS)}).validate()
        with pytest.raises(ConfigError,
                           match=f"^{match} must be at most {MAX_UNITS}$"):
            self.base(**{field: value(MAX_UNITS + 1)}).validate()

    @pytest.mark.parametrize("field, value, match", [
        ("capacity", lambda n: n, "capacity"),
        ("topology", lambda n: star_topology(1, hub_capacity=n)[0],
         "node 0: capacity"),
    ], ids=["capacity", "repeater_capacity"])
    def test_negative_units_rejected(self, field, value, match):
        self.base(**{field: value(0)}).validate()
        with pytest.raises(ConfigError, match=f"^{match} must be non-negative$"):
            run(self.base(**{field: value(-4)}))

    @pytest.mark.parametrize("sessions", [
        lambda n: n, lambda n: [SessionSpec()] * n], ids=["count", "list"])
    def test_sessions_past_the_bound_rejected(self, sessions):
        self.base(sessions=sessions(MAX_SESSIONS)).validate()
        with pytest.raises(ConfigError, match=(
                f"^session count must be at most {MAX_SESSIONS}$")):
            self.base(sessions=sessions(MAX_SESSIONS + 1)).validate()

    @pytest.mark.parametrize("change, edge, message", [
        ({"n_slots": -1}, {"n_slots": 0}, "n_slots must be non-negative"),
        ({"capacity": -1}, {"capacity": 0}, "capacity must be non-negative"),
        ({"capacity": 2**29 + 1}, {"capacity": 2**29},
         "capacity must be at most 536870912"),
        ({"topology": WaxmanSpec(1)}, {"topology": WaxmanSpec(2)},
         "waxman: n_infra must be at least 2"),
        ({"topology": star_topology(1, hub_capacity=-1)[0]},
         {"topology": star_topology(1, hub_capacity=0)[0]},
         "node 0: capacity must be non-negative"),
        ({"topology": star_topology(1, hub_capacity=2**29 + 1)[0]},
         {"topology": star_topology(1, hub_capacity=2**29)[0]},
         "node 0: capacity must be at most 536870912"),
        ({"sessions": -1}, {"sessions": 0},
         "session count must be non-negative"),
        ({"sessions": 2**20 + 1}, {"sessions": 2**20},
         "session count must be at most 1048576"),
        ({"sessions": [SessionSpec(), SessionSpec(qubits=-1)]},
         {"sessions": [SessionSpec(), SessionSpec(qubits=0)]},
         "session 1: qubits must be non-negative"),
        ({"sessions": [SessionSpec(), SessionSpec(qubits=2**63)]},
         {"sessions": [SessionSpec(), SessionSpec(qubits=2**63 - 1)]},
         "session 1: qubits must be at most 9223372036854775807"),
        ({"sessions": [SessionSpec(), SessionSpec(initial_window=0)]},
         {"sessions": [SessionSpec(), SessionSpec(initial_window=1)]},
         "session 1: initial_window must be at least 1"),
        ({"sessions": [SessionSpec(), SessionSpec(initial_window=2**29 + 1)]},
         {"sessions": [SessionSpec(), SessionSpec(initial_window=2**29)]},
         "session 1: initial_window must be at most 536870912"),
        ({"sessions": [SessionSpec(), SessionSpec(start_slot=-1)]},
         {"sessions": [SessionSpec(), SessionSpec(start_slot=0)]},
         "session 1: start_slot must be non-negative"),
        ({"topology": WaxmanSpec(MAX_INFRA + 1)},
         {"topology": WaxmanSpec(MAX_INFRA)},
         "waxman: n_infra must be at most 4096"),
        ({"topology": host_topology(2 * MAX_INFRA + 1)},
         {"topology": host_topology(2 * MAX_INFRA)},
         "inline topology: node count must be at most 8192"),
    ])
    def test_every_bound_message(self, change, edge, message):
        # Each integer field's range, with the exact message for each
        # bound; the bound itself is inside the range.
        self.base(**edge).validate()
        with pytest.raises(ConfigError) as raised:
            self.base(**change).validate()
        assert str(raised.value) == message

    @pytest.mark.parametrize("protocol", [Protocol.TELE, Protocol.EW])
    def test_totals_exact_at_the_bound(self, protocol):
        # Two unbounded sessions grow their windows into pools of up to
        # MAX_UNITS: every slot, each pool holds exactly what its grants
        # cost, counted in Python ints.
        cfg = star_config(protocol, NetworkKind.TELE,
                          [(None, MAX_UNITS // 2**20)] * 2, n_slots=30,
                          hub_capacity=MAX_UNITS, ingress_capacity=MAX_UNITS,
                          egress_capacity=MAX_UNITS)
        result = run(cfg)
        for slot in range(cfg.n_slots):
            granted = [row.granted for row in result.session_rows
                       if row.slot == slot]
            held = {(row.node, row.pool): row.reserved
                    for row in result.pool_rows if row.slot == slot}
            assert held[(0, "transit")] == 2 * sum(granted)
            assert held[(3, "receive")] == sum(granted)
        assert max(row.granted for row in result.session_rows) > 2**26


# -- the run summary against the engine's old summary pass -----------------


def reference_summary(engine, session_rows):
    """The summary the engine computed from its own flow table before
    ``metrics.summarize`` took it over, kept frozen as the reference, of
    ``engine``'s run and its ``session_rows``."""
    per_session_windows = {}
    delivered = {}
    egress_hop = {
        sid: len(path) - 2 for sid, path in engine.paths.items()
        if engine.cfg.network is NetworkKind.TAG_RELAY
    }
    for row in session_rows:
        if row.hop == egress_hop.get(row.session, 0):
            delivered[row.session] = delivered.get(row.session, 0) + row.delivered
        slots = per_session_windows.setdefault(row.session, {})
        slots[row.slot] = min(slots.get(row.slot, row.window), row.window)

    sessions = {}
    means = []
    for sid, path in sorted(engine.paths.items()):
        windows = list(per_session_windows.get(sid, {}).values())
        mean = sum(windows) / len(windows) if windows else 0.0
        sessions[sid] = {
            "delivered": delivered.get(sid, 0),
            "mean_window": mean,
            "hops": len(path) - 1,
        }
        means.append(mean)

    total = sum(delivered.values())
    per_slot = total / engine.cfg.n_slots if engine.cfg.n_slots else 0.0
    fairness = None
    if means and any(m > 0 for m in means):
        fairness = metrics.jain(means)
    return {
        "delivered_total": total,
        "throughput_per_slot": per_slot,
        "throughput_per_time": per_slot / engine.cfg.slot_length,
        "jain_mean_window": fairness,
        "sessions": sessions,
    }


def _late_and_empty_sessions(protocol, network):
    """A session with no qubits (so no rows), a finite one, one admitted
    after the others and one never admitted (start_slot == n_slots)."""
    topology, egress = star_topology(3, network)
    return RunConfig(
        seed=2, protocol=protocol, network=network, topology=topology,
        n_slots=12, slot_length=2.5,
        sessions=[SessionSpec(src=1, dst=egress, qubits=0),
                  SessionSpec(src=2, dst=egress, qubits=40),
                  SessionSpec(src=3, dst=egress, start_slot=5),
                  SessionSpec(src=1, dst=egress, start_slot=12)],
    )


def _summary_cases():
    cases = {f"golden/{name}": make for name, make in GOLDEN_CONFIGS.items()}
    for run_ in get_preset("appendix_e").build([0]):
        cases[f"appendix_e/{run_.label}"] = lambda cfg=run_.config: cfg
    for protocol, network in [(Protocol.TELE, NetworkKind.TELE),
                              (Protocol.EW, NetworkKind.TELE),
                              (Protocol.TAG, NetworkKind.TAG_RELAY),
                              (Protocol.TAG, NetworkKind.TAG_SWITCH)]:
        cases[f"late_and_empty/{protocol.value}/{network.value}"] = (
            lambda p=protocol, n=network: _late_and_empty_sessions(p, n))
    # One hop session on a three-node path: the egress hop is hop 0.
    cases["tag_switch_star_lossy"] = lambda: star_config(
        Protocol.TAG, NetworkKind.TAG_SWITCH, [(30, None), (None, 2)],
        n_slots=15, seed=4, p=0.6)
    cases["no_slots"] = lambda: star_config(
        Protocol.TELE, NetworkKind.TELE, [(None, None)], n_slots=0)
    return cases


SUMMARY_CASES = _summary_cases()


@pytest.mark.parametrize("name", sorted(SUMMARY_CASES))
def test_summary_matches_frozen_reference(name):
    engine = Engine(SUMMARY_CASES[name]())
    result = engine.run()
    expected = reference_summary(engine, result.session_rows)
    # repr pins key order and every float bit for bit.
    assert repr(metrics.summarize(result)) == repr(expected)
    assert repr(result.summary) == repr(expected)


def test_summary_cases_reach_every_edge():
    """The cases above hold the edges the summary rules must get right."""
    late = run(SUMMARY_CASES["late_and_empty/tag/tag_relay"]())
    assert sorted(late.paths) == [0, 1, 2]
    assert 0 not in {row.session for row in late.session_rows}
    switch = run(SUMMARY_CASES["tag_switch_star_lossy"]())
    assert all(len(path) == 3 for path in switch.paths.values())
    assert {row.hop for row in switch.session_rows} == {0}
    assert run(SUMMARY_CASES["no_slots"]()).summary["jain_mean_window"] is None


@pytest.mark.parametrize("name", sorted(SUMMARY_CASES))
def test_stepped_blocks_are_the_run_trace(name, tmp_path):
    """The blocks successive ``step()`` calls return, wrapped as ``Rows``,
    are ``run()``'s session and pool rows, summarize to its summary, and
    ``cli.emit`` writes the same bytes from them; ``no_slots`` is a
    zero-slot run."""
    engine = Engine(SUMMARY_CASES[name]())
    blocks = [engine.step() for _ in range(engine.cfg.n_slots)]
    result = run(SUMMARY_CASES[name]())
    stepped = replace(
        result, paths=dict(sorted(engine.paths.items())),
        session_rows=Rows(SessionRow, [(slot, columns)
                                       for slot, columns, _ in blocks]),
        pool_rows=Rows(PoolRow, [(slot, columns)
                                 for slot, _, columns in blocks]),
        summary={})
    stepped.summary = metrics.summarize(stepped)
    assert stepped.session_rows == result.session_rows
    assert stepped.pool_rows == result.pool_rows
    assert repr(stepped.summary) == repr(result.summary)
    formats = ["tabular", "records"]
    written = [emit(each, tmp_path / label, "run", formats)
               for label, each in (("run", result), ("stepped", stepped))]
    assert [path.name for path in written[0]] == [
        path.name for path in written[1]]
    for ran, step in zip(*written):
        assert ran.read_bytes() == step.read_bytes(), ran.name


@pytest.mark.parametrize("name", ["golden/tele_staggered",
                                  "golden/tag_relay_staggered",
                                  "late_and_empty/tag/tag_relay"])
def test_flows_hold_only_live_sessions(name):
    """After every slot, the flow table holds the admitted sessions that
    have not delivered all their qubits, in admission order, and ``paths``
    every admitted session, one with no qubits included."""
    engine = Engine(SUMMARY_CASES[name]())
    specs = engine.cfg.sessions
    relay = engine.cfg.network is NetworkKind.TAG_RELAY
    admission = sorted(range(len(specs)), key=lambda sid: specs[sid].start_slot)
    delivered = dict.fromkeys(range(len(specs)), 0)
    retired = set()
    for slot in range(engine.cfg.n_slots):
        session_rows, _ = step_rows(engine)
        admitted = [sid for sid in admission if specs[sid].start_slot <= slot]
        assert sorted(engine.paths) == sorted(admitted)
        for row in session_rows:
            if row.hop == (len(engine.paths[row.session]) - 2 if relay else 0):
                delivered[row.session] += row.delivered
        live = [sid for sid in admitted if delivered[sid] != specs[sid].qubits]
        assert list(dict.fromkeys(engine.table.session.tolist())) == live
        retired.update(set(admitted) - set(live))
    assert retired  # each case retires at least one session



@pytest.mark.parametrize("name", ["golden/tele_staggered",
                                  "golden/tag_relay_staggered"])
def test_standing_points_match_a_per_slot_build(name):
    """After every slot, the points the flow table holds from admission
    on are those a per-slot build from its row columns gives: for tele, a
    session's points tied by its id with unit denominators and no floor;
    for tag, each hop's send then receive pool, at its sender and receiver
    on the session's path, at 9/4 and 1 units, tied in ``(session, hop)``
    order."""
    engine = Engine(SUMMARY_CASES[name]())
    table, checked = engine.table, 0
    for _ in range(engine.cfg.n_slots):
        engine.step()
        n = len(table.session)
        checked += n
        points = table.incidence()
        if engine.cfg.protocol is Protocol.TAG:
            rank = np.repeat(np.arange(n), 2)
            tie = np.repeat(table.session * (table.hop.max(initial=0) + 1)
                            + table.hop, 2)
            paths, index = engine.paths, engine.pools.index
            expected = Incidence(
                pool=np.array([
                    index[key] for sid, hop in zip(table.session.tolist(),
                                                   table.hop.tolist())
                    for key in ((paths[sid][hop], "send"),
                                (paths[sid][hop + 1], "receive"))]),
                rank=rank, tie=tie, num=np.tile([9, 1], n),
                den=np.tile([4, 1], n), floor=np.zeros(2 * n, dtype=np.int64))
        else:
            rank = np.repeat(np.arange(n), table.length)
            expected = Incidence(table.pool, rank, table.session[rank],
                                 table.num, np.ones_like(table.num),
                                 np.zeros_like(table.num))
        # Any tie ids in the same order cut the same points.
        order = [np.unique(tie, return_inverse=True)[1]
                 for tie in (points.tie, expected.tie)]
        assert order[0].tolist() == order[1].tolist()
        for field in ("pool", "rank", "num", "den", "floor"):
            assert (getattr(points, field).tolist()
                    == getattr(expected, field).tolist()), field
    assert checked


@pytest.mark.parametrize("protocol, network", [
    (Protocol.TELE, NetworkKind.TELE),
    (Protocol.TAG, NetworkKind.TAG_RELAY),
], ids=["tele", "tag_relay"])
def test_admitting_nothing_leaves_the_table_unchanged(protocol, network):
    """A slot that admits no session leaves every column of the flow table
    as it was, the very same arrays."""
    engine = Engine(RunConfig(
        seed=1, protocol=protocol, network=network,
        topology=WaxmanSpec(n_infra=8, target_avg_degree=3.0, area_side=40.0),
        sessions=4, n_slots=3))
    engine.step()
    before = dict(vars(engine.table))
    assert len(engine.table.session)
    engine.table.admit([])
    after = vars(engine.table)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
