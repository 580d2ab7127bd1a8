"""Slot loop: phase ordering, determinism, conservation."""

import pytest

from qdnsim.engine import (
    Protocol,
    RunConfig,
    SessionSpec,
    WaxmanSpec,
    run,
)
from qdnsim.errors import ConfigError, InfeasibleReservationError
from qdnsim.rng import stream
from qdnsim.topology import NetworkKind, Node, NodeKind, Topology


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


class TestReserveSharing:
    def test_fresh_hop_costs(self):
        # A window of 2 costs ceil(9*2/4) = 5 send units and 2 receive units.
        from qdnsim.engine import reserve_sharing
        from qdnsim.memory import MemoryPool
        from qdnsim.tag import HopSession

        pools = {(0, "send"): MemoryPool(0, "send", 100),
                 (1, "receive"): MemoryPool(1, "receive", 100)}
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, unminted=None)
        outcomes = reserve_sharing([hop], pools)
        assert outcomes[(0, 0)].window == 2
        assert pools[(0, "send")].held((0, 0)) == 5
        assert pools[(1, "receive")].held((0, 0)) == 2

    def test_receive_reservation_floored_by_stored_firsts(self):
        # Stored first sharings cannot be evicted: a halved grant below the
        # backlog still reserves the backlog.
        from qdnsim.engine import reserve_sharing
        from qdnsim.memory import MemoryPool
        from qdnsim.tag import HopSession, SharingTransfer, Stage

        pools = {(0, "send"): MemoryPool(0, "send", 1000),
                 (1, "receive"): MemoryPool(1, "receive", 10)}
        hop = HopSession(session=0, hop=0, sender=0, receiver=1, window=14,
                         unminted=None)
        for qubit in range(3):
            hop.in_flight[qubit] = SharingTransfer(qubit, 0, Stage.SECOND)
        outcomes = reserve_sharing([hop], pools)
        assert outcomes[(0, 0)].congested
        assert outcomes[(0, 0)].window == 7
        assert pools[(1, "receive")].held((0, 0)) == 7  # max(grant, stored)

        # Window 4 against a 3-unit receive pool: the halved grant of 2
        # sits below the backlog, and the reservation stays at 3.
        hop.window = 4
        pools = {(0, "send"): MemoryPool(0, "send", 1000),
                 (1, "receive"): MemoryPool(1, "receive", 3)}
        outcomes = reserve_sharing([hop], pools)
        assert outcomes[(0, 0)].window == 2
        assert pools[(1, "receive")].held((0, 0)) == 3


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
