"""Waxman generation, validation, and serialization."""

import hashlib
import json
import math

import numpy as np
import pytest

import qdnsim.topology as topology_mod
from qdnsim.errors import GenerationError
from qdnsim.topology import (
    MIN_ALPHA,
    NetworkKind,
    Node,
    NodeKind,
    Topology,
    _pair_table,
    _shortest_first,
    from_document,
    generate_waxman,
    to_document,
    validate,
)


def bfs_connected(topology):
    # Independent connectivity check (not reusing validate's traversal).
    adj = {n.id: set() for n in topology.nodes}
    for u, v in topology.edges:
        adj[u].add(v)
        adj[v].add(u)
    start = topology.nodes[0].id
    seen, stack = {start}, [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(topology.nodes)


def infra_avg_degree(topology):
    infra = {n.id for n in topology.infra()}
    count = sum(1 for u, v in topology.edges if u in infra and v in infra)
    return 2 * count / len(infra)


def path_topology(n):
    nodes = [Node(i, NodeKind.REPEATER, float(i), 0.0, 100) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return Topology(NetworkKind.TELE, nodes, edges)


class TestGenerateWaxman:
    def test_reference_size_and_degree(self):
        topology = generate_waxman(50, 4.0, 100.0, 0.4, seed=7)
        assert len(topology.nodes) == 100  # 50 infra + 50 hosts
        assert len(topology.hosts()) == 50
        assert 3.5 <= infra_avg_degree(topology) <= 4.5
        assert bfs_connected(topology)

    def test_two_nodes_forced_edge(self):
        topology = generate_waxman(2, 1.0, 1.0, 1.0, seed=0)
        infra = {n.id for n in topology.infra()}
        infra_edges = [e for e in topology.edges if set(e) <= infra]
        assert infra_edges == [(0, 1)]

    def test_same_seed_same_edges(self):
        a = generate_waxman(30, 4.0, 100.0, 0.4, seed=11)
        b = generate_waxman(30, 4.0, 100.0, 0.4, seed=11)
        assert a.edges == b.edges
        assert [n.kind for n in a.nodes] == [n.kind for n in b.nodes]

    def test_different_seeds_differ(self):
        a = generate_waxman(30, 4.0, 100.0, 0.4, seed=1)
        b = generate_waxman(30, 4.0, 100.0, 0.4, seed=2)
        assert a.edges != b.edges

    def test_hundred_seeds_connected_and_calibrated(self):
        for seed in range(100):
            topology = generate_waxman(12, 3.0, 50.0, 0.4, seed=seed)
            assert bfs_connected(topology)
            assert abs(infra_avg_degree(topology) - 3.0) <= 0.5
            assert validate(topology).connected

    def test_switch_network_has_no_infra_memory(self):
        topology = generate_waxman(5, 2.0, 10.0, 0.4, seed=3,
                                   network=NetworkKind.TAG_SWITCH)
        assert all(n.capacity == 0 for n in topology.infra())
        assert all(n.capacity == 1000 for n in topology.hosts())

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            generate_waxman(1, 4.0, 100.0, 0.4, seed=0)

    @pytest.mark.parametrize("degree, side", [
        (4.0, float("nan")), (4.0, float("inf")),
        (float("nan"), 100.0), (float("inf"), 100.0)])
    def test_non_finite_degree_or_side_rejected(self, degree, side):
        with pytest.raises(ValueError, match="positive and finite"):
            generate_waxman(8, degree, side, 0.4, seed=1)

    @pytest.mark.parametrize("alpha", [0.0014, 0.001, 1e-300, 1e-310])
    def test_alpha_with_overflowing_ceiling_rejected(self, alpha):
        # exp(1 / alpha), the bisection's upper bound, is not finite.
        with pytest.raises(ValueError, match="alpha must be in"):
            generate_waxman(8, 3.0, 40.0, alpha, seed=1)

    def test_min_alpha_is_the_smallest_with_a_finite_ceiling(self):
        assert math.isfinite(math.exp(1 / MIN_ALPHA))
        with pytest.raises(OverflowError):
            math.exp(1 / math.nextafter(MIN_ALPHA, 0))

    def test_calibration_keeps_the_first_of_equal_gaps(self):
        # At alpha 0.01 the bisection's steps are coarser than the spacing
        # of some edges' thresholds, so degrees jump by two edges.  On this
        # seed it visits degree 22/7 and later 18/7, the same float gap
        # from the target 20/7 and above the calibration slack; the first
        # visited stays the best.
        gap = abs(2.0 * 11 / 7 - 20 / 7)
        assert gap == abs(2.0 * 9 / 7 - 20 / 7) > 0.25
        topology = generate_waxman(7, 20 / 7, 100.0, 0.01, seed=29)
        assert [edge for edge in topology.edges if max(edge) < 7] == [
            (0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4),
            (2, 6), (3, 5), (3, 6)]

    def test_failed_calibration_names_its_cause(self, monkeypatch):
        # Calibrated within the tolerance of degree 3, these samples fall
        # apart into components, and one repair edge per extra component
        # takes the degree past it.
        for args, components, degree in [((10, 0.015, 1), 3, "3.60"),
                                         ((50, MIN_ALPHA, 3), 8, "3.52")]:
            n_infra, alpha, seed = args
            with pytest.raises(GenerationError) as caught:
                generate_waxman(n_infra, 3.0, 100.0, alpha, seed)
            assert str(caught.value) == (
                "connectivity repair pushed degree out of range: joining "
                f"{components} components took the average degree to "
                f"{degree}, not within 0.5 of degree 3.0")
        # With no bisection step, only beta = exp(1 / alpha) is tried: at
        # alpha 0.01 it wires 50 nodes at average degree 49.
        monkeypatch.setattr(topology_mod, "_MAX_BISECTION_STEPS", 0)
        with pytest.raises(GenerationError) as caught:
            generate_waxman(50, 4.0, 100.0, 0.01, seed=1)
        assert str(caught.value) == (
            "degree calibration failed at n_infra 50, alpha 0.01: no beta "
            "tried came within 0.5 of degree 4.0; the closest was 45.00 away")

    @pytest.mark.parametrize("n_infra", [50, 200])
    def test_small_alpha_generates_or_names_an_unreachable_target(
            self, n_infra):
        # Halving beta from exp(1 / alpha) stops far above the betas that
        # wire a sparse graph below alpha 0.025; the bisection over
        # log(beta) reaches them.
        alphas = [MIN_ALPHA, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.0125,
                  0.015, 0.02, 0.025, 0.03, 0.04, 0.05]
        for alpha in alphas:
            for seed in (1, 2, 3):
                topology = generate_waxman(n_infra, 4.0, 100.0, alpha, seed)
                infra = [edge for edge in topology.edges
                         if max(edge) < n_infra]
                assert abs(2 * len(infra) / n_infra - 4.0) <= 0.5
                assert bfs_connected(topology)
            # A degree above n_infra - 1 is out of reach of every beta.
            with pytest.raises(GenerationError, match=(
                    f"^cannot reach degree {n_infra}.0 with {n_infra} "
                    f"nodes$")):
                generate_waxman(n_infra, float(n_infra), 100.0, alpha, 1)

    def test_hosts_have_degree_one(self):
        topology = generate_waxman(20, 4.0, 100.0, 0.4, seed=5)
        adj = topology.adjacency()
        for host in topology.hosts():
            assert len(adj[host.id]) == 1


# SHA-256 of each generated topology's sorted-key JSON document.  The n = 50
# and n = 200 cases have 3 and 5 components before connectivity repair, the
# switch case 2; the n = 12 tele case is connected without repair.
PINNED_TOPOLOGIES = [
    ((50, 4.0, 100.0, 0.06, 1, NetworkKind.TELE),
     "30d355c3b6ab32f9d9140892821a7ced8265c5d83407919574b9e50ccf741490"),
    ((200, 4.0, 100.0, 0.06, 1, NetworkKind.TELE),
     "b03e798f707538f76bda6568656aa277b7eea5c54098d1c439273266402e4c68"),
    ((12, 3.0, 50.0, 0.4, 11, NetworkKind.TELE),
     "b954e1260c7ef0c761b47f11ff46291912891b9e5a3708dd759aaeda14419f93"),
    ((12, 3.0, 50.0, 0.1, 3, NetworkKind.TAG_SWITCH),
     "01ec2a977dd3a2c40aba8e2d12b79727a476a581b13cbb6ee0acb8ee4d9e7ef9"),
    # The 200-node benchmark topology at another seed (28 bisection steps,
    # 8 components before repair) and as trusted relays (27 steps, 5).
    ((200, 4.0, 100.0, 0.06, 2, NetworkKind.TELE),
     "8df6f0625c378c1fbd1b7f3e258c00f8a15cdb0ebdd9c3d9f5a5765b3f4a472e"),
    ((200, 4.0, 100.0, 0.06, 1, NetworkKind.TAG_RELAY),
     "0f51450231da7983447b653786ef7dd5585f0254ff0281a78d71c44bd152fbbe"),
    # Alpha at MIN_ALPHA, where beta spans [0, 1.8e308]: 48 steps, and all
    # 64 without reaching the slack.
    ((10, 8.0, 50.0, MIN_ALPHA, 0, NetworkKind.TELE),
     "a29bd0829d46fcf6511c9ab5b5bcaa87324bf2306af7b480ec148af8e96c71f0"),
    ((6, 4.0, 50.0, MIN_ALPHA, 0, NetworkKind.TELE),
     "36e40f70dc6534c60c04a52e6fe88d8a5705035411ca95ed45ec766547bd2fbe"),
    # Repair joins 5 components after 14 steps.
    ((30, 2.0, 100.0, 0.1, 5, NetworkKind.TELE),
     "51dd73c119b6fb1bd9e2f65d9e4cac7ef57d975ac926f887e38ab874abf83542"),
    # Early stops: the complete graph at the ceiling takes no step, and
    # the switch case is within the slack after 3.
    ((8, 7.0, 10.0, 1.0, 2, NetworkKind.TELE),
     "e83e1896b6b91134580264400f65bd35da139ef15484eafefc7d349a0b4e2926"),
    ((10, 4.0, 30.0, 0.4, 6, NetworkKind.TAG_SWITCH),
     "3dab705ca00debcf5217f23e3c2b6afb68d22d5ccc907da596baefa96e3c4b7b"),
    # The benchmark recipe at 800 nodes: 18 and 21 components before repair.
    ((800, 4.0, 100.0, 0.06, 1, NetworkKind.TELE),
     "3ff3521b5b4ee54151698e24bacc680eee2c838266a7b7c9cc932c2164846e80"),
    ((800, 4.0, 100.0, 0.06, 2, NetworkKind.TELE),
     "37c8a9f0ba6a38c4a8756e0c4ca45374e5f342aa2e3bd928661e315dcd96c0c0"),
    # Alpha 0.01, where repair joins 2 components.
    ((9, 3.0, 100.0, 0.01, 7, NetworkKind.TELE),
     "8f468d572706743abe3652c7951a2dadeba5f9d3de0c1f357d3579df42b1a02d"),
]


@pytest.mark.parametrize("args, digest", PINNED_TOPOLOGIES)
def test_pinned_topology_digest(args, digest):
    n_infra, degree, side, alpha, seed, network = args
    topology = generate_waxman(n_infra, degree, side, alpha, seed=seed,
                               network=network)
    text = json.dumps(to_document(topology), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pair_table_is_math_hypot_and_math_exp_per_pair():
    # At n = 200 np.hypot differs from math.hypot on 112 of the 19,900
    # pairs and np.exp from math.exp on 920, so either one in their place
    # fails here.
    n, alpha = 200, 0.06
    infra = generate_waxman(n, 4.0, 100.0, alpha, seed=1).infra()
    x, y = (np.array([getattr(node, axis) for node in infra]) for axis in "xy")
    first, second = np.triu_indices(n, 1)
    dist, weight = _pair_table(x, y, first, second, alpha)
    pairs = [(math.hypot(infra[i].x - infra[j].x, infra[i].y - infra[j].y),
              i, j) for i in range(n) for j in range(i + 1, n)]
    d_max = max(d for d, _, _ in pairs)
    assert dist.tolist() == [d for d, _, _ in pairs]
    assert weight.tolist() == [math.exp(-d / (alpha * d_max))
                               for d, _, _ in pairs]
    order = _shortest_first(first, second, dist).tolist()
    assert [(dist[k], first[k], second[k]) for k in order] == sorted(pairs)



def test_repair_order_breaks_distance_ties_by_the_ends():
    # On a 5 x 5 grid most distances are shared by many pairs.
    n = 25
    x, y = np.arange(n) % 5 * 1.0, np.arange(n) // 5 * 1.0
    first, second = np.triu_indices(n, 1)
    dist, _ = _pair_table(x, y, first, second, 0.4)
    order = _shortest_first(first, second, dist).tolist()
    pairs = [(d, i, j) for d, i, j in zip(dist.tolist(), first.tolist(),
                                          second.tolist())]
    assert len(set(dist.tolist())) < len(pairs) // 10
    assert [pairs[k] for k in order] == sorted(pairs)


class TestValidate:
    def test_path_graph_histogram(self):
        # Three nodes, then the edge cases: one node, and no nodes at all.
        for n, histogram in [(3, {1: 2, 2: 1}), (1, {0: 1}), (0, {})]:
            diag = validate(path_topology(n))
            assert diag.connected
            assert diag.degree_histogram == histogram

    def test_disjoint_edges_not_connected(self):
        nodes = [Node(i, NodeKind.REPEATER, float(i), 0.0, 10) for i in range(4)]
        topology = Topology(NetworkKind.TELE, nodes, [(0, 1), (2, 3)])
        assert not validate(topology).connected
        # The same two components, read from an inline document.
        doc = {
            "kind": "tele",
            "nodes": [{"id": i, "kind": "repeater", "x": i, "y": 0, "capacity": 10}
                      for i in range(4)],
            "edges": [[2, 3], [0, 1]],
        }
        assert not validate(from_document(doc)).connected

    def test_capacity_totals(self):
        diag = validate(path_topology(3))
        assert diag.infra_capacity == 300
        assert diag.host_capacity == 0


class TestSerialization:
    def test_round_trip(self):
        topology = generate_waxman(10, 3.0, 20.0, 0.4, seed=9)
        text = json.dumps(to_document(topology), sort_keys=True)
        again = from_document(json.loads(text))
        assert again.edges == topology.edges
        assert again.nodes == topology.nodes
        assert json.dumps(to_document(again), sort_keys=True) == text

    def test_graph_is_stored_as_tuples_and_written_as_lists(self):
        topology = Topology(NetworkKind.TELE, list(path_topology(3).nodes),
                            [[2, 1], (0, 1)])
        assert topology.nodes == path_topology(3).nodes
        assert topology.edges == ((0, 1), (1, 2))
        doc = to_document(topology)
        assert doc["edges"] == [[0, 1], [1, 2]]
        assert isinstance(doc["nodes"], list)

    def test_rejects_duplicate_edges(self):
        doc = {
            "kind": "tele",
            "nodes": [
                {"id": 0, "kind": "repeater", "x": 0, "y": 0, "capacity": 1},
                {"id": 1, "kind": "repeater", "x": 1, "y": 0, "capacity": 1},
            ],
            "edges": [[0, 1], [1, 0]],
        }
        with pytest.raises(ValueError):
            from_document(json.loads(json.dumps(doc)))

    def test_rejects_host_with_extra_links(self):
        doc = {
            "kind": "tele",
            "nodes": [
                {"id": 0, "kind": "repeater", "x": 0, "y": 0, "capacity": 1},
                {"id": 1, "kind": "repeater", "x": 1, "y": 0, "capacity": 1},
                {"id": 2, "kind": "host", "x": 0, "y": 0, "capacity": 1},
            ],
            "edges": [[0, 1], [0, 2], [1, 2]],
        }
        with pytest.raises(ValueError):
            from_document(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("capacity", [True, 5.9, -5, "five", float("inf")])
    def test_rejects_bad_capacity(self, capacity):
        doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
        doc["nodes"][0]["capacity"] = capacity
        with pytest.raises(ValueError, match="node 0: capacity"):
            from_document(doc)

    @pytest.mark.parametrize("capacity", [5, 5.0, "5"])
    def test_whole_capacity_reads_as_int(self, capacity):
        doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
        doc["nodes"][0]["capacity"] = capacity
        node = from_document(doc).node(0)
        assert node.capacity == 5 and type(node.capacity) is int

    @pytest.mark.parametrize("node_id", [True, 0.5, "zero", None])
    def test_rejects_bad_node_id(self, node_id):
        doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
        doc["nodes"][0]["id"] = node_id
        with pytest.raises(ValueError, match="node 0: id"):
            from_document(doc)

    @pytest.mark.parametrize("end", [True, 1.5, "one", None])
    def test_rejects_bad_edge_endpoint(self, end):
        doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
        assert doc["edges"][0] == [0, 1]
        doc["edges"][0] = [0, end]
        with pytest.raises(ValueError, match="edge 0: "):
            from_document(doc)

    @pytest.mark.parametrize("edge", [[0, 1, 2], [0], [], "01", 0, None])
    def test_rejects_edge_not_a_pair(self, edge):
        doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
        doc["edges"][0] = edge
        with pytest.raises(ValueError, match="edge 0: expected a two-element list"):
            from_document(doc)

    @pytest.mark.parametrize("whole", [0.0, "0"])
    def test_bad_capacity_names_converted_id(self, whole):
        doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
        doc["nodes"][0].update(id=whole, capacity=-1)
        with pytest.raises(ValueError) as info:
            from_document(doc)
        assert str(info.value) == "node 0: capacity must be non-negative, got -1"

    @pytest.mark.parametrize("whole", [0.0, "0"])
    def test_whole_ids_read_as_int(self, whole):
        # Node 0's id and edge 0's first endpoint, written as whole floats
        # or strings, read as the int 0 and name the same node.
        doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
        doc["nodes"][0]["id"] = whole
        doc["edges"][0] = [whole, 1.0]
        topology = from_document(doc)
        assert topology.node(0).id == 0 and type(topology.node(0).id) is int
        assert topology.edges[0] == (0, 1)
        assert all(type(end) is int for end in topology.edges[0])
