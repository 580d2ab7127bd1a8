"""Load-balanced path computation."""

import pytest

from qdnsim.errors import NoRouteError
from qdnsim.routing import compute_path
from qdnsim.topology import NetworkKind, Node, NodeKind, Topology


def topology_with_hosts(infra_edges, n_infra, host_of):
    """Infra graph plus hosts attached to the given infra nodes."""
    nodes = [Node(i, NodeKind.REPEATER, float(i), 0.0, 100) for i in range(n_infra)]
    edges = list(infra_edges)
    hosts = {}
    for attach in host_of:
        host_id = len(nodes)
        nodes.append(Node(host_id, NodeKind.HOST, 0.0, 0.0, 100))
        edges.append((attach, host_id))
        hosts[attach] = host_id
    return Topology(NetworkKind.TELE, nodes, edges), hosts


def diamond():
    # Two equal-hop routes between infra 0 and 3: via 1 or via 2.
    return topology_with_hosts([(0, 1), (0, 2), (1, 3), (2, 3)], 4, [0, 3])


class TestComputePath:
    def test_zero_load_takes_fewest_hops(self):
        topology, hosts = topology_with_hosts(
            [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)], 5, [0, 2]
        )
        path = compute_path(topology, hosts[0], hosts[2], {})
        assert path.nodes == (hosts[0], 0, 1, 2, hosts[2])

    def test_loaded_node_avoided_on_equal_hops(self):
        topology, hosts = diamond()
        # Cost via node 1: 1 + (1 + 4*1.0) + 1 + 1 = 8; via node 2: 4.
        path = compute_path(topology, hosts[0], hosts[3], {1: 1.0})
        assert path.nodes == (hosts[0], 0, 2, 3, hosts[3])

    def test_tie_broken_lexicographically(self):
        topology, hosts = diamond()
        path = compute_path(topology, hosts[0], hosts[3], {})
        assert path.nodes == (hosts[0], 0, 1, 3, hosts[3])

    def test_same_endpoints_rejected(self):
        topology, hosts = diamond()
        with pytest.raises(ValueError):
            compute_path(topology, hosts[0], hosts[0], {})

    def test_non_host_endpoint_rejected(self):
        topology, hosts = diamond()
        with pytest.raises(ValueError):
            compute_path(topology, 0, hosts[3], {})

    def test_unreachable_destination(self):
        nodes = [
            Node(0, NodeKind.REPEATER, 0.0, 0.0, 10),
            Node(1, NodeKind.REPEATER, 1.0, 0.0, 10),
            Node(2, NodeKind.HOST, 0.0, 0.0, 10),
            Node(3, NodeKind.HOST, 1.0, 0.0, 10),
        ]
        topology = Topology(NetworkKind.TELE, nodes, [(0, 2), (1, 3)])
        with pytest.raises(NoRouteError):
            compute_path(topology, 2, 3, {})

    def test_determinism(self):
        topology, hosts = diamond()
        load = {1: 0.25, 2: 0.125}
        first = compute_path(topology, hosts[0], hosts[3], load)
        second = compute_path(topology, hosts[0], hosts[3], dict(load))
        assert first == second

    def test_longer_detour_when_penalty_exceeds_a_hop(self):
        # 0-1-3 (short, node 1 overloaded) vs 0-2-4-3 (one hop longer).
        topology, hosts = topology_with_hosts(
            [(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)], 5, [0, 3]
        )
        detour = compute_path(topology, hosts[0], hosts[3], {1: 0.5})
        assert detour.nodes == (hosts[0], 0, 2, 4, 3, hosts[3])
        short = compute_path(topology, hosts[0], hosts[3], {1: 0.2})
        assert short.nodes == (hosts[0], 0, 1, 3, hosts[3])
