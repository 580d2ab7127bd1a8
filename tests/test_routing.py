"""Load-balanced path computation, and its search diffed against the
frozen full-path search in ``oracle.routing``."""

import hashlib
import random
from pathlib import Path

import pytest

from oracle import routing as oracle
from qdnsim.errors import GenerationError, NoRouteError
from qdnsim.routing import compute_path
from qdnsim.topology import (NetworkKind, Node, NodeKind, Topology,
                             generate_waxman)


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


class TestEndpoints:
    @pytest.mark.parametrize("src, dst", [(-1, 4), (4, -2), (4, 99), (99, 4),
                                          (-1, -2)])
    def test_out_of_range_endpoint_rejected(self, src, dst):
        topology, hosts = diamond()
        assert sorted(hosts.values()) == [4, 5]
        with pytest.raises(ValueError, match="is not a host"):
            compute_path(topology, src, dst, {})


#: SHA-256 of ``oracle/routing.py``.  The oracle is the one reference the
#: search is diffed against, so an edit to it must also change this pin.
ORACLE_SHA256 = (
    "609867f13e1adf8f653a9d0b8a470156a4f59b50e0467b561893f1015ec6dcdd")

GENERATOR_SEED = 23
CASE_COUNT = 60

#: Reserved fractions drawn per node; few distinct values force cost ties.
LOADS = (None, 0.0, 0.25, 0.5, 1.0)


def test_oracle_is_frozen():
    source = Path(oracle.__file__).read_bytes()
    assert hashlib.sha256(source).hexdigest() == ORACLE_SHA256


def hand_built(draw: random.Random) -> Topology:
    """Up to 12 nodes, each a host or a repeater, wired pair by pair: hosts
    of any degree, linked hosts, infrastructure leaves, lone nodes and
    disconnected parts all occur."""
    n = draw.randint(2, 12)
    kinds = [draw.choice([NodeKind.HOST, NodeKind.REPEATER]) for _ in range(n)]
    kinds[:2] = [NodeKind.HOST, NodeKind.HOST]
    draw.shuffle(kinds)
    density = draw.choice([0.15, 0.3, 0.6])
    nodes = [Node(i, kind, 0.0, 0.0, 10) for i, kind in enumerate(kinds)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if draw.random() < density]
    return Topology(NetworkKind.TELE, nodes, edges)


def case(index: int) -> Topology:
    """Even cases are small Waxman topologies, odd ones hand-built."""
    draw = random.Random(GENERATOR_SEED * 1000 + index)
    if index % 2:
        return hand_built(draw)
    while True:
        try:
            return generate_waxman(
                draw.randint(4, 12), draw.choice([1.5, 2.0, 3.0]), 40.0,
                draw.choice([0.1, 0.4]), seed=draw.randint(0, 10**6))
        except GenerationError:  # an unreachable degree; draw again
            continue


def outcome(search, topology, src, dst, load, weight):
    """The path's nodes, or the type and text of what the search raised."""
    try:
        return search(topology, src, dst, load, weight).nodes
    except (ValueError, NoRouteError) as error:
        return type(error), str(error)


def draws(index: int):
    """The case's topology and its calls: two load tables, each at
    congestion weights 0 and 4, for every ordered pair of distinct nodes
    (non-host endpoints included), plus each node to itself."""
    topology = case(index)
    draw = random.Random(index)
    n = len(topology.nodes)
    for _ in range(2):
        load = {node: value for node in range(n)
                if (value := draw.choice(LOADS)) is not None}
        for weight in (0.0, 4.0):
            for src in range(n):
                for dst in range(n):
                    yield topology, src, dst, load, weight


@pytest.mark.parametrize("index", range(CASE_COUNT))
def test_search_matches_frozen_search(index):
    for topology, src, dst, load, weight in draws(index):
        got = outcome(compute_path, topology, src, dst, load, weight)
        want = outcome(oracle.compute_path, topology, src, dst, load, weight)
        assert got == want, (topology, src, dst, load, weight)


def test_generator_reaches_every_case():
    """The cases reach what a search rewrite is likely to get wrong: equal
    cost routes, unreachable hosts, rejected endpoints, infrastructure
    leaves, destinations of degree above 1 and directly linked hosts."""
    seen = dict.fromkeys(["path", "tie", "no_route", "rejected", "leaf",
                          "wide_dst", "host_link"], 0)
    for index in range(CASE_COUNT):
        topology = case(index)
        adj = topology.adjacency()
        host = [node.kind is NodeKind.HOST for node in topology.nodes]
        reversed_adj = {node: neighbours[::-1]
                        for node, neighbours in adj.items()}
        seen["leaf"] += any(len(adj[node]) == 1 and not host[node]
                            for node in adj)
        seen["host_link"] += any(host[u] and host[v]
                                 for u, v in topology.edges)
        for topology, src, dst, load, weight in draws(index):
            result = outcome(oracle.compute_path, topology, src, dst, load,
                             weight)
            if isinstance(result[0], type):
                seen["no_route" if result[0] is NoRouteError
                     else "rejected"] += 1
                continue
            seen["path"] += 1
            seen["wide_dst"] += len(adj[dst]) > 1
            # A second route of equal cost and hops: the tie-break decided.
            costs = {node: 1.0 + weight * load.get(node, 0.0)
                     for node in adj}
            cost = 0.0
            for node in result[1:]:
                cost += costs[node]
            other = _first_found(reversed_adj, costs, src, dst)
            assert other[:2] == (cost, len(result) - 1)
            seen["tie"] += other[2] != result
    assert min(seen.values()) > 0, seen


def _first_found(adj, costs, src, dst):
    """A least (cost, hops) route, as ``(cost, hops, nodes)``, found by a
    search that keeps the first such route to reach each node in ``adj``'s
    order, with no tie-break."""
    best = {src: (0.0, 0, (src,))}
    frontier = [src]
    while frontier:
        current = min(frontier, key=lambda node: best[node][:2])
        frontier.remove(current)
        cost, hops, nodes = best[current]
        for neighbour in adj[current]:
            entry = (cost + costs[neighbour], hops + 1, nodes + (neighbour,))
            if neighbour not in best or entry[:2] < best[neighbour][:2]:
                if neighbour not in best:
                    frontier.append(neighbour)
                best[neighbour] = entry
    return best[dst]
