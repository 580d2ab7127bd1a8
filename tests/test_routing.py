"""Load-balanced path computation, and its search diffed against the
frozen full-path search in ``oracle.routing``."""

import dataclasses
import hashlib
import random
from heapq import heappop, heappush
from pathlib import Path

import pytest

from oracle import routing as oracle
from qdnsim import routing
from qdnsim.engine import Protocol, RunConfig, SessionSpec, WaxmanSpec, run
from qdnsim.errors import GenerationError, NoRouteError
from qdnsim.routing import MAX_CONGESTION_WEIGHT, compute_path
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

    def test_graph_cannot_be_edited_under_its_caches(self):
        # Routing caches the adjacency, onward lists and hop distances on
        # the topology; an edge added after the first search would be
        # invisible to them, so the graph is stored as tuples and the
        # topology is frozen.
        topology, hosts = topology_with_hosts([(0, 1), (1, 2), (2, 3)], 4,
                                              [0, 3])
        assert hosts == {0: 4, 3: 5}
        assert compute_path(topology, 4, 5, {}).nodes == (4, 0, 1, 2, 3, 5)
        with pytest.raises(AttributeError):
            topology.edges.append((0, 3))
        with pytest.raises(AttributeError):
            topology.nodes.append(topology.nodes[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            topology.edges = topology.edges + ((0, 3),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            topology.nodes = topology.nodes[:-1]
        assert len(topology.nodes) == 6 and (0, 3) not in topology.edges
        assert compute_path(topology, 4, 5, {}).nodes == (4, 0, 1, 2, 3, 5)
        edited = Topology(topology.kind, topology.nodes,
                          [*topology.edges, (0, 3)])
        assert compute_path(edited, 4, 5, {}).nodes == (4, 0, 3, 5)

    @pytest.mark.parametrize("size", [0, 5, 7])
    def test_load_table_of_another_size_rejected(self, size):
        topology, hosts = diamond()
        with pytest.raises(ValueError, match=f"load has {size} entries for 6"):
            compute_path(topology, hosts[0], hosts[3], [0.0] * size)


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


def draws(index: int, weights=(0.0, 4.0)):
    """The case's topology and its calls: two load tables, each at every
    congestion weight of ``weights``, for every ordered pair of distinct
    nodes (non-host endpoints included), plus each node to itself."""
    topology = case(index)
    draw = random.Random(index)
    n = len(topology.nodes)
    for _ in range(2):
        load = {node: value for node in range(n)
                if (value := draw.choice(LOADS)) is not None}
        for weight in weights:
            for src in range(n):
                for dst in range(n):
                    yield topology, src, dst, load, weight


#: Weights the search is diffed at: none, the default, the largest a run
#: accepts, and one at which every case's costliest path reaches
#: ``_EXACT_COST``, so the search runs with no hop bound.
DIFF_WEIGHTS = (0.0, 4.0, MAX_CONGESTION_WEIGHT, 2.0 ** 52)


def dense(topology, load):
    """``load`` as the engine passes it: a value per node id, 0.0 where the
    mapping has none."""
    return [load.get(node, 0.0) for node in range(len(topology.nodes))]


@pytest.mark.parametrize("index", range(CASE_COUNT))
def test_search_matches_frozen_search(index):
    """Routed under the sparse load and under its dense table, the search
    returns the frozen search's path, or raises what it raises."""
    for topology, src, dst, load, weight in draws(index, DIFF_WEIGHTS):
        want = outcome(oracle.compute_path, topology, src, dst, load, weight)
        for table in (load, dense(topology, load)):
            got = outcome(compute_path, topology, src, dst, table, weight)
            assert got == want, (topology, src, dst, table, weight)


def test_diff_weights_reach_both_searches():
    """The hop bound is on at every diffed weight but the last, and off at
    the last, for every case."""
    for index in range(CASE_COUNT):
        n = len(case(index).nodes)
        costliest = [n * (1.0 + weight) for weight in DIFF_WEIGHTS]
        assert max(costliest[:-1]) < routing._EXACT_COST <= costliest[-1]


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


# Cases built to break an A* search: grids have many routes of equal hops,
# uniform and two-valued loads make their costs tie exactly, and loads
# whose sums round make costs that differ in the last place only.

#: Reserved fractions with no exact binary form.
ROUNDING_LOADS = (1 / 3, 1 / 7, 0.1, 0.7)
TIE_WEIGHTS = (0.0, 0.1, 1.0, 3.3, 4.0)
GRIDS = ((2, 2), (2, 5), (3, 3), (4, 4), (3, 6), (5, 5), (7, 7))


def grid(rows: int, cols: int) -> Topology:
    """A ``rows`` x ``cols`` grid of repeaters, with a host on each corner,
    on one middle cell and on one edge cell."""
    infra = rows * cols
    cells = sorted({0, cols - 1, infra - cols, infra - 1,
                    (rows // 2) * cols + cols // 2, cols // 2})
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    topology, _ = topology_with_hosts(edges, infra, cells)
    return topology


def tie_loads(topology: Topology, draw: random.Random):
    """No load; each rounding load on every node; 1/3 and 1/7 on
    alternate node ids; two drawn loads on drawn nodes; a rounding load
    drawn per node."""
    nodes = range(len(topology.nodes))
    yield {}
    for value in ROUNDING_LOADS:
        yield dict.fromkeys(nodes, value)
    yield {node: (1 / 3 if node % 2 else 1 / 7) for node in nodes}
    low, high = draw.sample(ROUNDING_LOADS, 2)
    yield {node: draw.choice((low, high)) for node in nodes}
    yield {node: draw.choice(ROUNDING_LOADS) for node in nodes}


@pytest.mark.parametrize("rows, cols", GRIDS)
def test_ties_match_frozen_search(rows, cols):
    topology = grid(rows, cols)
    hosts = [node.id for node in topology.hosts()]
    draw = random.Random(rows * 100 + cols)
    for load in tie_loads(topology, draw):
        for weight in TIE_WEIGHTS:
            for src in hosts:
                for dst in hosts:
                    if src == dst:
                        continue
                    got = compute_path(topology, src, dst, load, weight)
                    want = oracle.compute_path(topology, src, dst, load,
                                               weight)
                    assert got == want, (rows, cols, src, dst, load, weight)


@pytest.mark.parametrize("rows, cols", [(6, 2), (4, 5), (5, 5), (6, 6)])
def test_weights_past_the_bound_match_frozen_search(rows, cols):
    """A negative weight makes steps cheaper than a hop, and at weights
    near 2**52 path costs reach the floats a unit step no longer changes:
    no hop bound keeps entries in order, and the search must still return
    Dijkstra's path."""
    topology = grid(rows, cols)
    hosts = [node.id for node in topology.hosts()]
    draw = random.Random(rows * 100 + cols)
    for _ in range(8):
        load = {node: draw.choice((0.0, 1 / 3, 0.5, 1.0))
                for node in range(len(topology.nodes)) if draw.random() < 0.5}
        for weight in (-0.5, 2.0 ** 52, 2.0 ** 55):
            for src in hosts:
                for dst in hosts:
                    if src != dst:
                        got = compute_path(topology, src, dst, load, weight)
                        assert got == oracle.compute_path(
                            topology, src, dst, load, weight), (load, weight)


@pytest.mark.parametrize("topology", [grid(rows, cols) for rows, cols in GRIDS]
                         + [case(index) for index in range(CASE_COUNT)])
def test_hops_to_is_the_hop_distance(topology):
    """``hops_to(dst)`` is 0 at ``dst``, changes by at most 1 across an
    edge, and every other node it reaches has a neighbour one hop closer:
    so it is the breadth-first hop distance, -1 off ``dst``'s component."""
    adj = topology.adjacency()
    for dst in range(len(topology.nodes)):
        hops = topology.hops_to(dst)
        assert len(hops) == len(topology.nodes)
        assert hops[dst] == 0
        for u, v in topology.edges:
            assert hops[u] <= hops[v] + 1 and hops[v] <= hops[u] + 1
            assert (hops[u] < 0) == (hops[v] < 0)
        for node, distance in enumerate(hops):
            if distance > 0:
                assert any(hops[m] == distance - 1 for m in adj[node])
        reached = {node for node, distance in enumerate(hops) if distance >= 0}
        assert topology.hops_to(dst) is hops
        assert reached == _component(adj, dst)


def _component(adj, start):
    seen, stack = {start}, [start]
    while stack:
        for neighbour in adj[stack.pop()]:
            if neighbour not in seen:
                seen.add(neighbour)
                stack.append(neighbour)
    return seen


def test_tie_a_unit_bound_breaks():
    """A tie that a bound of exactly 1 per hop gets wrong.  At weight 1,
    routes 18-0-1-2 and 18-3-4-5 pay loads 1/3, 1/3, 0 and 1/3, 0, 1/3:
    costs one unit in the last place apart that round to the same cost at
    6, where Dijkstra keeps the lexicographically smaller route.  Node 6 is
    12 hops from host 19.  Under ``h = hops`` the cheaper route's entry
    for 6 keys ``fl(fl(x5 + 1) + 12)``, below node 2's ``fl(x2 + 13)``, so
    it pops before 2 and the search keeps the other route to 6."""
    chain = list(range(6, 18))
    nodes = [Node(i, NodeKind.REPEATER, 0.0, 0.0, 100) for i in range(18)]
    nodes += [Node(i, NodeKind.HOST, 0.0, 0.0, 100) for i in (18, 19)]
    edges = [(18, 0), (0, 1), (1, 2), (2, 6), (18, 3), (3, 4), (4, 5),
             (5, 6), *zip(chain, chain[1:]), (17, 19)]
    topology = Topology(NetworkKind.TELE, nodes, edges)
    load = {0: 1 / 3, 1: 1 / 3, 3: 1 / 3, 5: 1 / 3}
    step = 1.0 + 1 / 3
    x2, x5 = (step + step) + 1.0, (step + 1.0) + step
    assert x5 < x2 and x5 + 1.0 == x2 + 1.0
    assert (x5 + 1.0) + 12.0 < x2 + 13.0
    assert topology.hops_to(19)[6] == 12
    want = (18, 0, 1, 2) + tuple(chain) + (19,)
    assert oracle.compute_path(topology, 18, 19, load, 1.0).nodes == want
    assert compute_path(topology, 18, 19, load, 1.0).nodes == want


def test_smaller_prefix_reaching_a_node_second_wins(monkeypatch):
    """Routes 6-0-2 and 6-1-2 reach node 2 at equal cost and hops, and
    6-0-2-4-5-7 is Dijkstra's path.  Node 1 is two hops from host 7 and
    node 0 four, so 1 pops before 0 and pushes 2 first, under the larger
    prefix.  The search must keep the second push, which only ties the
    node's best ``g``."""
    nodes = [Node(i, NodeKind.REPEATER, 0.0, 0.0, 100) for i in range(6)]
    nodes += [Node(i, NodeKind.HOST, 0.0, 0.0, 100) for i in (6, 7)]
    edges = [(6, 0), (6, 1), (0, 2), (1, 2), (1, 3), (3, 7), (2, 4), (4, 5),
             (5, 7)]
    topology = Topology(NetworkKind.TELE, nodes, edges)
    # Node 3 is loaded, so the three-hop route 6-1-3-7 costs 7, more than
    # the 5 of the five-hop routes.
    load = {3: 1.0}
    assert [topology.hops_to(7)[node] for node in (0, 1, 2)] == [4, 2, 3]
    want = (6, 0, 2, 4, 5, 7)
    assert oracle.compute_path(topology, 6, 7, load, 4.0).nodes == want
    pushed = []

    def recording(heap, entry):
        if entry[-1] == 2:
            pushed.append(entry[1:4])
        heappush(heap, entry)

    monkeypatch.setattr(routing, "heappush", recording)
    for table in (load, dense(topology, load)):
        pushed.clear()
        assert compute_path(topology, 6, 7, table, 4.0).nodes == want
        assert pushed == [(2.0, 2, (6, 1)), (2.0, 2, (6, 0))]


#: SHA-256 of the ``(node, hops)`` of every entry the search pops over the
#: admissions of the ``tele_churn`` benchmark recipe cut to 200 sessions
#: (seed 1), pinned before pushes were cut at a fewest-hop path's cost;
#: the search then pushed 6,404 entries there, and now pushes 2,442.
POPS_SHA256 = (
    "6a8fd5b900dc992cf981556fb3f16330ab5df32786840c204e08eb705ed86301")
POPS, PUSHES = 2214, 2442


def test_push_bound_keeps_every_pop(monkeypatch):
    """The cut at ``U`` drops only entries that would never pop: over a
    fixed run's admissions, the popped sequence is the one pinned before
    the cut, and fewer entries are pushed."""
    popped, pushed = [], []

    def popping(heap):
        entry = heappop(heap)
        popped.append((entry[-1], entry[2]))
        return entry

    def pushing(heap, entry):
        pushed.append(entry[-1])
        heappush(heap, entry)

    monkeypatch.setattr(routing, "heappop", popping)
    monkeypatch.setattr(routing, "heappush", pushing)
    draw = random.Random(1)
    sessions = [SessionSpec(qubits=round(2 ** draw.uniform(5, 10)),
                            start_slot=draw.randint(0, 179))
                for _ in range(200)]
    run(RunConfig(seed=1, protocol=Protocol.TELE, network=NetworkKind.TELE,
                  topology=WaxmanSpec(n_infra=200, alpha=0.06),
                  sessions=sessions, n_slots=200))
    assert len(popped) == POPS
    assert hashlib.sha256(repr(popped).encode()).hexdigest() == POPS_SHA256
    assert len(pushed) <= PUSHES


@pytest.mark.parametrize("rows, cols", [(4, 5), (5, 5)])
def test_weights_below_minus_one_match_frozen_search(rows, cols):
    """Below weight -1 a loaded step costs less than 0, a fewest-hop path
    bounds no key, and the search must still return Dijkstra's path."""
    topology = grid(rows, cols)
    hosts = [node.id for node in topology.hosts()]
    draw = random.Random(rows * 10 + cols)
    for _ in range(6):
        load = {node: draw.choice((0.5, 1.0))
                for node in range(len(topology.nodes)) if draw.random() < 0.5}
        for weight in (-1.0, -1.5, -3.0):
            for src in hosts:
                for dst in hosts:
                    if src != dst:
                        got = compute_path(topology, src, dst, load, weight)
                        assert got == oracle.compute_path(
                            topology, src, dst, load, weight), (load, weight)
