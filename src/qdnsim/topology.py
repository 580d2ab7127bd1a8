"""Random network topologies with per-node quantum memory capacities.

Infrastructure nodes (repeaters, relays, or all-optical switches depending
on the network kind) are placed uniformly in a square and wired with the
Waxman model; the edge-density parameter is calibrated by bisection until
the realized average infrastructure degree matches a target.  One table of
infrastructure pairs, numpy columns of each pair's ends, draw, distance and
Waxman weight computed once, serves every bisection step (one array
comparison) and then the connectivity repair, which joins components along
the shortest pairs.  One union-find counts components, both there and in
``validate``.  One end host is attached to every infrastructure node so any
node can terminate a session.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GenerationError
from .rng import TOPOLOGY_STREAM, stream

DEFAULT_CAPACITY = 1000

#: Smallest Waxman alpha whose bisection bound, exp(1 / alpha), is finite.
MIN_ALPHA = 1 / math.log(sys.float_info.max)

#: Largest Waxman ``n_infra`` a run accepts; ``engine.RunConfig.validate``
#: derives it from the generation's peak memory.
MAX_INFRA = 4096

# Bisection stops early once the realized degree is this close to target,
# leaving headroom for connectivity-repair edges within the +-0.5 contract.
_CALIBRATION_SLACK = 0.25
_DEGREE_TOLERANCE = 0.5
_MAX_BISECTION_STEPS = 64

# Destinations per ``_hop_lists`` pass: one bit each of a uint64 word.
_BLOCK = 64


class NodeKind(Enum):
    REPEATER = "repeater"
    RELAY = "relay"
    SWITCH = "switch"
    HOST = "host"


class NetworkKind(Enum):
    """What the infrastructure nodes are and how their memory is split."""

    TELE = "tele"            # repeaters with transit memory
    TAG_RELAY = "tag_relay"  # trusted relays, hop-by-hop store and forward
    TAG_SWITCH = "tag_switch"  # all-optical switches, no memory


#: The infrastructure node kind each network is built from.
INFRA_KIND = {
    NetworkKind.TELE: NodeKind.REPEATER,
    NetworkKind.TAG_RELAY: NodeKind.RELAY,
    NetworkKind.TAG_SWITCH: NodeKind.SWITCH,
}


@dataclass(frozen=True)
class Node:
    id: int
    kind: NodeKind
    x: float
    y: float
    capacity: int


@dataclass(frozen=True)
class Topology:
    """A network graph, frozen.  ``nodes`` and ``edges`` are stored as
    tuples (edges as sorted ``(low, high)`` pairs, in sorted order): the
    adjacency, ``onward`` and ``hops_to`` tables are built from them on
    first use and cached for the topology's lifetime, the hop lists until
    ``drop_hops``.  ``hops_to`` fills its cache 64 hosts at a time, by one
    bit-parallel breadth-first search over a CSR copy of the adjacency
    (``_hop_lists``)."""

    kind: NetworkKind
    nodes: tuple[Node, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        edges = tuple(sorted(tuple(sorted(e)) for e in self.edges))
        for name, value in (("nodes", tuple(self.nodes)), ("edges", edges),
                            ("_adjacency", None), ("_onward", None),
                            ("_csr", None), ("_blocks", None),
                            ("_hops", {})):
            object.__setattr__(self, name, value)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def adjacency(self) -> dict[int, list[int]]:
        if self._adjacency is None:
            adj: dict[int, list[int]] = {n.id: [] for n in self.nodes}
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            for neighbours in adj.values():
                neighbours.sort()
            object.__setattr__(self, "_adjacency", adj)
        return self._adjacency

    def onward(self) -> list[tuple[int, ...]]:
        """Each node's neighbours of degree above 1, in adjacency order and
        indexed by node id: a path enters a node of degree 1 only to end
        there."""
        if self._onward is None:
            adj = self.adjacency()
            object.__setattr__(self, "_onward", [
                tuple(m for m in adj[n.id] if len(adj[m]) > 1)
                for n in self.nodes])
        return self._onward

    def hops_to(self, dst: int) -> list[int]:
        """Hop distance from every node to ``dst``, indexed by node id, and
        -1 where ``dst`` is unreachable; cached, so a later call returns
        the same list.  The hosts, in id order, fall into blocks of 64, and
        the first call for a host fills the cache for its whole block with
        one ``_hop_lists`` pass; any other node is a block of its own."""
        hops = self._hops.get(dst)
        if hops is None:
            if self._csr is None:
                self._index_blocks()
            block = self._blocks.get(dst, [dst])
            self._hops.update(zip(block, _hop_lists(*self._csr, block)))
            hops = self._hops[dst]
        return hops

    def drop_hops(self) -> None:
        """Free the ``hops_to`` cache; a later call builds its block anew."""
        self._hops.clear()

    def _index_blocks(self) -> None:
        """Build ``hops_to``'s CSR adjacency and its host blocks."""
        adj = self.adjacency()
        degree = np.array([len(adj[n.id]) for n in self.nodes], dtype=np.intp)
        neighbours = np.array([m for n in self.nodes for m in adj[n.id]],
                              dtype=np.intp)
        has = np.flatnonzero(degree)
        starts = (np.cumsum(degree) - degree)[has]
        hosts = [n.id for n in self.nodes if n.kind is NodeKind.HOST]
        blocks = [hosts[i:i + _BLOCK] for i in range(0, len(hosts), _BLOCK)]
        object.__setattr__(self, "_csr",
                           (len(self.nodes), has, starts, neighbours))
        object.__setattr__(self, "_blocks",
                           {host: block for block in blocks for host in block})

    def hosts(self) -> list[Node]:
        return [n for n in self.nodes if n.kind is NodeKind.HOST]

    def infra(self) -> list[Node]:
        return [n for n in self.nodes if n.kind is not NodeKind.HOST]


def _hop_lists(n: int, nodes: np.ndarray, starts: np.ndarray,
               neighbours: np.ndarray, sources: list[int]) -> list[list[int]]:
    """Hop distance from each of up to 64 distinct ``sources`` to all ``n``
    nodes, one list per source, -1 where unreachable.

    A multi-source bit-parallel breadth-first search (Then et al., PVLDB
    2014): bit ``i`` of a node's uint64 word stands for ``sources[i]``.  The
    graph is in CSR form: ``neighbours[starts[j]:starts[j + 1]]`` are the
    neighbours of ``nodes[j]``, the nodes of nonzero degree (``reduceat``
    would return an element, not 0, for an empty run).  Each level ORs the
    frontier words of every node's neighbours in one gather, and a node's
    new bits are those it has not seen.  The distances are kept bit-sliced
    (bit ``j`` of the distance to ``sources[i]`` is bit ``i`` of
    ``digits[j]``) and unpacked once at the end.
    """
    frontier = np.zeros(n, dtype=np.uint64)
    frontier[sources] = np.left_shift(np.uint64(1),
                                      np.arange(len(sources), dtype=np.uint64))
    seen = frontier.copy()
    digits: list[np.ndarray] = []
    level = 0
    while len(nodes) and frontier.any():
        level += 1
        reached = np.zeros(n, dtype=np.uint64)
        reached[nodes] = np.bitwise_or.reduceat(frontier[neighbours], starts)
        frontier = reached & ~seen
        seen |= frontier
        if level.bit_length() > len(digits):
            digits.append(np.zeros(n, dtype=np.uint64))
        for j, digit in enumerate(digits):
            if level >> j & 1:
                digit |= frontier
    k = len(sources)
    # No distance reaches ``n``: the narrowest type that holds -n keeps
    # this transient small.
    hops = np.zeros((k, n), dtype=np.min_scalar_type(-n))
    for j, digit in enumerate(digits):
        hops += _unpack(digit, k) * hops.dtype.type(1 << j)
    hops[_unpack(~seen, k).view(bool)] = -1
    return hops.tolist()


def _unpack(words: np.ndarray, k: int) -> np.ndarray:
    """The low ``k`` bits of uint64 ``words`` as 0/1 uint8 rows: row ``i``
    holds bit ``i`` of each word."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8).T
    return np.unpackbits(octets, axis=0, count=k, bitorder="little")


@dataclass(frozen=True)
class Diagnostics:
    connected: bool
    degree_histogram: dict[int, int]
    infra_capacity: int
    host_capacity: int
    average_infra_degree: float


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _join(n: int, edges) -> tuple[_UnionFind, int]:
    """Nodes ``0..n-1`` joined by ``edges``, and their component count."""
    uf = _UnionFind(n)
    return uf, n - sum(uf.union(u, v) for u, v in edges)


def _pair_table(x: np.ndarray, y: np.ndarray, first: np.ndarray,
                second: np.ndarray, alpha: float) -> tuple[np.ndarray, ...]:
    """Distance and Waxman weight of each pair ``(first, second)`` of the
    points ``(x, y)``, as float64 columns.

    The coordinate differences and the weights' exponents are numpy
    subtractions, negations and divisions, which round as Python's float
    operators do.  The distances and weights themselves are ``math.hypot``
    and ``math.exp`` of those doubles, one call per pair: ``np.hypot`` and
    ``np.exp`` may differ from them in the last place, and one such ulp can
    move an edge across its draw.
    """
    n = len(first)
    dist = np.fromiter(map(math.hypot, (x[first] - x[second]).tolist(),
                           (y[first] - y[second]).tolist()), float, n)
    d_max = dist.max()
    if d_max == 0:
        return dist, np.ones(n)
    return dist, np.fromiter(
        map(math.exp, (-dist / (alpha * d_max)).tolist()), float, n)


def _shortest_first(first: np.ndarray, second: np.ndarray,
                    dist: np.ndarray) -> np.ndarray:
    """Pair indices ordered by distance, then ``first``, then ``second``:
    the order ``sorted`` gives the ``(dist, first, second)`` tuples."""
    return np.lexsort((second, first, dist))


def generate_waxman(
    n_infra: int,
    target_avg_degree: float,
    area_side: float,
    alpha: float,
    seed: int,
    network: NetworkKind = NetworkKind.TELE,
    capacity: int = DEFAULT_CAPACITY,
) -> Topology:
    """Generate a connected topology; pure function of its arguments.

    Edge (u, v) appears with probability ``beta * exp(-d(u,v)/(alpha*d_max))``
    where beta is bisected until the average infrastructure degree lands
    within +-0.5 of ``target_avg_degree``.  Disconnected samples are repaired
    by adding the shortest candidate edges joining components, ties broken
    by the lower ends.  The pairs are numpy columns, but their doubles and
    repair order are those of a per-pair loop over ``(distance, i, j)``
    tuples (see ``_pair_table`` and ``_shortest_first``).
    """
    if n_infra < 2:
        raise ValueError(f"need at least 2 infrastructure nodes, got {n_infra}")
    if not MIN_ALPHA <= alpha <= 1:
        raise ValueError(f"alpha must be in [{MIN_ALPHA!r}, 1], got {alpha}")
    if not (0 < target_avg_degree < math.inf and 0 < area_side < math.inf):
        raise ValueError("target_avg_degree and area_side must be positive and finite")

    rng = stream(seed, TOPOLOGY_STREAM)
    x = rng.random(n_infra) * area_side
    y = rng.random(n_infra) * area_side
    # One row per infrastructure pair i < j, in ``triu_indices`` order;
    # only the draws above the diagonal are read.
    first, second = np.triu_indices(n_infra, 1)
    draws = rng.random((n_infra, n_infra))[first, second]
    dist, weights = _pair_table(x, y, first, second, alpha)

    # draw < min(1, beta * weight); every draw is below 1.
    def wired(beta: float) -> np.ndarray:
        return draws < beta * weights

    def avg_degree(beta: float) -> float:
        return 2.0 * int(np.count_nonzero(wired(beta))) / n_infra

    # Realized degree is a monotone step function of beta; bisect on it.
    beta_hi = math.exp(1.0 / alpha)
    degree = avg_degree(beta_hi)
    if degree < target_avg_degree - _DEGREE_TOLERANCE:
        raise GenerationError(
            f"cannot reach degree {target_avg_degree} with {n_infra} nodes"
        )
    best_beta, best_gap = beta_hi, abs(degree - target_avg_degree)
    # Halving beta from exp(1 / alpha), 64 steps reach none below about
    # 2**-64 of it, too dense a graph at a small alpha; only then bisect
    # again over log(beta), up from the smallest normal float.
    for lo, hi, beta in ((0.0, beta_hi, float),
                         (math.log(sys.float_info.min), 1.0 / alpha, math.exp)):
        for _ in range(_MAX_BISECTION_STEPS):
            if best_gap <= _CALIBRATION_SLACK:
                break
            mid = (lo + hi) / 2.0
            degree = avg_degree(beta(mid))
            gap = abs(degree - target_avg_degree)
            if gap < best_gap:
                best_beta, best_gap = beta(mid), gap
            if degree < target_avg_degree:
                lo = mid
            else:
                hi = mid
        if best_gap <= _DEGREE_TOLERANCE:
            break
    if best_gap > _DEGREE_TOLERANCE:
        raise GenerationError(
            f"degree calibration failed at n_infra {n_infra}, alpha {alpha}: "
            f"no beta tried came within {_DEGREE_TOLERANCE} of degree "
            f"{target_avg_degree}; the closest was {best_gap:.2f} away"
        )
    chosen = np.flatnonzero(wired(best_beta))
    edges = list(zip(first[chosen].tolist(), second[chosen].tolist()))

    # Repair connectivity with the shortest pairs joining distinct
    # components.  Only pairs across the components of the sample can ever
    # join two, so the others are dropped before the sort.
    uf, components = _join(n_infra, edges)
    if components > 1:
        root = np.array([uf.find(i) for i in range(n_infra)])
        cross = np.flatnonzero(root[first] != root[second])
        ends = first[cross], second[cross]
        order = _shortest_first(*ends, dist[cross])
        for i, j in zip(*(end[order].tolist() for end in ends)):
            if uf.union(i, j):
                edges.append((i, j))
                components -= 1
                if components == 1:
                    break

    # The repair added one edge per component past the first.
    degree = 2.0 * len(edges) / n_infra
    if abs(degree - target_avg_degree) > _DEGREE_TOLERANCE:
        raise GenerationError(
            "connectivity repair pushed degree out of range: joining "
            f"{len(edges) - len(chosen) + 1} components took the average "
            f"degree to {degree:.2f}, not within {_DEGREE_TOLERANCE} of "
            f"degree {target_avg_degree}")

    infra_kind = INFRA_KIND[network]
    infra_capacity = 0 if infra_kind is NodeKind.SWITCH else capacity
    xs, ys = x.tolist(), y.tolist()
    nodes = [
        Node(i, infra_kind, xs[i], ys[i], infra_capacity) for i in range(n_infra)
    ]
    # One host per infrastructure node, co-located, with the full capacity.
    for i in range(n_infra):
        host_id = n_infra + i
        nodes.append(Node(host_id, NodeKind.HOST, xs[i], ys[i], capacity))
        edges.append((i, host_id))

    return Topology(kind=network, nodes=nodes, edges=edges)


def validate(topology: Topology) -> Diagnostics:
    """Read-only diagnostics: connectivity, infra degree histogram, capacity."""
    # Node ids are dense from 0, so they index the union-find directly.
    _, components = _join(len(topology.nodes), topology.edges)
    adj = topology.adjacency()
    infra_ids = {n.id for n in topology.infra()}
    histogram: dict[int, int] = {}
    total = 0
    for node_id in sorted(infra_ids):
        degree = sum(1 for m in adj[node_id] if m in infra_ids)
        histogram[degree] = histogram.get(degree, 0) + 1
        total += degree
    average = total / len(infra_ids) if infra_ids else 0.0

    return Diagnostics(
        connected=components <= 1,
        degree_histogram=histogram,
        infra_capacity=sum(n.capacity for n in topology.infra()),
        host_capacity=sum(n.capacity for n in topology.hosts()),
        average_infra_degree=average,
    )


def to_document(topology: Topology) -> dict:
    """JSON-serializable form pinning an exact graph."""
    return {
        "kind": topology.kind.value,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind.value,
                "x": n.x,
                "y": n.y,
                "capacity": n.capacity,
            }
            for n in topology.nodes
        ],
        "edges": [list(e) for e in topology.edges],
    }


def number(value, kind: type, where: str):
    """``kind(value)``, or a ValueError that names ``where``.  Booleans are
    not numbers, and an int takes a float only with no fractional part."""
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a number, got {value}")
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from exc
    if kind is int and isinstance(value, float) and converted != value:
        raise ValueError(f"{where}: {value} is not an integer")
    return converted


def _node(index: int, d: dict) -> Node:
    """Document node ``index``.  Its id and capacity are whole ``number``s
    (``5.0`` and ``"5"`` read as 5), and the capacity is non-negative; its
    coordinates are finite float ``number``s."""
    node_id = number(d["id"], int, f"node {index}: id")
    kind = NodeKind(d["kind"])
    x, y = (number(d[axis], float, f"node {node_id}: {axis}") for axis in "xy")
    for axis, value in zip("xy", (x, y)):
        if not math.isfinite(value):
            raise ValueError(f"node {node_id}: {axis} must be finite, got {value}")
    where = f"node {node_id}: capacity"
    capacity = number(d["capacity"], int, where)
    if capacity < 0:
        raise ValueError(f"{where} must be non-negative, got {capacity}")
    return Node(node_id, kind, x, y, capacity)


def _edge(index: int, e) -> tuple[int, int]:
    """Document edge ``index``: a two-element list of whole node ids."""
    if not isinstance(e, list) or len(e) != 2:
        raise ValueError(f"edge {index}: expected a two-element list, got {e!r}")
    return tuple(number(end, int, f"edge {index}") for end in e)


def from_document(doc: dict) -> Topology:
    nodes = [_node(index, d) for index, d in enumerate(doc["nodes"])]
    nodes.sort(key=lambda n: n.id)
    if [n.id for n in nodes] != list(range(len(nodes))):
        raise ValueError("node ids must be dense from 0")
    edges = [_edge(index, e) for index, e in enumerate(doc["edges"])]
    ids = {n.id for n in nodes}
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if u not in ids or v not in ids:
            raise ValueError(f"edge ({u}, {v}) references unknown node")
    if len({tuple(sorted(e)) for e in edges}) != len(edges):
        raise ValueError("duplicate edges")
    for node in nodes:
        if node.kind is NodeKind.SWITCH and node.capacity != 0:
            raise ValueError(f"switch {node.id} must have zero capacity")
    topology = Topology(NetworkKind(doc["kind"]), nodes, edges)
    adj = topology.adjacency()
    for node in topology.hosts():
        if len(adj[node.id]) != 1:
            raise ValueError(f"host {node.id} must have degree exactly 1")
    return topology
