"""Load-balanced shortest-path routing.

Paths are fixed at session admission: each hop costs 1 plus a congestion
penalty proportional to the reserved fraction of the hop's downstream
node, so new sessions drift around already-loaded nodes.  Ties are broken
by hop count, then by lexicographically smallest node sequence, which
makes the choice deterministic.

The search is A* (Hart, Nilsson & Raphael 1968) under the hop-distance
bound ``h(v) = c * hops(v, dst)`` with ``c = 1 - 2**-10``: every hop costs
at least 1, so no path from ``v`` costs less.  ``Topology.hops_to`` finds
the hop distances by one bit-parallel breadth-first search per block of
64 hosts and caches them on the topology, so a run walks its graph once
for every 64 destinations.  ``compute_path`` argues why A* returns the
very path that Dijkstra's search under the same tie-break returns.

The load is read as a dense table, one reserved fraction per node id,
which is how the engine builds it; a mapping (or ``None``, no load) is
expanded to that table once per call.  A step is pushed only if it can
still be a node's first pop before ``dst``'s: its cost so far is no worse
than the least pushed for its node, and its key no worse than the cost of
one fewest-hop path, walked down the hop distances before the search.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import NoRouteError
from .topology import NodeKind, Topology

DEFAULT_CONGESTION_WEIGHT = 4.0

#: ``c`` of the bound ``c * hops``.  It has 10 significant bits, so
#: ``c * hops`` is exact, and it leaves each hop a margin of ``2**-10``
#: over the rounding of a path cost below ``_EXACT_COST``.
_HOP_COST = 1.0 - 2.0 ** -10
#: Floats below this are at most ``2**-11`` apart.
_EXACT_COST = 2.0 ** 42
#: Largest congestion weight a run accepts: under it, every path of a
#: topology of fewer than ``2**21`` nodes costs less than ``_EXACT_COST``.
MAX_CONGESTION_WEIGHT = 2 ** 20
#: ``best`` of a popped node: no step cost pushes it again.
_DONE = -math.inf


@dataclass(frozen=True)
class Path:
    nodes: tuple[int, ...]

    @property
    def src(self) -> int:
        return self.nodes[0]

    @property
    def dst(self) -> int:
        return self.nodes[-1]


def compute_path(
    topology: Topology,
    src: int,
    dst: int,
    load: Sequence[float] | Mapping[int, float] | None = None,
    congestion_weight: float = DEFAULT_CONGESTION_WEIGHT,
) -> Path:
    """Minimal-cost path under edge cost 1 + weight * load(downstream node).

    The path is the one Dijkstra's search returns when it pops entries in
    the order ``(g, hops, prefix, node)``: cost so far, hops so far, and the
    path before ``node``, which is built only when the node is first
    popped (equal hops mean equal prefix lengths, so entries order as
    whole sequences would).  This search pops the same entries by
    ``(g + h(node), g, hops, prefix, node)``, where ``g`` is summed step by
    step exactly as there and ``h = c * hops_to(dst)``.  Two facts make it
    return Dijkstra's path:

    - Entries for one node share ``h(node)``, and rounding is monotone, so
      they order among themselves as Dijkstra orders them.
    - Along every push from ``u`` to a neighbour ``v`` the key grows.  The
      step ``s = 1.0 + weight * load`` is at least 1, and ``g' = g + s``
      rounds by at most half a unit in the last place, at most ``2**-12``
      below ``_EXACT_COST``, so ``g' - g >= 1 - 2**-12 > c``.  Hop
      distances differ by at most 1 across an edge, so
      ``h(u) - h(v) <= c`` exactly.  Hence ``g' + h(v) > g + h(u)`` as real
      numbers, their rounded sums keep that order or tie, and ``g' > g``
      breaks the tie.

    So pops come in key order.  By induction over the pops, each node's
    first popped entry, ``dst``'s included, is the one Dijkstra pops for
    it.  It is no better: it extends Dijkstra's entry for a node popped
    before, and Dijkstra's entry is the least such extension.  It is no
    worse: until Dijkstra's entry for the node pops, the first node on
    Dijkstra's path to it that is still open has its Dijkstra entry in the
    heap, and keys grow from there along the path, so the popped entry
    keys no higher than Dijkstra's entry for the node.

    An entry is pushed only if its ``g`` is at most ``best[node]``, the
    least ``g`` pushed for the node so far, and ``best`` of a popped node
    is ``-inf``, which no entry is pushed under.  No first pop is lost:
    the entry holding ``best[node]`` is still in the heap and has the same
    ``h``, so its key is no larger, and a tie on key is broken by the
    smaller ``g``.  A dropped entry would pop after it and find the node
    done, so the search expands what it would expand without the cut.
    Entries of equal ``g`` are all kept: hops and prefix decide between
    them.

    Nor is an entry pushed whose key exceeds ``U``, the cost of one
    fewest-hop path (from ``src``, the first adjacency neighbour one hop
    closer to ``dst``, each time) summed step by step as ``g`` is; its
    ``best`` is not lowered.  Rounded addition is monotone, so Dijkstra's
    ``g`` at ``dst``, the least such sum over all paths, is at most ``U``,
    and it is ``dst``'s key.  Keys pop in non-decreasing order, so a
    dropped entry would pop after ``dst``.  A later entry for its node
    that the cut on ``best`` would then have dropped, one of no smaller
    ``g``, keys no lower and is dropped here too.  The bound needs only
    steps of at least 0, so with loads in [0, 1] it holds under ``c = 0``
    as well, for finite weights from -1 up; at any other weight it is off.

    With ``c = 1`` the argument fails: ``g + s`` can round below ``g + 1``
    where the sum crosses a power of two, and then ``g' + h(v)`` can fall
    below ``g + h(u)`` and a worse entry can pop first.

    The argument needs every step to cost at least 1 and every path less
    than ``_EXACT_COST``.  That holds for loads in [0, 1], which the
    engine's reserved fractions are, and a weight from 0 up to about
    ``2**42`` over the node count.  For any other weight ``c`` is 0, and
    the search is Dijkstra's own.

    A node that cannot reach ``dst`` is never pushed: if ``src`` cannot,
    ``NoRouteError`` is raised at once, and otherwise nothing reached from
    ``src`` is cut off from ``dst``.  A node of degree 1 other than ``dst``
    is never pushed either (``Topology.onward``): its one neighbour is
    done, so popping it would push nothing.

    ``load`` is a sequence indexed by node id, or a mapping from node id
    to load, where a node it lacks has load 0.0; ``None`` is no load.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    n = len(topology.nodes)
    for endpoint in (src, dst):
        if not (0 <= endpoint < n
                and topology.node(endpoint).kind is NodeKind.HOST):
            raise ValueError(f"node {endpoint} is not a host")
    hops_to = topology.hops_to(dst)
    if hops_to[src] < 0:
        raise NoRouteError(f"no route from {src} to {dst}")
    if load is None:
        load = [0.0] * n
    elif isinstance(load, Mapping):
        load = [load.get(node, 0.0) for node in range(n)]
    elif len(load) != n:
        raise ValueError(f"load has {len(load)} entries for {n} nodes")
    onward, adj = topology.onward(), topology.adjacency()
    # No path with loads of at most 1 costs more than this.
    costliest = n * (1.0 + congestion_weight)
    exact = 0 <= congestion_weight and costliest < _EXACT_COST
    c = _HOP_COST if exact else 0.0
    # The cost of one fewest-hop path, summed as ``g`` is; no key above
    # it is pushed.  A weight below -1 can make steps negative.
    bound, node = 0.0, src
    for closer in range(hops_to[src] - 1, -1, -1):
        for node in adj[node]:
            if hops_to[node] == closer:
                break
        bound = bound + (1.0 + congestion_weight * load[node])
    if not -1 <= congestion_weight < math.inf:
        bound = math.inf
    # A ``dst`` of degree 1 is pushed from its one neighbour.
    ends = adj[dst]
    before_dst = ends[0] if len(ends) == 1 else -1
    heap: list[tuple[float, float, int, tuple[int, ...], int]] = [
        (c * hops_to[src], 0.0, 0, (), src)]
    # Least ``g`` pushed per node, and ``_DONE`` once the node is popped.
    best = [math.inf] * n
    best[src] = 0.0
    # ``dst`` is reachable, so it is popped before the heap runs dry.
    while True:
        _, cost, hops, prefix, current = heappop(heap)
        if current == dst:
            return Path(prefix + (dst,))
        if best[current] == _DONE:
            continue
        best[current] = _DONE
        path = prefix + (current,)
        hops += 1
        for node in onward[current]:
            g = cost + (1.0 + congestion_weight * load[node])
            if g <= best[node]:
                key = g + c * hops_to[node]
                if key <= bound:
                    best[node] = g
                    heappush(heap, (key, g, hops, path, node))
        if current == before_dst:
            g = cost + (1.0 + congestion_weight * load[dst])
            if g <= bound:
                heappush(heap, (g, g, hops, path, dst))
