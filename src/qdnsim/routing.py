"""Load-balanced shortest-path routing.

Paths are fixed at session admission: each hop costs 1 plus a congestion
penalty proportional to the reserved fraction of the hop's downstream
node, so new sessions drift around already-loaded nodes.  Ties are broken
by hop count, then by lexicographically smallest node sequence, which
makes the choice deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import NoRouteError
from .topology import NodeKind, Topology

DEFAULT_CONGESTION_WEIGHT = 4.0


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
    load: dict[int, float] | None = None,
    congestion_weight: float = DEFAULT_CONGESTION_WEIGHT,
) -> Path:
    """Minimal-cost path under edge cost 1 + weight * load(downstream node).

    Dijkstra's search over entries ``(cost, hops, prefix, node)``, where
    ``prefix + (node,)`` is built only when the node is first popped: equal
    hops mean equal prefix lengths, so entries order as whole sequences
    would.  A node of degree 1 other than ``dst`` is never pushed: its one
    neighbour is done, so popping it would push nothing.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    for endpoint in (src, dst):
        if not (0 <= endpoint < len(topology.nodes)
                and topology.node(endpoint).kind is NodeKind.HOST):
            raise ValueError(f"node {endpoint} is not a host")
    load = load or {}
    adj = topology.adjacency()
    heap: list[tuple[float, int, tuple[int, ...], int]] = [(0.0, 0, (), src)]
    done: set[int] = set()
    while heap:
        cost, hops, prefix, current = heappop(heap)
        if current == dst:
            return Path(prefix + (dst,))
        if current in done:
            continue
        done.add(current)
        path = prefix + (current,)
        for node in adj[current]:
            if node in done or (len(adj[node]) == 1 and node != dst):
                continue
            step = 1.0 + congestion_weight * load.get(node, 0.0)
            heappush(heap, (cost + step, hops + 1, path, node))
    raise NoRouteError(f"no route from {src} to {dst}")
