"""Load-balanced shortest-path routing.

Paths are fixed at session admission: each hop costs 1 plus a congestion
penalty proportional to the reserved fraction of the hop's downstream
node, so new sessions drift around already-loaded nodes.  Ties are broken
by hop count, then by lexicographically smallest node sequence, which
makes the choice deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
    """Minimal-cost path under edge cost 1 + weight * load(downstream node)."""
    if src == dst:
        raise ValueError("source and destination must differ")
    for endpoint in (src, dst):
        if topology.node(endpoint).kind is not NodeKind.HOST:
            raise ValueError(f"node {endpoint} is not a host")
    load = load or {}
    adj = topology.adjacency()

    # Heap entries order by (cost, hops, node sequence); a prefix that is
    # minimal in this order extends to a minimal full path, so plain
    # Dijkstra finalization per node stays correct.
    heap: list[tuple[float, int, tuple[int, ...]]] = [(0.0, 0, (src,))]
    done: set[int] = set()
    while heap:
        cost, hops, nodes = heapq.heappop(heap)
        current = nodes[-1]
        if current == dst:
            return Path(nodes)
        if current in done:
            continue
        done.add(current)
        for neighbour in adj[current]:
            if neighbour in done:
                continue
            step = 1.0 + congestion_weight * load.get(neighbour, 0.0)
            heapq.heappush(heap, (cost + step, hops + 1, nodes + (neighbour,)))
    raise NoRouteError(f"no route from {src} to {dst}")
