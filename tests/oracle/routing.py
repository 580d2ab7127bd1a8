"""Admission routing as one Dijkstra search over full node sequences, frozen.

A copy of ``qdnsim.routing.compute_path`` from before its heap entries
stopped carrying whole paths.  Every push copies the path so far plus one
node; entries order by (cost, hops, node sequence), so the first popped
entry that ends at ``dst`` is the least-cost path, ties broken by fewest
hops, then by the lexicographically smallest node sequence.
"""

from __future__ import annotations

import heapq

from qdnsim.errors import NoRouteError
from qdnsim.routing import DEFAULT_CONGESTION_WEIGHT, Path
from qdnsim.topology import NodeKind, Topology


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
