"""Hop distances by one plain breadth-first search per destination, frozen.

A copy of ``qdnsim.topology.Topology.hops_to`` from before it searched 64
destinations at a time, without the cache: the distance from every node
to ``dst``, indexed by node id, and -1 where ``dst`` is unreachable.
"""

from __future__ import annotations

from qdnsim.topology import Topology


def hops_to(topology: Topology, dst: int) -> list[int]:
    adj = topology.adjacency()
    hops = [-1] * len(topology.nodes)
    hops[dst] = 0
    frontier, distance = [dst], 0
    while frontier:
        distance += 1
        reached = []
        for node in frontier:
            for neighbour in adj[node]:
                if hops[neighbour] < 0:
                    hops[neighbour] = distance
                    reached.append(neighbour)
        frontier = reached
    return hops
