"""Generating quantum data network topologies.

Infrastructure nodes are dropped uniformly in a square and wired with the
Waxman model; the density parameter is calibrated so the average degree
among infrastructure nodes hits a target, and disconnected samples are
repaired with the shortest joining edges.  Every infrastructure node gets
one attached end host so any node can terminate a session.
"""

import json

from qdnsim import NetworkKind, generate_waxman, validate
from qdnsim.topology import from_document, to_document

topology = generate_waxman(
    n_infra=50, target_avg_degree=4.0, area_side=100.0, alpha=0.4, seed=7
)
diag = validate(topology)

print(f"nodes: {len(topology.nodes)} ({len(topology.infra())} infra "
      f"+ {len(topology.hosts())} hosts)")
print(f"connected: {diag.connected}")
print(f"average infrastructure degree: {diag.average_infra_degree:.2f}")
print(f"degree histogram: {dict(sorted(diag.degree_histogram.items()))}")
print(f"memory: {diag.infra_capacity} infra units, "
      f"{diag.host_capacity} host units")

# The same arguments always give the same graph.
again = generate_waxman(50, 4.0, 100.0, 0.4, seed=7)
print(f"regeneration identical: {again.edges == topology.edges}")

# Topologies round-trip through a JSON document so experiments can pin
# the exact graph they ran on.
document = json.dumps(to_document(topology), sort_keys=True)
again = from_document(json.loads(document))
print(f"serialized size: {len(document)} bytes, "
      f"round-trip ok: {again.edges == topology.edges}")

# All-optical switch networks carry no infrastructure memory.
switched = generate_waxman(50, 4.0, 100.0, 0.4, seed=7,
                           network=NetworkKind.TAG_SWITCH)
print(f"switch network infra capacity: "
      f"{sum(n.capacity for n in switched.infra())}")
