"""``Topology.hops_to``'s bit-parallel pass, diffed against the frozen
per-destination breadth-first search in ``oracle.hops``."""

import hashlib
import math
import random
from pathlib import Path

import pytest

from oracle import hops as oracle
from qdnsim import topology as topology_module
from qdnsim.engine import (Engine, Protocol, RunConfig, SessionSpec,
                           WaxmanSpec)
from qdnsim.topology import (NetworkKind, Node, NodeKind, Topology,
                             generate_waxman, validate)
from test_topology import PINNED_TOPOLOGIES

ORACLE_SHA256 = (
    "959fcba44245ec5db782edd5aabbfaa65d2aa518795547292b89551e516dddc7")

#: Host counts at the edges of the pass's 64-bit words.
WORD_EDGES = (1, 63, 64, 65, 129)


def test_oracle_is_frozen():
    source = Path(oracle.__file__).read_bytes()
    assert hashlib.sha256(source).hexdigest() == ORACLE_SHA256


def assert_matches_oracle(topology, destinations):
    """Every ``destinations`` entry's hop list is the oracle's, asked in
    that order, and a second call returns the cached list itself."""
    for dst in destinations:
        hops = topology.hops_to(dst)
        assert type(hops) is list and all(type(h) is int for h in hops)
        assert hops == oracle.hops_to(topology, dst), dst
        assert topology.hops_to(dst) is hops


def shuffled(ids, seed):
    ids = list(ids)
    random.Random(seed).shuffle(ids)
    return ids


@pytest.mark.parametrize("args", [args for args, _ in PINNED_TOPOLOGIES])
def test_pinned_topologies_match_oracle(args):
    """Every host of each pinned topology, asked in a shuffled order, and
    every fifth infrastructure node as a non-host destination."""
    n_infra, degree, side, alpha, seed, network = args
    topology = generate_waxman(n_infra, degree, side, alpha, seed=seed,
                               network=network)
    hosts = [node.id for node in topology.hosts()]
    assert_matches_oracle(
        topology, shuffled(hosts + list(range(0, n_infra, 5)), seed))


def scattered(n_hosts: int, seed: int) -> Topology:
    """``n_hosts`` hosts at shuffled ids among repeaters, wired as three
    random components (trees plus chords, so hosts of degree above 1 and
    hosts linked to hosts occur), with a lone host and two lone
    repeaters."""
    draw = random.Random(seed)
    n = n_hosts + draw.randint(8, n_hosts + 8)
    ids = shuffled(range(n), seed)
    hosts = set(ids[:n_hosts])
    nodes = [Node(i, NodeKind.HOST if i in hosts else NodeKind.REPEATER,
                  0.0, 0.0, 10) for i in range(n)]
    wired = ids[1:n_hosts] + ids[n_hosts + 2:]
    edges = set()
    for part in (wired[0::3], wired[1::3], wired[2::3]):
        for i in range(1, len(part)):
            edges.add(tuple(sorted((part[i], part[draw.randrange(i)]))))
        for _ in range(len(part) // 2):
            u, v = draw.sample(part, 2)
            edges.add(tuple(sorted((u, v))))
    return Topology(NetworkKind.TELE, nodes, sorted(edges))


@pytest.mark.parametrize("n_hosts", WORD_EDGES)
@pytest.mark.parametrize("seed", [1, 2])
def test_scattered_graphs_match_oracle(n_hosts, seed):
    """Every node of a graph with isolated nodes and several components,
    hosts first in a shuffled order, then the others."""
    topology = scattered(n_hosts, seed)
    hosts = [node.id for node in topology.hosts()]
    adj = topology.adjacency()
    assert len(hosts) == n_hosts and not validate(topology).connected
    assert n_hosts == 1 or any(len(adj[host]) > 1 for host in hosts)
    others = [node.id for node in topology.infra()]
    assert_matches_oracle(topology, shuffled(hosts, seed) + others)


@pytest.mark.parametrize("n_hosts", WORD_EDGES)
def test_graph_without_edges(n_hosts):
    """No node reaches another: each list is -1 but at its destination."""
    kinds = shuffled([NodeKind.HOST] * n_hosts
                     + [NodeKind.REPEATER] * (n_hosts // 2 + 1), n_hosts)
    n = len(kinds)
    topology = Topology(NetworkKind.TELE, [
        Node(i, kind, 0.0, 0.0, 10) for i, kind in enumerate(kinds)], [])
    assert_matches_oracle(topology, shuffled(range(n), n_hosts))
    for dst in range(n):
        assert topology.hops_to(dst) == [-1] * dst + [0] + [-1] * (n - dst - 1)


@pytest.mark.parametrize("n_hosts", WORD_EDGES)
def test_one_pass_per_block_of_hosts(monkeypatch, n_hosts):
    """Asking every host builds each block of 64 hosts once; a non-host
    destination is a pass of its own, with one source."""
    passes = []

    def counted(*args):
        passes.append(len(args[-1]))
        return hop_lists(*args)

    hop_lists = topology_module._hop_lists
    monkeypatch.setattr(topology_module, "_hop_lists", counted)
    topology = scattered(n_hosts, 3)
    hosts = [node.id for node in topology.hosts()]
    for dst in shuffled(hosts, 3) + hosts:
        topology.hops_to(dst)
    assert len(passes) == math.ceil(n_hosts / 64)
    assert sorted(passes) == sorted(
        len(hosts[i:i + 64]) for i in range(0, n_hosts, 64))
    before, repeater = len(passes), topology.infra()[0].id
    topology.hops_to(repeater)
    topology.hops_to(repeater)
    assert passes[before:] == [1]


def test_engine_drops_hop_lists_after_last_admission(monkeypatch):
    """A run keeps its hop lists while some slot is still to route, and
    frees them once the last slot that admits has routed."""
    passes = []

    def counted(*args):
        passes.append(len(args[-1]))
        return hop_lists(*args)

    hop_lists = topology_module._hop_lists
    monkeypatch.setattr(topology_module, "_hop_lists", counted)
    engine = Engine(RunConfig(
        seed=1, protocol=Protocol.TELE, network=NetworkKind.TELE,
        topology=WaxmanSpec(n_infra=10, alpha=0.4),
        sessions=[SessionSpec(qubits=8, start_slot=slot)
                  for slot in (0, 0, 2)], n_slots=4))
    host = engine.topology.hosts()[0].id
    for slot in range(4):
        engine.step()
        before = len(passes)
        engine.topology.hops_to(host)
        # Slot 0 routed every host's block; slot 2 routed last.
        assert len(passes) == before + (slot == 2), slot
