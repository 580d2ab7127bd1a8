"""The engine's teleportation runs against the frozen per-session loop, and
the invariants every slot of them keeps.

A seeded generator draws small tele, EW and FRA configs on Waxman and
inline topologies: capacities from the feasibility edge up (where FRA's
documented overcommit and infeasible reservations must be rejected alike),
staggered finite, empty and unbounded sessions and set initial windows.
Each is run by the engine and by ``oracle.tele_loop``, whose session rows,
pool rows and summary it must reproduce exactly; a config one of them
rejects, the other must reject with the same error.  The same configs are
stepped slot by slot and checked from outside after every step.
"""

import hashlib
import random
from pathlib import Path

import pytest

from oracle import tele_loop
from qdnsim.engine import (Engine, Protocol, RunConfig, SessionSpec,
                           WaxmanSpec, run)
from qdnsim.errors import (CapacityExceededError, InfeasibleReservationError,
                           QdnError)
from qdnsim.topology import NetworkKind, Node, NodeKind, Topology
from test_differential import (EXACT_TOTALS, first_difference, outcome,
                               step_rows, watch_pool_totals)

CONFIG_COUNT = 96
GENERATOR_SEED = 23

#: SHA-256 of ``oracle/tele_loop.py``; an edit to the oracle must also
#: change this pin.
ORACLE_SHA256 = (
    "557fc91843408bb3255e8d0555fc2c0a6b5518595e3445e7896792f13c1be788")

#: Node capacities, from where one session's halved window cannot fit up.
CAPACITIES = [3, 4, 6, 9, 12, 20, 40, 150, 600, 2000]


def test_oracle_is_frozen():
    source = Path(tele_loop.__file__).read_bytes()
    assert hashlib.sha256(source).hexdigest() == ORACLE_SHA256


def inline_topology(draw: random.Random) -> Topology:
    """A random tree of repeaters, sometimes with a chord, and two to five
    hosts hung off it; every node's capacity drawn on its own."""
    n_infra = draw.randint(1, 5)
    edges = {(i, draw.randrange(i)) for i in range(1, n_infra)}
    if n_infra >= 3 and draw.random() < 0.5:
        u, v = draw.sample(range(n_infra), 2)
        edges.add((max(u, v), min(u, v)))
    nodes = [Node(i, NodeKind.REPEATER, float(i), 0.0,
                  draw.choice([0, *CAPACITIES[1:]])) for i in range(n_infra)]
    for host in range(n_infra, n_infra + draw.randint(2, 5)):
        nodes.append(Node(host, NodeKind.HOST, float(host), 1.0,
                          draw.choice(CAPACITIES)))
        edges.add((host, draw.randrange(n_infra)))
    return Topology(NetworkKind.TELE, nodes, sorted(edges))


def generate(count: int, seed: int) -> list[RunConfig]:
    """``count`` small teleportation configs drawn from ``seed``."""
    draw = random.Random(seed)
    configs = []
    for _ in range(count):
        n_slots = draw.randint(4, 28)
        sessions = [
            SessionSpec(
                qubits=draw.choice([0, None, draw.randint(1, 12),
                                    draw.randint(13, 90)]),
                start_slot=draw.choice([0, 0, draw.randint(0, n_slots)]),
                initial_window=draw.choice([None, None, None,
                                            draw.randint(1, 16),
                                            draw.randint(17, 64)]),
            )
            for _ in range(draw.randint(1, 7))
        ]
        if draw.random() < 0.5:
            topology = inline_topology(draw)
        else:
            topology = WaxmanSpec(n_infra=draw.randint(4, 9),
                                  target_avg_degree=3.0, area_side=40.0)
        configs.append(RunConfig(
            seed=draw.randint(0, 10**6),
            protocol=draw.choice([Protocol.TELE, Protocol.EW, Protocol.FRA]),
            network=NetworkKind.TELE,
            topology=topology,
            sessions=sessions,
            n_slots=n_slots,
            capacity=draw.choice(CAPACITIES[3:]),
        ))
    return configs


CONFIGS = generate(CONFIG_COUNT, GENERATOR_SEED)


@pytest.mark.parametrize("index", range(CONFIG_COUNT))
def test_engine_matches_frozen_loop(index):
    cfg = CONFIGS[index]
    got = outcome(run, cfg)
    want = outcome(tele_loop.run, cfg)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    for name, position in (("session", 0), ("pool", 1)):
        assert got[position] == want[position], (
            f"{name} rows differ at {first_difference(got[position], want[position])}")
    assert got[2] == want[2]


def test_generator_reaches_every_case():
    """The configs reach what a rewrite is likely to get wrong: every
    protocol on both kinds of topology, infeasible reservations, FRA's
    overcommit, halved windows, unbounded streams and finished sessions,
    and, under EW and FRA, a run whose session set changes after slot 0
    both ways (a session admitted after slot 0, and one that finishes
    while another stays live), so that the fair shares a session table
    holds must be refreshed."""
    seen = {"infeasible": 0, "overcommit": 0, "halved": 0, "stream": 0,
            "finished": 0, "runs": set(), "set_changes": set()}
    for cfg in CONFIGS:
        try:
            result = tele_loop.run(cfg)
        except InfeasibleReservationError:
            seen["infeasible"] += 1
            continue
        except CapacityExceededError:
            assert cfg.protocol is Protocol.FRA
            seen["overcommit"] += 1
            continue
        seen["runs"].add((cfg.protocol, isinstance(cfg.topology, WaxmanSpec)))
        seen["halved"] += any(row.congested for row in result.session_rows)
        first, last = {}, {}
        for row in result.session_rows:
            first.setdefault(row.session, row.slot)
            last[row.session] = row.slot
        finished = [slot for sid, slot in last.items()
                    if slot < cfg.n_slots - 1
                    and cfg.sessions[sid].qubits is not None]
        seen["finished"] += bool(finished)
        seen["stream"] += any(cfg.sessions[sid].qubits is None for sid in last)
        if (max(first.values(), default=0) > 0
                and any(slot < max(last.values()) for slot in finished)):
            seen["set_changes"].add(cfg.protocol)
    assert len(seen.pop("runs")) == 6
    assert seen.pop("set_changes") >= {Protocol.EW, Protocol.FRA}
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("index", range(CONFIG_COUNT))
def test_invariants_hold_after_every_step(index):
    """Pool totals below 2**53, pools within capacity, halving by the rule
    (EW announces its grant), and a session stepped until it has delivered
    exactly its qubits."""
    cfg = CONFIGS[index]
    engine = Engine(cfg)
    largest = watch_pool_totals(engine)
    delivered, live = {}, set()
    for _ in range(cfg.n_slots):
        try:
            session_rows, pool_rows = step_rows(engine)
        except QdnError:  # a rejected config; the run above compares it
            return
        assert largest[0] < EXACT_TOTALS, largest
        assert all(row.reserved <= row.capacity for row in pool_rows)
        stepped = set()
        for row in session_rows:
            if cfg.protocol is Protocol.EW:
                assert (row.window, row.congested, row.phase) == (
                    row.granted, 0, "-"), row
            else:
                assert row.granted == (row.window // 2 if row.congested
                                       else row.window), row
            qubits = cfg.sessions[row.session].qubits
            assert qubits is None or delivered.get(row.session, 0) < qubits
            delivered[row.session] = (delivered.get(row.session, 0)
                                      + row.delivered)
            assert qubits is None or delivered[row.session] <= qubits, row
            stepped.add(row.session)
        for sid in live - stepped:
            assert delivered[sid] == cfg.sessions[sid].qubits, sid
        live = stepped
