"""The engine's tell-and-go runs against the frozen per-hop loop, and the
invariants every slot of them keeps.

A seeded generator draws small relay and switch configs: capacities from
the feasibility edge up, loss probabilities from certain loss to none,
staggered finite, empty and unbounded sessions and set initial windows.
Each is run by the engine and by ``oracle.tag_loop``, whose session rows,
pool rows and summary it must reproduce exactly; a config one of them
rejects, the other must reject with the same error.  The same configs are
stepped slot by slot and checked from outside after every step.
"""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from oracle import tag_loop
from qdnsim.engine import (Engine, Protocol, RunConfig, SessionSpec,
                           WaxmanSpec, run)
from qdnsim.errors import QdnError
from qdnsim.tele import UNBOUNDED
from qdnsim.topology import NetworkKind
from qdnsim.trace import PoolRow, Rows, SessionRow

CONFIG_COUNT = 96
GENERATOR_SEED = 17

#: SHA-256 of ``oracle/tag_loop.py``.  The oracle is the one reference the
#: engine is diffed against, so an edit to it must also change this pin.
ORACLE_SHA256 = (
    "d842bd6cf11e57bb3ba1d16bf3a10c743d0aa3e5ea8cf59a6b67b3100ecb6b84")


def test_oracle_is_frozen():
    source = Path(tag_loop.__file__).read_bytes()
    assert hashlib.sha256(source).hexdigest() == ORACLE_SHA256


#: Pool totals are float64 ``np.bincount`` sums, exact only below this
#: (see ``qdnsim.memory``); the load table divides them as floats too.
EXACT_TOTALS = 2**53


def watch_pool_totals(engine: Engine) -> list[int]:
    """A one-item list kept at the largest pool total ``engine`` has
    formed: every ``PoolTable.sums`` result, demand totals included, and
    every total ``engine.pools.reserved`` holds when a slot clears it."""
    largest, pools = [0], engine.pools
    sums, clear = pools.sums, pools.clear

    def record(totals: np.ndarray) -> None:
        largest[0] = max(largest[0], int(totals.max(initial=0)))

    def watched_sums(pool, units):
        totals = sums(pool, units)
        record(totals)
        return totals

    def watched_clear():
        record(pools.reserved)
        clear()

    pools.sums, pools.clear = watched_sums, watched_clear
    return largest


def step_rows(engine: Engine) -> tuple[Rows, Rows]:
    """Step ``engine`` one slot; the blocks it returns as session and pool
    ``Rows``."""
    slot, sessions, pools = engine.step()
    return Rows(SessionRow, [(slot, sessions)]), Rows(PoolRow, [(slot, pools)])


def generate(count: int, seed: int) -> list[RunConfig]:
    """``count`` small tell-and-go configs drawn from ``seed``."""
    draw = random.Random(seed)
    configs = []
    for index in range(count):
        n_slots = draw.randint(4, 28)
        sessions = [
            SessionSpec(
                qubits=draw.choice([0, None, draw.randint(1, 12),
                                    draw.randint(13, 90)]),
                start_slot=draw.choice([0, 0, draw.randint(0, n_slots)]),
                initial_window=draw.choice([None, None, draw.randint(1, 16)]),
            )
            for _ in range(draw.randint(1, 7))
        ]
        configs.append(RunConfig(
            seed=draw.randint(0, 10**6),
            protocol=Protocol.TAG,
            network=draw.choice([NetworkKind.TAG_RELAY,
                                 NetworkKind.TAG_SWITCH]),
            topology=WaxmanSpec(n_infra=draw.randint(4, 9),
                                target_avg_degree=3.0,
                                area_side=40.0),
            sessions=sessions,
            n_slots=n_slots,
            p=draw.choice([0.0, 0.3, 0.65, 1.0]),
            capacity=draw.choice([12, 13, 14, 20, 40, 75, 150]),
        ))
    return configs


CONFIGS = generate(CONFIG_COUNT, GENERATOR_SEED)


def outcome(runner, cfg):
    """A run's rows and summary, or the type and text of what it raised."""
    try:
        result = runner(cfg)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return type(error), str(error)
    return result.session_rows, result.pool_rows, repr(result.summary)


def first_difference(got: list, want: list) -> str:
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"slot {b.slot}, row {index}:\n  engine {a}\n  oracle {b}"
    return f"{len(got)} rows, oracle {len(want)}"


@pytest.mark.parametrize("index", range(CONFIG_COUNT))
def test_engine_matches_frozen_loop(index):
    cfg = CONFIGS[index]
    got = outcome(run, cfg)
    want = outcome(tag_loop.run, cfg)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    for name, position in (("session", 0), ("pool", 1)):
        assert got[position] == want[position], (
            f"{name} rows differ at {first_difference(got[position], want[position])}")
    assert got[2] == want[2]


def test_generator_reaches_every_case():
    """The configs reach what a rewrite is likely to get wrong: rejected
    configs, both networks, every loss probability, halved windows, loss
    rounds beyond the first, full relay queues and finished sessions."""
    seen = {"rejected": 0, "halved": 0, "deep": 0, "full": 0, "finished": 0,
            "p": set(), "network": set()}

    def observe(hops):
        rounds = [round_ for hop in hops for round_ in (*hop.firsts, *hop.seconds)]
        seen["deep"] += max(rounds, default=0) >= 2
        seen["full"] += any(hop.queue_bound and hop.backlog == hop.queue_bound
                            for hop in hops)

    for cfg in CONFIGS:
        try:
            result = tag_loop.run(cfg, observe)
        except QdnError:
            seen["rejected"] += 1
            continue
        seen["p"].add(cfg.p)
        seen["network"].add(cfg.network)
        seen["halved"] += any(row.congested for row in result.session_rows)
        admitted = {row.session for row in result.session_rows}
        last = {row.session: row.slot for row in result.session_rows}
        seen["finished"] += any(last[sid] < cfg.n_slots - 1 for sid in admitted)
    assert seen.pop("p") == {0.0, 0.3, 0.65, 1.0}
    assert seen.pop("network") == {NetworkKind.TAG_RELAY, NetworkKind.TAG_SWITCH}
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("index", range(CONFIG_COUNT))
def test_invariants_hold_after_every_step(index):
    """Pool totals below 2**53, pools within capacity, halving by the rule,
    stored first sharings matching the rounds in flight, and every minted
    qubit delivered, in flight or queued at a relay."""
    cfg = CONFIGS[index]
    engine = Engine(cfg)
    largest = watch_pool_totals(engine)
    relay = cfg.network is NetworkKind.TAG_RELAY
    delivered = {}
    for _ in range(cfg.n_slots):
        try:
            session_rows, pool_rows = step_rows(engine)
        except QdnError:  # a rejected config; the run above compares it
            return
        assert largest[0] < EXACT_TOTALS, largest
        assert all(row.reserved <= row.capacity for row in pool_rows)
        for row in session_rows:
            assert row.granted == (row.window // 2 if row.congested
                                   else row.window), row
            if row.hop == (len(engine.paths[row.session]) - 2 if relay else 0):
                delivered[row.session] = (delivered.get(row.session, 0)
                                          + row.delivered)
        table = engine.table
        rounds = np.arange(table.firsts.shape[1])
        assert (table.stored == table.firsts @ rounds
                + table.seconds @ (rounds + 1)).all(), table.stored
        live = table.session.tolist()
        held = dict.fromkeys(live, 0)
        for sid, count in zip(live, (table.firsts.sum(axis=1)
                                     + table.seconds.sum(axis=1)
                                     + table.backlog).tolist()):
            held[sid] += count
        for sid, hop, unminted in zip(live, table.hop.tolist(),
                                      table.unminted.tolist()):
            if hop == 0 and unminted != UNBOUNDED:
                minted = cfg.sessions[sid].qubits - unminted
                assert minted == delivered.get(sid, 0) + held[sid], sid
        for sid, spec in enumerate(cfg.sessions):
            if sid in engine.paths and sid not in held:
                assert delivered.get(sid, 0) == spec.qubits
