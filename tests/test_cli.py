"""Config parsing, file emission, and the command-line entry points."""

import csv
import gc
import json
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from qdnsim import cli
from qdnsim.cli import _fmt, emit, emit_table, main, parse_config, run_preset
from qdnsim.engine import PoolRow, Protocol, RunResult, SessionRow, run
from qdnsim.errors import ConfigError
from qdnsim.topology import NetworkKind, generate_waxman, to_document
from qdnsim.trace import WORDS, Rows


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc(**overrides):
    doc = {
        "seed": 3,
        "protocol": "tele",
        "network": "tele",
        "topology": {"waxman": {"n_infra": 8, "target_avg_degree": 3.0,
                                "area_side": 40.0}},
        "sessions": 4,
        "n_slots": 10,
    }
    doc.update(overrides)
    return doc


def inline_topology(network="tele", **node0):
    """A small tele Waxman graph as an inline document, relabelled as a
    ``network`` graph and with node 0's fields overridden."""
    doc = to_document(generate_waxman(4, 2.0, 10.0, 0.4, seed=1))
    doc["kind"] = network
    doc["nodes"][0].update(node0)
    return {"inline": doc}


def waxman(**fields):
    """A Waxman topology of 8 infrastructure nodes with ``fields`` set."""
    return {"waxman": {"n_infra": 8, **fields}}


def inline_edge(edge):
    """``inline_topology`` with its first edge, ``[0, 1]``, replaced."""
    topology = inline_topology()
    topology["inline"]["edges"][0] = edge
    return topology


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, minimal_doc()))
        assert cfg.p == 1.0
        assert cfg.slot_length == 1.0
        assert cfg.capacity == 1000
        assert cfg.congestion_weight == 4.0
        assert cfg.protocol is Protocol.TELE

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, minimal_doc(extra=1))
        with pytest.raises(ConfigError, match="extra"):
            parse_config(path)

    def test_protocol_network_mismatch(self, tmp_path):
        path = write_config(tmp_path, minimal_doc(protocol="tag"))
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_seed_rejected(self, tmp_path):
        doc = minimal_doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_config(tmp_path, doc))

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line"):
            parse_config(path)

    def test_inline_topology(self, tmp_path):
        topology = generate_waxman(4, 2.0, 10.0, 0.4, seed=1)
        doc = minimal_doc(topology={"inline": to_document(topology)},
                          sessions=[{"src": 4, "dst": 6, "qubits": 5}])
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.sessions[0].src == 4
        assert cfg.sessions[0].qubits == 5

    def test_session_fields_become_integers(self, tmp_path):
        doc = minimal_doc(sessions=[{"src": "9", "dst": 10, "qubits": "5",
                                     "initial_window": "2"}, {}])
        first, second = parse_config(write_config(tmp_path, doc)).sessions
        assert (first.src, first.dst, first.qubits, first.initial_window) \
            == (9, 10, 5, 2)
        assert second.qubits is None and second.initial_window is None

    def test_whole_floats_read_as_integers(self, tmp_path):
        doc = minimal_doc(n_slots=10.0, sessions=[{"qubits": 5.0}])
        cfg = parse_config(write_config(tmp_path, doc))
        assert type(cfg.n_slots) is int and cfg.n_slots == 10
        assert type(cfg.sessions[0].qubits) is int and cfg.sessions[0].qubits == 5

    def test_session_list_unknown_key(self, tmp_path):
        doc = minimal_doc(sessions=[{"src": 1, "dst": 2, "bogus": 1}])
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("overrides, match", [
        ({"seed": None}, "seed"),
        ({"sessions": True}, "sessions"),
        ({"sessions": [1]}, "session 0"),
        ({"sessions": [{"start_slot": None}]}, "start_slot"),
        ({"topology": {"waxman": {"n_infra": None}}}, "n_infra"),
        ({"topology": {"waxman": 5}}, "waxman"),
        ({"sessions": [{"qubits": "five"}]}, "session 0: qubits"),
        ({"sessions": [{"src": [1]}]}, "session 0: src"),
        ({"sessions": [{"initial_window": -4}]}, "session 0: initial_window"),
        ({"sessions": [{"qubits": -3}]}, "session 0: qubits"),
        ({"sessions": [{"qubits": 5.9}]}, "session 0: qubits"),
        ({"n_slots": True}, "n_slots"),
        ({"seed": 1.5}, "seed"),
        ({"n_slots": float("inf")}, "n_slots"),
        ({"sessions": [{"start_slot": -1}]}, "session 0: start_slot"),
        ({"slot_length": float("nan")}, "slot_length"),
        ({"slot_length": float("inf")}, "slot_length"),
        ({"congestion_weight": -50}, "congestion_weight"),
        ({"congestion_weight": float("nan")}, "congestion_weight"),
        ({"congestion_weight": float("inf")}, "congestion_weight"),
        ({"capacity": -5}, "capacity"),
        ({"topology": inline_topology(capacity=True)}, "node 0: capacity"),
        ({"topology": inline_topology(capacity=5.9)}, "node 0: capacity"),
        ({"topology": inline_topology(capacity=-5)}, "node 0: capacity"),
        ({"topology": inline_topology(id=True)}, "node 0: id"),
        ({"topology": inline_topology(id=0.5)}, "node 0: id"),
        ({"topology": inline_edge([0, True])}, "edge 0"),
        ({"topology": inline_edge([0, 1.5])}, "edge 0"),
        ({"topology": inline_edge([0, 1, 2])}, "edge 0: expected a two-element"),
        ({"topology": inline_edge([0])}, "edge 0: expected a two-element"),
        ({"topology": inline_topology(id=0.0, capacity=-1)},
         "node 0: capacity must be non-negative"),
        ({"topology": waxman(area_side=float("nan"))}, "waxman: area_side"),
        ({"topology": waxman(area_side=float("inf"))}, "waxman: area_side"),
        ({"topology": waxman(area_side=0)}, "waxman: area_side"),
        ({"topology": waxman(target_avg_degree=float("nan"))},
         "waxman: target_avg_degree"),
        ({"topology": waxman(target_avg_degree=-1)},
         "waxman: target_avg_degree"),
        ({"topology": waxman(alpha=0)}, "waxman: alpha"),
        ({"topology": waxman(alpha=float("nan"))}, "waxman: alpha"),
        ({"topology": waxman(alpha=float("inf"))}, "waxman: alpha"),
        ({"topology": waxman(n_infra=1)}, "waxman: n_infra"),
        ({"capacity": 2**29 + 1}, "capacity must be at most"),
        ({"topology": inline_topology(capacity=2**29 + 1)},
         "node 0: capacity must be at most"),
        ({"topology": waxman(alpha=0.0014)}, "waxman: alpha"),
        ({"topology": waxman(alpha=0.001)}, "waxman: alpha"),
        ({"topology": waxman(alpha=1e-300)}, "waxman: alpha"),
        ({"topology": waxman(alpha=1e-310)}, "waxman: alpha"),
        ({"protocol": "tag", "network": "tag_relay",
          "sessions": [{"qubits": 1}, {"qubits": 2**63}]},
         "session 1: qubits must be at most 9223372036854775807"),
        ({"sessions": [{"qubits": 1}, {"qubits": 2**63}]},
         "session 1: qubits must be at most 9223372036854775807"),
        ({"congestion_weight": 2.0**21}, "congestion_weight"),
        ({"topology": inline_topology(x=10**400)},
         "bad inline topology: node 0: x: int too large to convert to float"),
        ({"topology": inline_topology(x=True)},
         "node 0: x: expected a number, got True"),
        ({"topology": inline_topology(x="east")}, "node 0: x: could not"),
        ({"topology": inline_topology(x=float("nan"))},
         "node 0: x must be finite, got nan"),
        ({"topology": inline_topology(y=float("inf"))},
         "node 0: y must be finite, got inf"),
        ({"topology": inline_topology(y=-float("inf"))},
         "node 0: y must be finite, got -inf"),
    ])
    def test_malformed_value_rejected(self, tmp_path, overrides, match):
        path = write_config(tmp_path, minimal_doc(**overrides))
        with pytest.raises(ConfigError, match=match):
            parse_config(path)


class TestEmit:
    def result(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, minimal_doc()))
        return run(cfg)

    def test_tabular_files(self, tmp_path):
        result = self.result(tmp_path)
        written = emit(result, tmp_path / "out", "demo", ["tabular"])
        names = sorted(p.name for p in written)
        assert names == ["demo_pools.csv", "demo_sessions.csv",
                         "demo_summary.csv"]
        header = (tmp_path / "out" / "demo_sessions.csv").read_text().splitlines()[0]
        assert header.split(",")[:4] == ["slot", "session", "hop", "window"]

    def test_both_formats(self, tmp_path):
        result = self.result(tmp_path)
        written = emit(result, tmp_path / "out", "demo",
                       ["tabular", "records"])
        assert len(written) == 6
        record = json.loads(
            (tmp_path / "out" / "demo_sessions.ndjson").read_text().splitlines()[0]
        )
        assert record["slot"] == 0

    def test_byte_stable_reruns(self, tmp_path):
        for attempt in ("a", "b"):
            result = self.result(tmp_path)
            emit(result, tmp_path / attempt, "demo", ["tabular", "records"])
        for name in ("demo_sessions.csv", "demo_pools.csv",
                     "demo_summary.csv", "demo_sessions.ndjson"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_empty_table_has_header_only(self, tmp_path):
        (path,) = emit_table([], tmp_path, "empty", ["tabular"])
        assert path.read_text() == "\n"


def reference_csv(path, header, rows):
    """``emit``'s CSV writer before trace rows were templated."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def reference_records(path, header, rows, trailer=None):
    """``emit``'s ndjson writer before trace rows were templated; a
    ``trailer`` record is written last."""
    records = [dict(zip(header, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records + ([] if trailer is None else [trailer]):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


SUMMARY_HEADER = ("session", "delivered", "mean_window", "hops", "path")


def reference_summary(out, result):
    """``t_summary.csv`` and ``t_summary.ndjson`` as ``emit`` wrote them
    before the summary was templated: ``csv.writer`` over ``_fmt`` cells,
    and sorted-key ``json.dumps`` per session, then the run's totals."""
    rows = [(sid, info["delivered"], info["mean_window"], info["hops"],
             "-".join(str(node) for node in result.paths[sid]))
            for sid, info in sorted(result.summary["sessions"].items())]
    totals = {key: result.summary[key] for key in (
        "delivered_total", "throughput_per_slot", "throughput_per_time",
        "jain_mean_window")}
    totals.update(protocol=result.protocol, seed=result.seed)
    reference_csv(out / "t_summary.csv", SUMMARY_HEADER, rows)
    reference_records(out / "t_summary.ndjson", SUMMARY_HEADER, rows, totals)


#: Zero, small and large values for every int field, up to int64's largest.
INTS = [0, 1, 7, 255, 10**6, 2**31, 2**63 - 1]


def result_of(session_rows, pool_rows):
    """A run result over the given trace rows, with an empty summary."""
    return RunResult(
        protocol="tag", network="tag_relay", seed=0, n_slots=3,
        slot_length=1.0, paths={}, session_rows=session_rows,
        pool_rows=pool_rows,
        summary={"delivered_total": 0, "throughput_per_slot": 0.0,
                 "throughput_per_time": 0.0, "jain_mean_window": None,
                 "sessions": {}},
    )


#: Session means: zero, whole, fractional, repeating, and from 1e6 on,
#: where ``%.6g`` writes an exponent (999999.5 rounds up to ``1e+06``).
MEANS = [0.0, 1.0, 2.5, 1 / 3, 999999.5, 1e6, 1234567.0, 2.0**40 / 3]


def hand_built_result(seed, n_rows):
    """``n_rows`` random rows of each trace table, and as many summary
    sessions under random ids: the ``i``-th delivers ``INTS[i]`` at mean
    ``MEANS[i]``, cyclically, so the first delivers 0 at a 0.0 mean, over
    a path of 2, 3 or 80 nodes of ``INTS`` ids."""
    rng = random.Random(seed)
    session_rows = [
        SessionRow(*(rng.choice(INTS) for _ in range(7)),
                   rng.choice(["-", "SS", "CA"]),
                   *(rng.choice(INTS) for _ in range(4)))
        for _ in range(n_rows)
    ]
    pool_rows = [
        PoolRow(rng.choice(INTS), rng.choice(INTS),
                rng.choice(["send", "receive", "transit"]),
                rng.choice(INTS), rng.choice(INTS))
        for _ in range(n_rows)
    ]
    result = result_of(session_rows, pool_rows)
    for i, sid in enumerate(rng.sample(range(10**6), n_rows)):
        result.paths[sid] = tuple(rng.choice(INTS)
                                  for _ in range([2, 3, 80][i % 3]))
        result.summary["sessions"][sid] = {
            "delivered": INTS[i % len(INTS)],
            "mean_window": MEANS[i % len(MEANS)],
            "hops": len(result.paths[sid]) - 1}
    result.summary["jain_mean_window"] = 0.75 if n_rows else None
    return result


#: Values that fit int64, from zero to its largest.
INT64S = [0, 1, 9, 10, 99, 100, 999, 1000, 10**6, 2**31, 2**63 - 1]


def session_blocks(rng, sizes, first_slot=0):
    """Session blocks of ``sizes`` rows as the engine keeps them: int64
    columns of ``INT64S``, and int64 phase codes.  ``rng`` is a
    ``numpy.random.Generator``."""
    values = np.array(INT64S, dtype=np.int64)
    blocks = []
    for slot, size in enumerate(sizes, first_slot):
        ints = rng.choice(values, (10, size))
        phase = rng.integers(0, len(WORDS["phase"]), size)
        blocks.append((slot, (*ints[:6], phase, *ints[6:])))
    return Rows(SessionRow, blocks)


def pool_blocks(rng, n_pools, n_slots):
    """Pool blocks as the engine keeps them: every block shares one int64
    array each of nodes, kind codes and capacities, and holds its own int64
    reserved row; the ints are ``INT64S``."""
    values = np.array(INT64S, dtype=np.int64)
    nodes, capacities = rng.choice(values, (2, n_pools))
    kinds = rng.integers(0, len(WORDS["pool"]), n_pools)
    reserved = rng.choice(values, (n_slots, n_pools))
    return Rows(PoolRow, [(slot, (nodes, kinds, reserved[slot], capacities))
                          for slot in range(n_slots)])


def assert_rejected(tmp_path, field, value):
    """A hand-built row list with ``value`` in ``field`` of its second row
    is refused by ``Rows.of`` and by ``emit``, with the field named."""
    result = hand_built_result(13, 3)
    table = "pool_rows" if field in PoolRow._fields else "session_rows"
    rows = getattr(result, table)
    rows[1] = rows[1]._replace(**{field: value})
    with pytest.raises(ValueError, match=field):
        Rows.of(type(rows[1]), rows)
    with pytest.raises(ValueError, match=field):
        emit(result, tmp_path / "rejected", "t", ["tabular", "records"])


def write_references(out, result):
    """Every file ``emit`` writes for ``result`` under the name ``t``, as
    ``csv.writer`` or sorted-key ``json.dumps`` writes it."""
    out.mkdir()
    for table, row_type, rows in (
            ("sessions", SessionRow, result.session_rows),
            ("pools", PoolRow, result.pool_rows)):
        rows = list(rows)
        reference_csv(out / f"t_{table}.csv", row_type._fields, rows)
        reference_records(out / f"t_{table}.ndjson", row_type._fields, rows)
    reference_summary(out, result)


def assert_matches_reference_writers(tmp_path, result):
    written = emit(result, tmp_path / "new", "t", ["tabular", "records"])
    write_references(tmp_path / "old", result)
    assert len(written) == 6
    for path in written:
        reference = tmp_path / "old" / path.name
        assert path.read_bytes() == reference.read_bytes(), path.name


def chunk_edges(rows, form):
    """Row offsets at which ``cli._render`` ends its chunks."""
    chunks = []
    cli._render(rows, [(form, chunks.append)])
    edges = np.cumsum([np.count_nonzero(chunk == ord("\n"))
                       for chunk in chunks])
    return edges.tolist()


#: Every protocol on its network.
ENGINE_RUNS = [("tele", "tele"), ("ew", "tele"), ("fra", "tele"),
               ("tag", "tag_relay"), ("tag", "tag_switch")]

#: Finite sessions admitted over the first seven slots; every fourth asks
#: for no qubits.
STAGGERED = [{"qubits": 0 if i % 4 == 0 else 3 + 5 * i, "start_slot": i % 7}
             for i in range(16)]


#: Every format subset ``emit`` accepts.
SUBSETS = (["tabular"], ["records"], ["tabular", "records"])


class TestTemplatedEmission:
    @pytest.mark.parametrize("seed, n_rows", [(0, 0), (1, 1), (2, 40),
                                              (3, 300)])
    def test_trace_tables_match_reference_writers(self, tmp_path, seed,
                                                  n_rows):
        assert_matches_reference_writers(tmp_path,
                                         hand_built_result(seed, n_rows))

    @pytest.mark.parametrize("budget, size, n_blocks", [
        (None, 1000, 7), (1, 5, 3), (2000, 40, 3)],
        ids=["default", "row_per_chunk", "few_rows"])
    def test_chunks_cut_across_blocks(self, tmp_path, monkeypatch, budget,
                                      size, n_blocks):
        if budget is not None:
            monkeypatch.setattr(cli, "_CHUNK_BYTES", budget)
        rng = np.random.default_rng(size)
        result = result_of(session_blocks(rng, [size] * n_blocks),
                           pool_blocks(rng, size, n_blocks))
        for rows in (result.session_rows, result.pool_rows):
            for form in (0, 1):
                edges = chunk_edges(rows, form)
                assert edges[-1] == len(rows)
                assert len(edges) >= 2
                assert any(edge % size for edge in edges[:-1])
        assert_matches_reference_writers(tmp_path, result)

    def test_zero_row_blocks(self, tmp_path, monkeypatch):
        # The engine keeps a block for a slot with no live session; such
        # blocks lead, trail, run in a row, and fall on a chunk's edge.
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 1500)
        rng = np.random.default_rng(5)
        sizes = [0, 3, 0, 0, 4, 0, 1, 5, 0, 2, 0]
        result = result_of(session_blocks(rng, sizes),
                           pool_blocks(rng, 0, 4))
        assert chunk_edges(result.session_rows, 1)[0] == 3
        assert len(result.pool_rows) == 0
        assert_matches_reference_writers(tmp_path, result)

    def test_only_zero_row_blocks(self, tmp_path):
        rng = np.random.default_rng(6)
        result = result_of(session_blocks(rng, [0, 0]),
                           pool_blocks(rng, 0, 2))
        assert_matches_reference_writers(tmp_path, result)
        assert (tmp_path / "new" / "t_sessions.csv").read_text() == \
            ",".join(SessionRow._fields) + "\n"
        assert (tmp_path / "new" / "t_sessions.ndjson").read_bytes() == b""

    def test_negative_ints(self, tmp_path):
        for value in (-1, -2**63):
            for field in ("slot", "window", "reserved"):
                assert_rejected(tmp_path, field, value)
        # A directly built Rows is not checked until it is written: a
        # negative column raises before its chunk is written as text.
        rng = np.random.default_rng(7)
        rows = session_blocks(rng, [3])
        _, columns = rows.blocks[0]
        rows.blocks[0] = (0, (*columns[:2], np.array([4, -1, 5]),
                              *columns[3:]))
        result = result_of(rows, pool_blocks(rng, 2, 1))
        with pytest.raises(ValueError, match="window"):
            emit(result, tmp_path / "direct", "t", ["tabular", "records"])
        assert (tmp_path / "direct" / "t_sessions.csv").read_text() == \
            ",".join(SessionRow._fields) + "\n"
        assert (tmp_path / "direct" / "t_sessions.ndjson").read_bytes() == b""

    @pytest.mark.parametrize("value", [2**63 + 5, 10**30],
                             ids=["2**63+5", "10**30"])
    def test_ints_beyond_int64(self, tmp_path, value):
        assert_rejected(tmp_path, "delivered", value)
        assert_rejected(tmp_path, "capacity", value)

    def test_values_that_are_not_ints(self, tmp_path):
        # Floats, digit strings and bools are refused, not read as ints,
        # also where numpy would read the whole column as ints.
        with pytest.raises(ValueError, match="^trace reserved: "):
            Rows.of(PoolRow, [PoolRow(0, 1, "send", 2.5, True),
                              PoolRow(0, 2, "send", "7", 4)])
        for field, value in [("reserved", 2.5), ("reserved", "7"),
                             ("capacity", True), ("window", 3.0),
                             ("window", np.True_)]:
            assert_rejected(tmp_path, field, value)

    @pytest.mark.parametrize("code", [-1, 3])
    def test_word_codes_without_a_word(self, tmp_path, code):
        # A directly built pool block whose kind code names no pool kind
        # raises, naming the field, before its chunk is written as text.
        rng = np.random.default_rng(8)
        rows = pool_blocks(rng, 3, 1)
        slot, (nodes, _, reserved, capacities) = rows.blocks[0]
        rows.blocks[0] = (slot, (nodes, np.array([0, code, 1]), reserved,
                                 capacities))
        result = result_of(session_blocks(rng, [2]), rows)
        with pytest.raises(ValueError, match=(
                r"^trace pool: a code outside \[0, 3\)$")):
            emit(result, tmp_path / "direct", "t", ["tabular", "records"])
        assert (tmp_path / "direct" / "t_pools.csv").read_text() == \
            ",".join(PoolRow._fields) + "\n"
        assert (tmp_path / "direct" / "t_pools.ndjson").read_bytes() == b""

    def test_one_row_table(self, tmp_path):
        rng = np.random.default_rng(9)
        result = result_of(session_blocks(rng, [0, 1, 0], first_slot=12),
                           pool_blocks(rng, 1, 1))
        assert len(result.session_rows) == len(result.pool_rows) == 1
        assert_matches_reference_writers(tmp_path, result)

    @pytest.mark.parametrize("protocol, network", ENGINE_RUNS)
    def test_engine_run_matches_reference_writers(self, tmp_path, protocol,
                                                  network):
        doc = minimal_doc(protocol=protocol, network=network, sessions=6,
                          n_slots=30)
        result = run(parse_config(write_config(tmp_path, doc)))
        assert isinstance(result.session_rows.blocks[0][1][0], np.ndarray)
        assert_matches_reference_writers(tmp_path, result)

    @pytest.mark.parametrize("protocol, network", ENGINE_RUNS)
    def test_staggered_run_matches_reference_writers(self, tmp_path,
                                                     protocol, network):
        # Zero-qubit sessions are routed but never admitted: summary rows
        # with nothing delivered and a 0.0 mean among finished ones.
        doc = minimal_doc(protocol=protocol, network=network,
                          sessions=STAGGERED, n_slots=30)
        result = run(parse_config(write_config(tmp_path, doc)))
        idle = [result.summary["sessions"][sid]
                for sid, spec in enumerate(STAGGERED) if spec["qubits"] == 0]
        assert idle and all(info["delivered"] == 0 and info["hops"] >= 1
                            and info["mean_window"] == 0.0 for info in idle)
        assert_matches_reference_writers(tmp_path, result)

    def test_summary_path_nodes_are_written_by_str(self, tmp_path):
        # ``%d`` would write a 2.5 node as 2 and True as 1.
        result = hand_built_result(5, 3)
        result.paths[sorted(result.paths)[0]] = (np.int64(3), 2.5, True, "x")
        assert_matches_reference_writers(tmp_path, result)

    def test_hand_built_summary_rows_of_every_kind(self, tmp_path):
        # A session delivers nothing at a 0.0 mean; some means are written
        # by %.6g with an exponent, and some paths have 80 nodes.
        emit(hand_built_result(2, 40), tmp_path, "t", ["tabular"])
        lines = (tmp_path / "t_summary.csv").read_text().splitlines()
        assert ["0", "0"] in [line.split(",")[1:3] for line in lines]
        assert any("e+06" in line for line in lines)
        assert max(line.count("-") for line in lines) == 79

    @pytest.mark.parametrize("field, value", [
        ("delivered", 2.5), ("delivered", True), ("delivered", np.int64(2)),
        ("hops", 2.0), ("hops", False), ("mean_window", np.float64(1.5)),
        ("mean_window", 1), ("mean_window", None)])
    @pytest.mark.parametrize("formats", SUBSETS, ids="+".join)
    def test_summary_values_of_another_type(self, tmp_path, field, value,
                                            formats):
        # %d would write a delivered of 2.5 as 2, and %r a numpy mean as
        # np.float64(1.5): such a summary is refused before it is written.
        result = hand_built_result(4, 3)
        sid = sorted(result.summary["sessions"])[1]
        result.summary["sessions"][sid][field] = value
        with pytest.raises(ValueError, match=f"^summary session {sid}: "):
            emit(result, tmp_path, "t", formats)
        assert not list(tmp_path.glob("t_summary.*"))


def assert_subsets_match_reference_writers(tmp_path, result):
    """Each file is written the same bytes by every ``SUBSETS`` call that
    writes it, those ``csv.writer`` or sorted-key ``json.dumps`` writes for
    its rows."""
    reference = tmp_path / "reference"
    write_references(reference, result)
    written = {}
    for formats in SUBSETS:
        for path in emit(result, tmp_path / "+".join(formats), "t", formats):
            written.setdefault(path.name, []).append(path.read_bytes())
    assert sorted(written) == sorted(
        f"t_{table}{suffix}" for table in ("sessions", "pools", "summary")
        for suffix in (".csv", ".ndjson"))
    for name, texts in written.items():
        assert len(texts) == 2 and texts[0] == texts[1], name
        assert texts[0] == (reference / name).read_bytes(), name


class TestFormatSubsets:
    @pytest.mark.parametrize("budget", [None, 3000])
    @pytest.mark.parametrize("protocol, network", ENGINE_RUNS)
    def test_engine_runs(self, tmp_path, monkeypatch, protocol, network,
                         budget):
        if budget is not None:
            monkeypatch.setattr(cli, "_CHUNK_BYTES", budget)
        doc = minimal_doc(protocol=protocol, network=network, sessions=6,
                          n_slots=30)
        result = run(parse_config(write_config(tmp_path, doc)))
        at = SessionRow._fields.index("phase") - 1
        assert all(columns[at].dtype == np.int64
                   for _, columns in result.session_rows.blocks)
        assert_subsets_match_reference_writers(tmp_path, result)

    @pytest.mark.parametrize("field", ["phase", "pool"])
    def test_hand_built_traces(self, tmp_path, field):
        # A word a str field does not have, or a code in its place.
        for word in ("XX", "Send", 0):
            assert_rejected(tmp_path, field, word)

    def test_hand_built_rows(self, tmp_path):
        assert_subsets_match_reference_writers(tmp_path,
                                               hand_built_result(12, 60))


#: Preset table rows with every kind of value a cell can hold: ints and
#: bools, floats (a sum with a long repr, values from 1e6 on, where
#: ``%.6g`` writes an exponent, NaN and both infinities), None, and strings
#: that CSV must quote.  The last row has a key the first lacks, which
#: neither file writes: the header is the first row's keys.
TABLE_ROWS = [
    {"label": "tele", "n": 3, "ok": True, "mean": 0.1 + 0.2, "gap": None},
    {"label": "a,b", "n": 0, "ok": False, "mean": 1e6, "gap": float("nan")},
    {"label": 'say "hi"', "n": 2**63, "ok": True, "mean": 1234567.0,
     "gap": float("inf")},
    {"label": "two\nlines", "n": -7, "ok": False, "mean": -float("inf"),
     "gap": 2.5e-7},
    {"label": "", "n": 10**6, "ok": None, "mean": 999999.5, "gap": 1e300,
     "extra": "not written"},
]


class TestEmitTable:
    @pytest.mark.parametrize("formats", SUBSETS, ids="+".join)
    def test_matches_reference_writers(self, tmp_path, formats):
        header = list(TABLE_ROWS[0])
        values = [[row[key] for key in header] for row in TABLE_ROWS]
        reference_csv(tmp_path / "t.csv", header, values)
        reference_records(tmp_path / "t.ndjson", header, values)
        written = emit_table(TABLE_ROWS, tmp_path / "out", "t", formats)
        assert [path.name for path in written] == [
            name for form, name in (("tabular", "t.csv"),
                                    ("records", "t.ndjson"))
            if form in formats]
        for path in written:
            assert path.read_bytes() == (tmp_path / path.name).read_bytes()

    def test_empty_table(self, tmp_path):
        written = emit_table([], tmp_path, "empty", ["tabular", "records"])
        assert [path.read_bytes() for path in written] == [b"\n", b""]


class TestEmitMemory:
    #: Bytes numpy and Python may hold at once while emit writes a trace,
    #: whatever its length, and how much more they may hold for a trace
    #: four times as long.  Rendering a whole file at once needs over 50 MB
    #: here, and chunks eight times the size about 12 MB; bookkeeping kept
    #: per block grows with the trace.
    PEAK_BYTES = 4 * 2**20
    GROWTH_BYTES = 2**18

    def test_peak_does_not_grow_with_the_trace(self, tmp_path):
        peaks = []
        for n_blocks in (250, 1000):
            rng = np.random.default_rng(n_blocks)
            # 200-row blocks: N = 50,000 and 4N rows in each table.
            result = result_of(session_blocks(rng, [200] * n_blocks),
                               pool_blocks(rng, 200, n_blocks))
            tracemalloc.start()
            try:
                emit(result, tmp_path / str(n_blocks), "m",
                     ["tabular", "records"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < self.PEAK_BYTES, peaks
        assert peaks[1] - peaks[0] < self.GROWTH_BYTES, peaks


class TestMain:
    def test_run_command(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc())
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert (tmp_path / "out" / "run_sessions.csv").exists()

    def test_error_is_machine_readable(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_doc(protocol="nonsense"))
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    @pytest.mark.parametrize("overrides", [
        {"sessions": [{"qubits": "five"}, {"qubits": 1}]},
        {"topology": {"waxman": 5}},
        {"sessions": [{"initial_window": -4}]},
        {"protocol": "tag", "network": "tag_relay",
         "sessions": [{"qubits": -3}]},
        {"topology": waxman(area_side=float("nan"))},
        {"topology": waxman(area_side=float("inf"))},
        {"topology": waxman(target_avg_degree=float("nan"))},
        {"topology": waxman(alpha=0)},
        {"topology": waxman(n_infra=1)},
        {"topology": waxman(alpha=0.0014)},
        {"topology": waxman(alpha=0.001)},
        {"topology": waxman(alpha=1e-300)},
        {"protocol": "tag", "network": "tag_relay",
         "sessions": [{"qubits": 2**63}]},
        {"sessions": [{"qubits": 2**63}]},
    ])
    def test_bad_session_or_waxman_is_an_error_record(self, tmp_path, capsys,
                                                     overrides):
        config = write_config(tmp_path, minimal_doc(**overrides))
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    def test_failed_calibration_is_an_error_record(self, tmp_path, capsys):
        # Degree 8 needs more neighbours than 8 nodes have.
        doc = minimal_doc(seed=1, topology=waxman(n_infra=8,
                                                  target_avg_degree=8.0))
        code = main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "GenerationError"
        assert record["message"] == "cannot reach degree 8.0 with 8 nodes"

    @pytest.mark.parametrize("protocol, network", [("tag", "tag_relay"),
                                                   ("tele", "tele")])
    def test_largest_session_runs(self, tmp_path, capsys, protocol, network):
        # Qubit counts are int64 columns: 2**63 - 1 qubits is the largest
        # session a run accepts.
        doc = minimal_doc(protocol=protocol, network=network,
                          sessions=[{"qubits": 2**63 - 1}])
        code = main(["run", "--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("second", [
        {"src": 10},
        {"dst": 10},
        {"src": 10, "dst": 10, "start_slot": 3},
    ], ids=["src_alone", "dst_alone", "src_is_dst"])
    def test_bad_endpoints_are_an_error_record(self, tmp_path, capsys, second):
        # Hosts of the 8-node Waxman graph are nodes 8..15.
        doc = minimal_doc(sessions=[{"src": 8, "dst": 9}, second])
        config = write_config(tmp_path, doc)
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "session 1" in record["message"]

    @pytest.mark.parametrize("overrides, field", [
        ({"slot_length": float("nan")}, "slot_length"),
        ({"congestion_weight": -50}, "congestion_weight"),
        ({"congestion_weight": float("nan")}, "congestion_weight"),
        ({"capacity": -5}, "capacity"),
        ({"congestion_weight": 2.0**21}, "congestion_weight"),
    ])
    def test_bad_run_number_is_an_error_record(self, tmp_path, capsys,
                                               overrides, field):
        config = write_config(tmp_path, minimal_doc(**overrides))
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert field in record["message"]

    @pytest.mark.parametrize("overrides", [
        {"protocol": "tag", "network": "tag_relay",
         "topology": inline_topology("tag_relay")},
        {"topology": inline_topology(kind="switch", capacity=0)},
    ], ids=["repeaters_in_relay_network", "switch_in_tele_network"])
    def test_node_kind_must_fit_network(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, minimal_doc(**overrides))
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "node 0" in record["message"]

    def test_boolean_edge_endpoint_is_an_error_record(self, tmp_path, capsys):
        # Not read as node 1.
        doc = minimal_doc(topology=inline_edge([0, True]))
        config = write_config(tmp_path, doc)
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    def test_whole_float_ids_run(self, tmp_path):
        # 0.0 follows the integer rule and reads as node 0.
        topology = inline_edge([0.0, 1.0])
        topology["inline"]["nodes"][0]["id"] = 0.0
        config = write_config(tmp_path, minimal_doc(topology=topology))
        assert main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 0

    def test_tag_pool_too_small_is_an_error_record(self, tmp_path, capsys):
        # No minimum capacity is checked up front: the run stops at the
        # first pool that cannot fit its sessions even with every window
        # halved, and names that pool.
        doc = minimal_doc(protocol="tag", network="tag_relay", seed=1,
                          capacity=10)
        config = write_config(tmp_path, doc)
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        record = json.loads(captured.err)
        assert record["error"] == "InfeasibleReservationError"
        assert "send@5" in record["message"]

    def test_fra_overcommit_is_an_error_record(self, tmp_path, capsys):
        # FRA grants window // 2 to a window above the fair share even when
        # that is still above it, so two windows of 8 overfill a transit
        # pool of 13 units; documented, not mended.
        doc = minimal_doc(protocol="fra", seed=3, capacity=20, n_slots=5,
                          sessions=[{"initial_window": 8}] * 2)
        config = write_config(tmp_path, doc)
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert json.loads(captured.err) == {
            "error": "CapacityExceededError",
            "message": "pool transit@7: reserving 8 with only 5 of 13 free",
        }

    def test_preset_requires_seeds(self, tmp_path, capsys):
        code = main(["preset", "appendix_e", "--seeds", "",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_bad_seed_is_an_error_record(self, tmp_path, capsys):
        code = main(["preset", "appendix_e", "--seeds", "1,x",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "--seeds" in record["message"]

    @pytest.mark.parametrize("seeds", ["1,1", "2,1,3,1"])
    def test_repeated_seed_is_an_error_record(self, tmp_path, capsys, seeds):
        # Each seed writes its own files once; a repeat would run and
        # write them twice while the summary counted the seed once.
        code = main(["preset", "appendix_e", "--seeds", seeds,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ConfigError",
            "message": "seed 1 is listed more than once",
        }
        assert not (tmp_path / "out").exists()

    def test_appendix_preset_end_to_end(self, tmp_path):
        code = main(["preset", "appendix_e", "--seeds", "0",
                     "--out", str(tmp_path / "out"), "--format", "tabular"])
        assert code == 0
        summary = tmp_path / "out" / "appendix_e_summary.csv"
        assert summary.exists()
        lines = summary.read_text().splitlines()
        assert len(lines) == 3  # header + tele + tag rows
        assert (tmp_path / "out" / "appendix_e" /
                "tele_seed0_sessions.csv").exists()


class TestRunPreset:
    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ConfigError):
            run_preset("nope", [1], tmp_path, ["tabular"])

    @pytest.mark.parametrize("seeds, match", [
        ([], "^at least one seed is required$"),
        ([4, 4], "^seed 4 is listed more than once$"),
    ], ids=["none", "repeated"])
    def test_seed_list_checked_before_any_run(self, tmp_path, seeds, match):
        # Without seeds tradeoff_prob's summary divided by zero.
        with pytest.raises(ConfigError, match=match):
            run_preset("tradeoff_prob", seeds, tmp_path, ["tabular"])
        assert not any(tmp_path.iterdir())

    def test_no_result_outlives_its_row(self, tmp_path, monkeypatch):
        # A preset keeps each run's table row, not its trace: when a run
        # starts, every earlier run's result is gone, and so is the last
        # one once the tables are written.
        made = []

        def tracked(config):
            gc.collect()
            assert [ref() for ref in made] == [None] * len(made)
            result = run(config)
            made.append(weakref.ref(result))
            return result

        monkeypatch.setattr(cli, "run", tracked)
        run_preset("tradeoff_slot", [1], tmp_path, ["tabular"])
        gc.collect()
        assert len(made) == 2 and [ref() for ref in made] == [None, None]

    def test_byte_identical_reruns(self, tmp_path):
        for attempt in ("x", "y"):
            run_preset("appendix_e", [0], tmp_path / attempt, ["tabular"])
        base = tmp_path / "x"
        for path in sorted(base.rglob("*.csv")):
            twin = tmp_path / "y" / path.relative_to(base)
            assert path.read_bytes() == twin.read_bytes(), path.name


# -- generated documents ---------------------------------------------------

#: Values of the wrong type for most fields, or out of their range:
#: strings (``"5"`` reads as a number), null, containers, bools, NaN and
#: the infinities, a fraction, zero and negative ints.  ``HUGE`` values
#: are never drawn for the ``GROWING`` fields, which accept them and build
#: a run or a graph that large.
BAD = ["5", "x", "", None, [], {}, [1], True, False, float("nan"),
       float("inf"), -float("inf"), 0.5, -1, 0, -2**70, -1e308]
HUGE = [2**70, 10**400, 1e308]
GROWING = {"n_slots", "n_infra"}
RUN_FIELDS = [*cli._RUN_NUMBERS, "protocol", "network", "topology",
              "sessions"]
NODE_FIELDS = ["id", "kind", "x", "y", "capacity"]
BAD_EDGES = [[0, 0], [0, 99], [0, 1, 2], [0], ["0", "1"], [0, True],
             [0.5, 1]]
DOCUMENT_COUNT = 300


def bad_value(draw, key=None):
    return draw.choice(BAD if key in GROWING else BAD + HUGE)


def base_document(draw):
    """A small run that is accepted: few slots, sessions and nodes."""
    protocol, network = draw.choice(ENGINE_RUNS)
    if draw.random() < 0.5:
        topology = {"waxman": {"n_infra": draw.randint(2, 8)}}
    else:
        topology = {"inline": to_document(generate_waxman(
            4, 2.0, 10.0, 0.4, seed=1, network=NetworkKind(network)))}
    return {"seed": draw.randint(0, 9), "protocol": protocol,
            "network": network, "topology": topology,
            "sessions": draw.choice([2, [{}, {"qubits": 5}],
                                     [{"start_slot": 1, "initial_window": 2}]]),
            "n_slots": draw.randint(0, 4)}


def break_document(draw, doc):
    """Break one field of ``doc``: a number, a structural field, a
    missing or unknown key, or a part of an inline topology."""
    topology, sessions = doc["topology"], doc["sessions"]
    inline = topology.get("inline")
    kind = draw.randrange(6)
    if kind == 0:
        key = draw.choice(RUN_FIELDS)
        doc[key] = bad_value(draw, key)
    elif kind == 1 and "waxman" in topology:
        key = draw.choice(list(cli._WAXMAN_NUMBERS))
        topology["waxman"][key] = bad_value(draw, key)
    elif kind == 1:
        node = draw.choice(inline["nodes"])
        node[draw.choice(NODE_FIELDS)] = draw.choice(
            BAD + HUGE + ["host", "switch", "repeater", "relay"])
    elif kind == 2:
        if not isinstance(sessions, list) or not sessions:
            sessions = doc["sessions"] = [{}]
        key = draw.choice(list(cli._SESSION_NUMBERS))
        draw.choice(sessions)[key] = bad_value(draw, key)
    elif kind == 3:
        where = draw.choice([doc, topology, *topology.values(),
                             *(sessions if isinstance(sessions, list) else [])])
        if draw.random() < 0.5 and where:
            del where[draw.choice(sorted(where))]
        else:
            where[draw.choice(["extra", "Seed", "n slots"])] = 1
    elif kind == 4 and inline is not None:
        part = draw.choice(["edge", "nodes", "edges", "kind", "inline"])
        if part == "edge":
            inline["edges"][0] = draw.choice(BAD + HUGE + BAD_EDGES)
        elif part == "inline":
            topology["inline"] = bad_value(draw)
        else:
            inline[part] = bad_value(draw)
    else:
        doc[draw.choice(["topology", "sessions"])] = draw.choice([
            *BAD, *HUGE, [None], [[]], 2**20 + 1,
            {"waxman": {"n_infra": 3}, "inline": {}}, {"other": 1}])


def generate_documents(count, seed):
    """``count`` run documents, each an accepted base with none to three of
    its fields broken, drawn from ``seed``.  A break whose part an earlier
    one already replaced by a value of another type is skipped."""
    draw = random.Random(seed)
    documents = []
    for _ in range(count):
        doc = base_document(draw)
        for _ in range(draw.choice([0, 1, 1, 2, 3])):
            try:
                break_document(draw, doc)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass
        documents.append(doc)
    return documents


#: Inline node coordinates that are not finite numbers, each refused.
BAD_COORDINATES = [("x", True), ("x", float("nan")), ("y", float("inf")),
                   ("x", -float("inf")), ("y", False)]


def test_generated_documents_run_or_are_refused(tmp_path, capsys):
    """Every document either runs, printing the three files it wrote, or
    ends in one JSON error record on stderr and exit code 2.  Last come
    documents whose only fault is a ``BAD_COORDINATES`` entry."""
    codes = []
    documents = generate_documents(DOCUMENT_COUNT, 2) + [
        minimal_doc(topology=inline_topology(**{axis: value}))
        for axis, value in BAD_COORDINATES]
    for index, doc in enumerate(documents):
        config = write_config(tmp_path, doc, f"doc{index}.json")
        try:
            codes.append(main(["run", "--config", str(config),
                               "--out", str(tmp_path / "out")]))
        except Exception as exc:
            raise AssertionError(f"document {index}: {json.dumps(doc)}") \
                from exc
        out, err = capsys.readouterr()
        if codes[-1] == 0:
            assert len(out.splitlines()) == 3 and err == "", index
        else:
            assert codes[-1] == 2 and out == "", index
            (line,) = err.splitlines()
            assert json.loads(line).keys() == {"error", "message"}, index
            if index >= DOCUMENT_COUNT:
                axis, _ = BAD_COORDINATES[index - DOCUMENT_COUNT]
                assert f"node 0: {axis}" in json.loads(line)["message"]
    assert codes[DOCUMENT_COUNT:] == [2] * len(BAD_COORDINATES)
    assert codes.count(0) >= DOCUMENT_COUNT // 10
    assert codes.count(2) >= DOCUMENT_COUNT // 2
