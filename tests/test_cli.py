"""Config parsing, file emission, and the command-line entry points."""

import json

import pytest

from qdnsim.cli import emit, emit_table, main, parse_config, run_preset
from qdnsim.engine import Protocol, run
from qdnsim.errors import ConfigError
from qdnsim.topology import generate_waxman, to_document


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
    ])
    def test_bad_session_or_waxman_is_an_error_record(self, tmp_path, capsys,
                                                     overrides):
        config = write_config(tmp_path, minimal_doc(**overrides))
        code = main(["run", "--config", str(config),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"

    def test_preset_requires_seeds(self, tmp_path, capsys):
        code = main(["preset", "appendix_e", "--seeds", "",
                     "--out", str(tmp_path / "out")])
        assert code == 2

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

    def test_byte_identical_reruns(self, tmp_path):
        for attempt in ("x", "y"):
            run_preset("appendix_e", [0], tmp_path / attempt, ["tabular"])
        base = tmp_path / "x"
        for path in sorted(base.rglob("*.csv")):
            twin = tmp_path / "y" / path.relative_to(base)
            assert path.read_bytes() == twin.read_bytes(), path.name
