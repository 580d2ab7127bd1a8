"""Command-line front end: ad-hoc runs from a config file and presets.

Output is byte-stable for fixed inputs: tabular files use 6 significant
digits, record files are sorted-key JSON lines, and all rows appear in a
fixed order.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path as FsPath

from . import presets as preset_mod
from .engine import Protocol, RunConfig, RunResult, SessionSpec, WaxmanSpec, run
from .errors import ConfigError, QdnError
from .topology import NetworkKind, from_document

_CONFIG_KEYS = {
    "seed", "protocol", "network", "topology", "sessions", "n_slots",
    "p", "slot_length", "capacity", "congestion_weight",
}
_SESSION_KEYS = {"src", "dst", "qubits", "start_slot", "initial_window"}
_REQUIRED_KEYS = {"seed", "protocol", "network", "topology", "sessions",
                  "n_slots"}
_WAXMAN_KEYS = {"n_infra", "target_avg_degree", "area_side", "alpha"}


def _convert(where, key: str, kind: type, value):
    """``kind(value)``, or a ConfigError that names the key."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {key}: {exc}") from exc


def parse_config(path: str | FsPath) -> RunConfig:
    """Load and validate a run configuration from a JSON document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(doc)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")

    try:
        protocol = Protocol(doc["protocol"])
        network = NetworkKind(doc["network"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    topology_doc = doc["topology"]
    if not isinstance(topology_doc, dict) or len(topology_doc) != 1:
        raise ConfigError(
            f"{path}: topology must be {{'waxman': ...}} or {{'inline': ...}}"
        )
    if "waxman" in topology_doc:
        spec = topology_doc["waxman"]
        unknown = set(spec) - _WAXMAN_KEYS
        if unknown:
            raise ConfigError(f"{path}: unknown waxman keys {sorted(unknown)}")
        if "n_infra" not in spec:
            raise ConfigError(f"{path}: waxman topology needs n_infra")
        where = f"{path}: waxman"
        topology = WaxmanSpec(
            n_infra=_convert(where, "n_infra", int, spec["n_infra"]),
            target_avg_degree=_convert(where, "target_avg_degree", float,
                                       spec.get("target_avg_degree", 4.0)),
            area_side=_convert(where, "area_side", float,
                               spec.get("area_side", 100.0)),
            alpha=_convert(where, "alpha", float, spec.get("alpha", 0.4)),
        )
    elif "inline" in topology_doc:
        try:
            topology = from_document(topology_doc["inline"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad inline topology: {exc}") from exc
    else:
        raise ConfigError(f"{path}: topology must be 'waxman' or 'inline'")

    sessions_doc = doc["sessions"]
    if isinstance(sessions_doc, int) and not isinstance(sessions_doc, bool):
        sessions: list[SessionSpec] | int = sessions_doc
    elif isinstance(sessions_doc, list):
        sessions = []
        for i, entry in enumerate(sessions_doc):
            if not isinstance(entry, dict):
                raise ConfigError(f"{path}: session {i} must be an object")
            unknown = set(entry) - _SESSION_KEYS
            if unknown:
                raise ConfigError(
                    f"{path}: session {i}: unknown keys {sorted(unknown)}"
                )
            sessions.append(SessionSpec(
                src=entry.get("src"),
                dst=entry.get("dst"),
                qubits=entry.get("qubits"),
                start_slot=_convert(f"{path}: session {i}", "start_slot", int,
                                    entry.get("start_slot", 0)),
                initial_window=entry.get("initial_window"),
            ))
    else:
        raise ConfigError(f"{path}: sessions must be a count or a list")

    cfg = RunConfig(
        seed=_convert(path, "seed", int, doc["seed"]),
        protocol=protocol,
        network=network,
        topology=topology,
        sessions=sessions,
        n_slots=_convert(path, "n_slots", int, doc["n_slots"]),
        p=_convert(path, "p", float, doc.get("p", 1.0)),
        slot_length=_convert(path, "slot_length", float,
                             doc.get("slot_length", 1.0)),
        capacity=_convert(path, "capacity", int, doc.get("capacity", 1000)),
        congestion_weight=_convert(path, "congestion_weight", float,
                                   doc.get("congestion_weight", 4.0)),
    )
    cfg.validate()
    return cfg


# -- emission -------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.6g" % value
    if value is None:
        return ""
    return str(value)


def _write_csv(path: FsPath, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_records(path: FsPath, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def _summary_rows(result: RunResult):
    for sid in sorted(result.summary["sessions"]):
        info = result.summary["sessions"][sid]
        yield {
            "session": sid,
            "delivered": info["delivered"],
            "mean_window": info["mean_window"],
            "hops": info["hops"],
            "path": "-".join(str(n) for n in result.paths[sid]),
        }


def emit(result: RunResult, out_dir: str | FsPath, name: str,
         formats: list[str]) -> list[FsPath]:
    """Write one run's trace and summary files; returns the paths."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    session_header = list(result.session_rows[0]._fields) if result.session_rows \
        else ["slot", "session", "hop", "window", "congested", "granted",
              "delivered", "phase", "firsts", "seconds", "losses", "stored"]
    pool_header = ["slot", "node", "pool", "reserved", "capacity"]
    summary_header = ["session", "delivered", "mean_window", "hops", "path"]

    if "tabular" in formats:
        paths = {
            "sessions": out / f"{name}_sessions.csv",
            "pools": out / f"{name}_pools.csv",
            "summary": out / f"{name}_summary.csv",
        }
        _write_csv(paths["sessions"], session_header, result.session_rows)
        _write_csv(paths["pools"], pool_header, result.pool_rows)
        _write_csv(
            paths["summary"], summary_header,
            ([row[k] for k in summary_header] for row in _summary_rows(result)),
        )
        written.extend(paths.values())
    if "records" in formats:
        paths = {
            "sessions": out / f"{name}_sessions.ndjson",
            "pools": out / f"{name}_pools.ndjson",
            "summary": out / f"{name}_summary.ndjson",
        }
        _write_records(paths["sessions"],
                       (row._asdict() for row in result.session_rows))
        _write_records(paths["pools"],
                       (row._asdict() for row in result.pool_rows))
        totals = {
            "delivered_total": result.summary["delivered_total"],
            "throughput_per_slot": result.summary["throughput_per_slot"],
            "throughput_per_time": result.summary["throughput_per_time"],
            "jain_mean_window": result.summary["jain_mean_window"],
            "protocol": result.protocol,
            "seed": result.seed,
        }
        _write_records(paths["summary"],
                       list(_summary_rows(result)) + [totals])
        written.extend(paths.values())
    return written


def emit_table(rows: list[dict], out_dir: str | FsPath, name: str,
               formats: list[str]) -> list[FsPath]:
    """Write one flat table under both requested formats."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    header = list(rows[0].keys()) if rows else []
    if "tabular" in formats:
        path = out / f"{name}.csv"
        _write_csv(path, header, ([row[k] for k in header] for row in rows))
        written.append(path)
    if "records" in formats:
        path = out / f"{name}.ndjson"
        _write_records(path, rows)
        written.append(path)
    return written


def run_preset(name: str, seeds: list[int], out_dir: str | FsPath,
               formats: list[str]) -> list[FsPath]:
    """Execute every run of a preset and write traces plus summary tables."""
    preset = preset_mod.get_preset(name)
    runs = preset.build(seeds)
    results: dict[str, RunResult] = {}
    written: list[FsPath] = []
    run_dir = FsPath(out_dir) / name
    for preset_run in runs:
        result = run(preset_run.config)
        results[preset_run.label] = result
        written.extend(emit(result, run_dir, preset_run.label, formats))
    for table_name, rows in preset.summarize(results).items():
        written.extend(
            emit_table(rows, out_dir, f"{name}_{table_name}", formats)
        )
    return written


# -- argument parsing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdnsim",
        description="Deterministic simulator of quantum data network transports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute one configured run")
    run_cmd.add_argument("--config", required=True, help="JSON run config")
    run_cmd.add_argument("--out", required=True, help="output directory")
    run_cmd.add_argument("--format", action="append",
                         choices=["tabular", "records"], default=None)

    preset_cmd = sub.add_parser("preset", help="run a canned experiment")
    preset_cmd.add_argument("name", choices=sorted(preset_mod.PRESETS))
    preset_cmd.add_argument("--seeds", required=True,
                            help="comma-separated seed list")
    preset_cmd.add_argument("--out", required=True, help="output directory")
    preset_cmd.add_argument("--format", action="append",
                            choices=["tabular", "records"], default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    formats = args.format or ["tabular"]
    try:
        if args.command == "run":
            cfg = parse_config(args.config)
            result = run(cfg)
            written = emit(result, args.out, FsPath(args.config).stem, formats)
        else:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
            if not seeds:
                raise ConfigError("at least one seed is required")
            written = run_preset(args.name, seeds, args.out, formats)
    except (QdnError, OSError, ValueError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
