"""Command-line front end: ad-hoc runs from a config file and presets.

Output is byte-stable for fixed inputs: tabular files use 6 significant
digits, record files are sorted-key JSON lines, and all rows appear in a
fixed order.  Session and pool rows hold only ints and fixed ASCII words,
so each of their lines is filled from one ``%``-template per format with
the values of the trace's column blocks, in that format's field order, and
streamed to the file.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Sequence
from itertools import chain
from pathlib import Path as FsPath
from typing import get_type_hints

from . import presets as preset_mod
from .engine import (PoolRow, Protocol, RunConfig, RunResult, SessionRow,
                     SessionSpec, WaxmanSpec, run)
from .errors import ConfigError, QdnError
from .topology import NetworkKind, Topology, from_document, number
from .trace import Rows

#: Number fields of a run, a Waxman spec and a listed session, by type.
#: Defaults for the fields a document leaves out come from the dataclasses.
_RUN_NUMBERS = {"seed": int, "n_slots": int, "p": float, "slot_length": float,
                "capacity": int, "congestion_weight": float}
_WAXMAN_NUMBERS = {"n_infra": int, "target_avg_degree": float,
                   "area_side": float, "alpha": float}
_SESSION_NUMBERS = {"src": int, "dst": int, "qubits": int, "start_slot": int,
                    "initial_window": int}
#: Session fields where null means the same as leaving the key out.
_NULLABLE = {"src", "dst", "qubits", "initial_window"}
_CONFIG_KEYS = {*_RUN_NUMBERS, "protocol", "network", "topology", "sessions"}
_REQUIRED_KEYS = {"seed", "protocol", "network", "topology", "sessions",
                  "n_slots"}


def _convert(where, key: str, kind: type, value):
    """``topology.number``, with its error as a ConfigError."""
    try:
        return number(value, kind, f"{where}: {key}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_keys(where, doc: dict, allowed, required=()):
    unknown = doc.keys() - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - doc.keys()
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _numbers(where, doc: dict, table: dict, nullable: set = frozenset()):
    """Keyword arguments for the number fields ``doc`` sets, converted to
    their ``table`` types; a null in a ``nullable`` field is left out."""
    return {key: _convert(where, key, table[key], value)
            for key, value in doc.items()
            if key in table and not (value is None and key in nullable)}


def _topology(path, doc) -> Topology | WaxmanSpec:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ConfigError(
            f"{path}: topology must be {{'waxman': ...}} or {{'inline': ...}}"
        )
    if "waxman" in doc:
        spec = doc["waxman"]
        where = f"{path}: waxman"
        if not isinstance(spec, dict):
            raise ConfigError(f"{where} topology must be an object")
        _check_keys(where, spec, _WAXMAN_NUMBERS, {"n_infra"})
        return WaxmanSpec(**_numbers(where, spec, _WAXMAN_NUMBERS))
    if "inline" in doc:
        try:
            return from_document(doc["inline"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad inline topology: {exc}") from exc
    raise ConfigError(f"{path}: topology must be 'waxman' or 'inline'")


def _sessions(path, doc) -> list[SessionSpec] | int:
    if isinstance(doc, int) and not isinstance(doc, bool):
        return doc
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: sessions must be a count or a list")
    sessions = []
    for i, entry in enumerate(doc):
        where = f"{path}: session {i}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object")
        _check_keys(where, entry, _SESSION_NUMBERS)
        sessions.append(SessionSpec(
            **_numbers(where, entry, _SESSION_NUMBERS, _NULLABLE)))
    return sessions


def parse_config(path: str | FsPath) -> RunConfig:
    """Load and validate a run configuration from a JSON document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(path, doc, _CONFIG_KEYS, _REQUIRED_KEYS)
    try:
        protocol = Protocol(doc["protocol"])
        network = NetworkKind(doc["network"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = RunConfig(
        protocol=protocol,
        network=network,
        topology=_topology(path, doc["topology"]),
        sessions=_sessions(path, doc["sessions"]),
        **_numbers(path, doc, _RUN_NUMBERS),
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


#: Each trace field's cell in a CSV line and in a JSON record, by type.
#: The ``str`` fields hold short ASCII words (``phase``: ``-``/``SS``/``CA``;
#: ``pool``: ``send``/``receive``/``transit``) that neither format escapes.
_CELLS = {int: ("%d", "%d"), str: ("%s", '"%s"')}

#: Stands for the slot in a trace line template; each block writes its own
#: slot in once.
_SLOT = "\0"


def _line_templates(row_type) -> tuple[tuple[str, list[str]], ...]:
    """A trace table's CSV line template and its sorted-key ndjson line
    template, each with the order of the fields after ``slot`` that fill
    it.  ``%d`` prints ``True`` as ``1`` where ``csv`` and ``json`` would
    not, so every int field must hold exactly an ``int``."""
    types = get_type_hints(row_type)
    cells = {field: (_SLOT, _SLOT) if field == "slot" else _CELLS[types[field]]
             for field in row_type._fields}
    fields, keys = row_type._fields, sorted(row_type._fields)
    csv_line = ",".join(cells[field][0] for field in fields) + "\n"
    ndjson_line = "{%s}\n" % ", ".join(
        f'"{key}": {cells[key][1]}' for key in keys)
    return ((csv_line, [f for f in fields if f != "slot"]),
            (ndjson_line, [key for key in keys if key != "slot"]))


_TEMPLATES = {row_type: _line_templates(row_type)
              for row_type in (SessionRow, PoolRow)}


def _text(rows: Rows, form: int):
    """A trace table's lines filled from ``_TEMPLATES`` form 0 (CSV) or 1
    (ndjson), one string per block."""
    line, fields = _TEMPLATES[rows.row_type][form]
    for slot, values in rows.slots(fields):
        yield "".join(map(line.replace(_SLOT, str(slot)).__mod__, values))


def _write_csv(path: FsPath, header: Sequence[str], rows) -> None:
    """Write ``header`` and ``rows``: a trace's ``Rows`` fill their line
    template, and other rows go through ``_fmt`` and ``csv``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, Rows):
            handle.writelines(_text(rows, 0))
            return
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_records(path: FsPath, records) -> None:
    """Write one line per record: a trace's ``Rows`` fill their line
    template, and dicts go through sorted-key ``json.dumps``."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if isinstance(records, Rows):
            handle.writelines(_text(records, 1))
            return
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


_SUMMARY_HEADER = ("session", "delivered", "mean_window", "hops", "path")


def _summary_rows(result: RunResult) -> list[tuple]:
    return [
        (sid, info["delivered"], info["mean_window"], info["hops"],
         "-".join(str(n) for n in result.paths[sid]))
        for sid, info in sorted(result.summary["sessions"].items())
    ]


def _write_table(out: FsPath, name: str, header: Sequence[str], rows,
                 formats: list[str], trailer: dict | None = None
                 ) -> list[FsPath]:
    """Write ``rows``, a trace's ``Rows`` or a sequence of value tuples in
    ``header`` order, as ``name.csv`` and/or ``name.ndjson``; ``trailer`` is
    a last line of records only.  Records other than ``Rows`` are built one
    at a time as they are written."""
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "tabular" in formats:
        written.append(out / f"{name}.csv")
        _write_csv(written[-1], header, rows)
    if "records" in formats:
        written.append(out / f"{name}.ndjson")
        records = rows
        if not isinstance(rows, Rows):
            records = (dict(zip(header, row)) for row in rows)
        if trailer is not None:
            records = chain(records, [trailer])
        _write_records(written[-1], records)
    return written


def emit(result: RunResult, out_dir: str | FsPath, name: str,
         formats: list[str]) -> list[FsPath]:
    """Write one run's trace and summary files; returns the paths, every
    tabular file before every records file."""
    out = FsPath(out_dir)
    totals = {key: result.summary[key] for key in (
        "delivered_total", "throughput_per_slot", "throughput_per_time",
        "jain_mean_window")}
    totals.update(protocol=result.protocol, seed=result.seed)
    written = [
        *_write_table(out, f"{name}_sessions", SessionRow._fields,
                      Rows.of(SessionRow, result.session_rows), formats),
        *_write_table(out, f"{name}_pools", PoolRow._fields,
                      Rows.of(PoolRow, result.pool_rows), formats),
        *_write_table(out, f"{name}_summary", _SUMMARY_HEADER,
                      _summary_rows(result), formats, totals),
    ]
    return sorted(written, key=lambda path: path.suffix == ".ndjson")


def emit_table(rows: list[dict], out_dir: str | FsPath, name: str,
               formats: list[str]) -> list[FsPath]:
    """Write one flat table under both requested formats."""
    header = list(rows[0]) if rows else []
    return _write_table(FsPath(out_dir), name, header,
                        [[row[k] for k in header] for row in rows], formats)


def run_preset(name: str, seeds: list[int], out_dir: str | FsPath,
               formats: list[str]) -> list[FsPath]:
    """Execute every run of a preset and write traces plus summary tables."""
    if not seeds:
        raise ConfigError("at least one seed is required")
    for index, seed in enumerate(seeds):
        if seed in seeds[:index]:
            raise ConfigError(f"seed {seed} is listed more than once")
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

    preset_cmd = sub.add_parser("preset", help="run a canned experiment")
    preset_cmd.add_argument("name", choices=sorted(preset_mod.PRESETS))
    preset_cmd.add_argument("--seeds", required=True,
                            help="comma-separated seed list")
    for cmd in (run_cmd, preset_cmd):
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--format", action="append",
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
            seeds = [_convert("preset", "--seeds", int, s)
                     for s in args.seeds.split(",") if s.strip()]
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
