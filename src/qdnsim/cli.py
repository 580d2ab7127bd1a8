"""Command-line front end: ad-hoc runs from a config file and presets.

Output is byte-stable for fixed inputs: tabular files use 6 significant
digits, record files are sorted-key JSON lines, and all rows appear in a
fixed order.  Each kind of file has one writer, which writes the files of
the requested formats that ``_outputs`` lists, CSV first.  Session and
pool rows hold only ints and fixed ASCII words, so ``_write_trace``
renders their files by a numpy byte kernel rather than by ``csv`` and
``json``, a chunk of rows at a time and both formats in one pass.
Each int64 column of a chunk (see ``trace``) becomes a NUL-padded uint8
matrix of its text, once for every format: a ``str`` field's codes by
one lookup of its words, an ``int`` field's values by a digit pass (one
table lookup per three digits), and a negative value raises ValueError.
Between the literal bytes of a format's line, in its field order, the
columns make one matrix of the chunk's lines; dropping every NUL from it,
in one ``bytes.translate`` pass, gives their bytes, which are streamed to
that format's file.  ``_write_summary`` writes the per-session summary
from two fixed line templates, one ``%`` format per session and format;
only its totals trailer goes through ``json``.  ``emit_table`` writes the
preset tables through ``csv`` and ``json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import ExitStack
from itertools import chain
from pathlib import Path as FsPath

import numpy as np

from . import presets as preset_mod
from .engine import (PoolRow, Protocol, RunConfig, RunResult, SessionRow,
                     SessionSpec, WaxmanSpec, run)
from .errors import ConfigError, QdnError
from .topology import NetworkKind, Topology, from_document, number
from .trace import WORDS, Rows

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
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
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


#: Bytes of line matrix a trace table is rendered in at a time, counting
#: every field of the widest requested line at the widest int64 width (see
#: ``_render``).
_CHUNK_BYTES = 1 << 19

_WIDEST = len(str(np.iinfo(np.int64).max))
_TENS = 10 ** np.arange(_WIDEST, dtype=np.int64)
#: Column ``i`` is ``i`` as three ASCII digits, zero-padded.
_DIGITS = np.array([list(b"%03d" % i) for i in range(1000)],
                   dtype=np.uint8).T.copy()
#: Per ``str`` field, column ``i`` is the word of code ``i``, NUL-padded.
_WORD_CELLS = {field: np.array(words, dtype="S")[:, None].view(np.uint8).T
               for field, words in WORDS.items()}


def _line_templates(row_type) -> tuple[tuple[list[np.ndarray], list[int]],
                                       ...]:
    """A trace table's CSV line and its sorted-key ndjson line, each as the
    literal bytes around its fields, as uint8 columns, and the indices in
    ``row_type._fields`` of those fields: field ``i`` goes between literals
    ``i`` and ``i + 1``.  The ``WORDS`` fields hold short ASCII words that
    neither format escapes, so the ndjson line quotes them in its
    literals."""
    fields, keys = list(row_type._fields), sorted(row_type._fields)
    quote = {field: '"' if field in WORDS else "" for field in fields}
    csv_literals = ["", *[","] * (len(fields) - 1), "\n"]
    ndjson_literals = ["{", *[", "] * (len(keys) - 1), "}\n"]
    for i, key in enumerate(keys):
        ndjson_literals[i] += f'"{key}": {quote[key]}'
        ndjson_literals[i + 1] = quote[key] + ndjson_literals[i + 1]
    return tuple(([np.frombuffer(literal.encode(), np.uint8)[:, None]
                   for literal in literals], list(map(fields.index, order)))
                 for literals, order in ((csv_literals, fields),
                                         (ndjson_literals, keys)))


_TEMPLATES = {row_type: _line_templates(row_type)
              for row_type in (SessionRow, PoolRow)}


def _digit_cells(values: np.ndarray) -> np.ndarray:
    """Non-negative int64 ``values`` as a ``(w, n)`` uint8 matrix whose
    row ``k`` holds every value's ``k``-th decimal digit, right-aligned, NUL
    where it would be a leading zero.  One table lookup writes three rows."""
    width = len(str(values.max()))
    groups = -(-width // 3)
    cells = np.empty((3 * groups, len(values)), dtype=np.uint8)
    rest = values
    for group in range(groups - 1, 0, -1):
        rest, low = np.divmod(rest, 1000)
        _DIGITS.take(low, axis=1, out=cells[3 * group:3 * group + 3])
    _DIGITS.take(rest, axis=1, out=cells[:3])
    cells = cells[3 * groups - width:]
    cells[:-1] *= values >= _TENS[width - 1:0:-1, None]
    return cells


def _cells(field: str, values: np.ndarray) -> np.ndarray:
    """An int64 column's values as a ``(w, n)`` uint8 matrix of their text,
    one value per column, NUL-padded: a ``WORDS`` field's codes by one
    ``_WORD_CELLS`` lookup, and an int field's by ``_digit_cells``.  Raises
    ValueError, naming the field, for a negative int or a code with no
    word."""
    if field in WORDS:
        if not 0 <= values.min() <= values.max() < len(WORDS[field]):
            raise ValueError(f"trace {field}: a code outside "
                             f"[0, {len(WORDS[field])})")
        return _WORD_CELLS[field].take(values, axis=1)
    if values.min() < 0:
        raise ValueError(f"trace {field}: a negative int")
    return _digit_cells(values)


def _field_cells(segments, fields, shared) -> list[np.ndarray]:
    """Every field's cells over ``segments``, ``(slot, columns, start,
    stop)`` row ranges of consecutive blocks; ``fields`` names each field
    after ``slot``, and the slot's cells come first.  A column that every
    segment holds, more than once or from an earlier chunk, is converted
    whole once, kept in ``shared`` by id and field, and sliced."""
    counts = [stop - start for *_, start, stop in segments]
    slots = _cells("slot", np.array([slot for slot, *_ in segments],
                                    dtype=np.int64))
    cells = [np.repeat(slots, counts, axis=1)]
    for at, field in enumerate(fields):
        pieces = [(columns[at], start, stop)
                  for _, columns, start, stop in segments]
        column = pieces[0][0]
        key = (id(column), field)
        if ((len(pieces) > 1 or key in shared)
                and all(c is column for c, *_ in pieces)):
            if key not in shared:
                shared[key] = _cells(field, column)
            whole = shared[key]
            cells.append(np.concatenate(
                [whole[:, start:stop] for _, start, stop in pieces], axis=1))
            continue
        cells.append(_cells(field, np.concatenate(
            [column[start:stop] for column, start, stop in pieces])))
    return cells


def _lay_out(literals, cells) -> np.ndarray:
    """One form's lines as one uint8 array.  A matrix holds a line per
    column: the literals' bytes in every column, and between them each
    field's cells; reading it by lines and dropping every NUL gives the
    text."""
    parts = [*chain.from_iterable(zip(literals, cells)), literals[-1]]
    line = np.empty((sum(map(len, parts)), cells[0].shape[1]),
                    dtype=np.uint8)
    row = 0
    for part in parts:
        line[row:row + len(part)] = part
        row += len(part)
    return np.frombuffer(line.T.tobytes().translate(None, b"\0"), np.uint8)


def _chunks(blocks, chunk_rows: int):
    """``blocks`` as chunks of ``chunk_rows`` consecutive rows, the last
    one shorter: lists of ``(slot, columns, start, stop)`` row ranges of
    consecutive blocks.  Chunks cut across blocks."""
    segments, n = [], 0
    for slot, columns in blocks:
        size, start = len(columns[0]), 0
        while start < size:
            stop = min(size, start + chunk_rows - n)
            segments.append((slot, columns, start, stop))
            n, start = n + stop - start, stop
            if n == chunk_rows:
                yield segments
                segments, n = [], 0
    if segments:
        yield segments


def _render(rows: Rows, outputs) -> None:
    """Render a trace table's lines for each of ``outputs``, ``(form,
    write)`` pairs of a form, 0 (CSV) or 1 (ndjson) of ``_TEMPLATES``, and
    the callable that takes its text: one uint8 array per chunk of
    consecutive rows.  A chunk holds as many rows as ``_CHUNK_BYTES`` holds
    of the widest of those lines, counting every field at the widest int64
    width.  Each field's cells are built once a chunk and laid out in every
    form's field order, and each form's text is handed on before the next
    is laid out."""
    templates = [(*_TEMPLATES[rows.row_type][form], write)
                 for form, write in outputs]
    chunk_rows = max(1, _CHUNK_BYTES // max(
        sum(map(len, literals)) + _WIDEST * len(order)
        for literals, order, _ in templates))
    shared: dict[tuple[int, str], np.ndarray] = {}
    for segments in _chunks(rows.blocks, chunk_rows):
        cells = _field_cells(segments, rows.row_type._fields[1:], shared)
        for literals, order, write in templates:
            write(_lay_out(literals, [cells[at] for at in order]))
        held = set(map(id, segments[-1][1]))
        shared = {key: whole for key, whole in shared.items()
                  if key[0] in held}


#: Each output format's form, its line template in ``_TEMPLATES`` (CSV 0,
#: ndjson 1), and its file suffix.
_FORMS = {"tabular": (0, ".csv"), "records": (1, ".ndjson")}


def _outputs(out: FsPath, name: str,
             formats: list[str]) -> list[tuple[int, FsPath]]:
    """Make ``out`` and return the form and path of each of ``name``'s
    files in ``formats``, CSV first."""
    out.mkdir(parents=True, exist_ok=True)
    return [(form, out / f"{name}{suffix}")
            for key, (form, suffix) in _FORMS.items() if key in formats]


def _write_trace(out: FsPath, name: str, rows: Rows,
                 formats: list[str]) -> list[FsPath]:
    """Write a trace's ``Rows`` as ``name.csv`` and/or ``name.ndjson``, by
    one ``_render`` pass over both."""
    outputs = _outputs(out, name, formats)
    with ExitStack() as stack:
        writes = [(form, stack.enter_context(open(path, "wb")).write)
                  for form, path in outputs]
        for form, write in writes:
            if form == 0:
                write(",".join(rows.row_type._fields).encode() + b"\n")
        if writes:
            _render(rows, writes)
    return [path for _, path in outputs]


#: A summary row's CSV line, in ``_SUMMARY_CSV_HEADER`` order, and its
#: sorted-key ndjson line.  ``_write_summary`` takes only int counts and a
#: float mean, and a path holds only digits and ``-``, which neither format
#: quotes or escapes: ``%d`` is an int's ``str``, ``%.6g`` is ``_fmt``'s
#: float format and ``%r`` the float text ``json`` writes.
_SUMMARY_CSV_HEADER = "session,delivered,mean_window,hops,path\n"
_SUMMARY_CSV = "%d,%d,%.6g,%d,%s\n"
_SUMMARY_NDJSON = ('{"delivered": %d, "hops": %d, "mean_window": %r, '
                   '"path": "%s", "session": %d}\n')


def _write_summary(out: FsPath, name: str, result: RunResult,
                   formats: list[str]) -> list[FsPath]:
    """Write ``result``'s per-session summary as ``name.csv`` and/or
    ``name.ndjson``, a line per session in id order from the templates,
    each file by one write; the records end with the run's totals, by
    sorted-key ``json.dumps``.  Raises ValueError, naming the session, for
    counts that are not ``int`` or a mean that is not ``float``."""
    paths = result.paths
    rows = [(sid, info["delivered"], info["mean_window"], info["hops"],
             "-".join(["%s"] * len(paths[sid])) % tuple(paths[sid]))
            for sid, info in sorted(result.summary["sessions"].items())]
    for sid, delivered, mean, hops, _ in rows:
        if not type(delivered) is type(hops) is int or type(mean) is not float:
            raise ValueError(f"summary session {sid}: delivered and hops "
                             "must be ints and mean_window a float")
    outputs = _outputs(out, name, formats)
    for form, path in outputs:
        if form == 0:
            lines = [_SUMMARY_CSV_HEADER,
                     *[_SUMMARY_CSV % row for row in rows]]
        else:
            totals = {key: result.summary[key] for key in (
                "delivered_total", "throughput_per_slot",
                "throughput_per_time", "jain_mean_window")}
            totals.update(protocol=result.protocol, seed=result.seed)
            lines = [*[_SUMMARY_NDJSON % (delivered, hops, mean, path, sid)
                       for sid, delivered, mean, hops, path in rows],
                     json.dumps(totals, sort_keys=True), "\n"]
        path.write_text("".join(lines), encoding="utf-8", newline="\n")
    return [path for _, path in outputs]


def emit(result: RunResult, out_dir: str | FsPath, name: str,
         formats: list[str]) -> list[FsPath]:
    """Write one run's trace and summary files; returns the paths, every
    tabular file before every records file."""
    out = FsPath(out_dir)
    written = [
        *_write_trace(out, f"{name}_sessions",
                      Rows.of(SessionRow, result.session_rows), formats),
        *_write_trace(out, f"{name}_pools",
                      Rows.of(PoolRow, result.pool_rows), formats),
        *_write_summary(out, f"{name}_summary", result, formats),
    ]
    return sorted(written, key=lambda path: path.suffix == ".ndjson")


def emit_table(rows: list[dict], out_dir: str | FsPath, name: str,
               formats: list[str]) -> list[FsPath]:
    """Write one flat table of dict rows under the first row's keys: CSV by
    ``csv`` over ``_fmt`` cells, records by sorted-key ``json.dumps``."""
    header = list(rows[0]) if rows else []
    records = [{key: row[key] for key in header} for row in rows]
    outputs = _outputs(FsPath(out_dir), name, formats)
    for form, path in outputs:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            if form == 0:
                csv.writer(handle, lineterminator="\n").writerows([
                    header, *(map(_fmt, r.values()) for r in records)])
            else:
                handle.writelines(json.dumps(record, sort_keys=True) + "\n"
                                  for record in records)
    return [path for _, path in outputs]


def run_preset(name: str, seeds: list[int], out_dir: str | FsPath,
               formats: list[str]) -> list[FsPath]:
    """Execute every run of a preset, writing its traces and keeping only
    its table row, then write the summary tables from the rows."""
    if not seeds:
        raise ConfigError("at least one seed is required")
    for index, seed in enumerate(seeds):
        if seed in seeds[:index]:
            raise ConfigError(f"seed {seed} is listed more than once")
    preset = preset_mod.get_preset(name)
    written: list[FsPath] = []
    rows: list[dict] = []
    run_dir = FsPath(out_dir) / name
    for preset_run in preset.build(seeds):
        result = run(preset_run.config)
        written.extend(emit(result, run_dir, preset_run.label, formats))
        rows.append(preset.row(preset_run, result))
        # Drop the trace before the next run makes its own.
        del result
    for table_name, table in preset.summarize(rows).items():
        written.extend(
            emit_table(table, out_dir, f"{name}_{table_name}", formats)
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
