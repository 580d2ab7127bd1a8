"""The trace's row views: ``RunResult.session_rows`` and ``pool_rows`` read
as lists of rows with plain ``int`` and ``str`` fields, and a result rebuilt
from those rows as lists reads the same in every metric and emits the same
bytes."""

import dataclasses
import re

import numpy as np
import pytest

from qdnsim import metrics
from qdnsim.cli import emit
from qdnsim.engine import PoolRow, Protocol, SessionRow, run
from qdnsim.errors import MetricUndefinedError
from qdnsim.tele import NO_PHASE, PHASES
from qdnsim.topology import NetworkKind
from qdnsim.trace import PHASE_WORDS, WORDS, Rows

from test_engine import star_config
from test_golden import CONFIGS

RUNS = {
    # A stream, a session that finishes and one that starts with a window.
    "tele": lambda: star_config(Protocol.TELE, NetworkKind.TELE,
                                [(None, None), (7, 3), (2, None)], n_slots=8),
    # Explicit windows: every row records the ``-`` phase code.
    "ew": lambda: star_config(Protocol.EW, NetworkKind.TELE,
                              [(None, None), (9, 2)], n_slots=6),
    "tag": CONFIGS["tag_relay"],
    "zero_slots": lambda: star_config(Protocol.TELE, NetworkKind.TELE,
                                      [(None, None)], n_slots=0),
    # Sessions of no qubits are routed but never stepped: pool rows only.
    "no_session_rows": lambda: star_config(
        Protocol.TAG, NetworkKind.TAG_RELAY, [(0, None), (0, 4)], n_slots=3),
}

_RESULTS = {}


def result_of(name):
    if name not in _RESULTS:
        _RESULTS[name] = run(RUNS[name]())
    return _RESULTS[name]


def rebuilt(result):
    """``result`` with its rows as plain lists, and no metrics index."""
    return dataclasses.replace(result, session_rows=list(result.session_rows),
                               pool_rows=list(result.pool_rows))


def test_runs_reach_every_shape():
    assert len(result_of("tele").session_rows) > 0
    assert {row.hop for row in result_of("tag").session_rows} != {0}
    assert len(result_of("zero_slots").pool_rows) == 0
    assert len(result_of("zero_slots").paths) == 0
    empty = result_of("no_session_rows")
    assert len(empty.session_rows) == 0 and len(empty.pool_rows) > 0
    assert sorted(empty.paths) == [0, 1]


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("field, row_type", [("session_rows", SessionRow),
                                             ("pool_rows", PoolRow)])
def test_rows_read_as_a_list(name, field, row_type):
    rows = getattr(result_of(name), field)
    listed = list(rows)
    n = len(listed)
    assert len(rows) == n
    assert all(type(row) is row_type for row in listed)
    for index in {0, 1, n // 2, n - 1, -1, -n}:
        if -n <= index < n:
            assert rows[index] == listed[index]
            assert type(rows[index]) is row_type
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[index]
    for cut in (slice(None), slice(1, None), slice(None, -1), slice(2, 5),
                slice(n // 3, 2 * n // 3), slice(-3, None), slice(5, 2),
                slice(n, None), slice(None, None, 2), slice(None, None, -1),
                slice(-2, 1, -3)):
        assert rows[cut] == listed[cut], cut
        assert type(rows[cut]) is list
    assert list(iter(rows)) == listed
    assert rows == listed and listed == rows
    assert Rows.of(row_type, listed) == rows
    assert not rows != listed
    again = getattr(run(RUNS[name]()), field)
    assert again is not rows and again == rows
    assert (rows, 1) == (listed, 1) and (listed, 1) == (again, 1)
    assert rows != listed + [row_type._make(range(len(row_type._fields)))]
    if n:
        assert rows != listed[:-1]
        assert rows != tuple(listed)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fields_are_plain_ints_and_strs(name):
    result = result_of(name)
    for rows, words in ((result.session_rows, {"phase"}),
                        (result.pool_rows, {"pool"})):
        for row in rows:
            for field, value in zip(row._fields, row):
                assert type(value) is (str if field in words else int), (
                    field, row)


def test_phase_words_follow_the_phases():
    assert PHASE_WORDS == (*(phase.value for phase in PHASES), "-")
    assert PHASE_WORDS[NO_PHASE] == "-"


def test_phase_codes_read_as_words():
    codes = np.array([2, 0, 1, 1, 0, 2], dtype=np.int64)
    ints = np.arange(6, dtype=np.int64)
    rows = Rows(SessionRow, [
        (slot, (*[ints[cut]] * 6, codes[cut], *[ints[cut]] * 4))
        for slot, cut in ((4, slice(4)), (5, slice(4, None)))])
    words = ["-", "SS", "CA", "CA", "SS", "-"]
    assert [row.phase for row in rows] == words
    assert [rows[i].phase for i in range(-6, 6)] == words * 2
    assert [row.phase for row in rows[1:5]] == words[1:5]
    assert {type(row.phase) for row in [*rows, rows[3], *rows[2:]]} == {str}
    # An int field's column is never read as codes.
    assert [row.session for row in rows] == [0, 1, 2, 3, 4, 5]
    assert rows == Rows.of(SessionRow, list(rows))


@pytest.mark.parametrize("name", ["tele", "ew", "tag"])
def test_engine_records_phase_codes(name):
    rows = result_of(name).session_rows
    at = SessionRow._fields.index("phase") - 1
    codes = np.concatenate([columns[at] for _, columns in rows.blocks])
    assert codes.dtype == np.int64
    assert [row.phase for row in rows] == [PHASE_WORDS[code]
                                           for code in codes.tolist()]
    assert (set(codes.tolist()) == {NO_PHASE}) == (name == "ew")


@pytest.mark.parametrize("name", ["tele", "ew", "fra", "tag_relay",
                                  "tag_switch_lossy"])
def test_engine_blocks_hold_int64_columns(name):
    result = run(CONFIGS[name]())
    for rows in (result.session_rows, result.pool_rows):
        fields = rows.row_type._fields[1:]
        assert rows.blocks
        for _, columns in rows.blocks:
            assert len(columns) == len(fields)
            for field, column in zip(fields, columns):
                assert isinstance(column, np.ndarray), field
                assert column.ndim == 1 and column.dtype == np.int64, field
                if field in WORDS and len(column):
                    assert 0 <= column.min(), field
                    assert column.max() < len(WORDS[field]), field


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rebuilt_result_reads_the_same(name, tmp_path):
    result = result_of(name)
    plain = rebuilt(result)
    assert plain == result
    assert repr(metrics.summarize(plain)) == repr(metrics.summarize(result))
    assert repr(metrics.summarize(result)) == repr(result.summary)
    sessions = [*result.paths, max(result.paths, default=0) + 1]
    hops = range(max((row.hop for row in result.session_rows), default=0) + 2)
    for sid in sessions:
        assert metrics.effective_window(plain, sid) == \
            metrics.effective_window(result, sid)
        for hop in hops:
            assert metrics.window_series(plain, sid, hop) == \
                metrics.window_series(result, sid, hop)
    pools = {(row.node, row.pool) for row in result.pool_rows}
    for node, pool in sorted(pools) + [(-1, "send")]:
        try:
            expected = metrics.utilization(result, node, pool)
        except MetricUndefinedError as exc:
            with pytest.raises(MetricUndefinedError, match=re.escape(str(exc))):
                metrics.utilization(plain, node, pool)
        else:
            assert metrics.utilization(plain, node, pool) == expected
    formats = ["tabular", "records"]
    paths = emit(result, tmp_path / "view", "t", formats)
    plain_paths = emit(plain, tmp_path / "list", "t", formats)
    assert [path.name for path in paths] == [path.name for path in plain_paths]
    for path, plain_path in zip(paths, plain_paths):
        assert path.read_bytes() == plain_path.read_bytes(), path.name
