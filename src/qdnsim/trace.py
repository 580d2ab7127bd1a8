"""The run trace: its row types, and read-only row sequences over column
blocks.

A run keeps its trace as columns, one block per slot: the slot, then one
column per field after ``slot``, all of one length.  Every column is a
1-D int64 array.  An ``int`` field's column holds non-negative values; a
``str`` field's column holds codes, code ``i`` standing for the word
``WORDS[field][i]``.  ``Engine.step`` returns one slot's session and
pool blocks.  Blocks may share a column object: the engine's pool blocks
share the pool nodes, kinds and capacities, and only
``cli._field_cells`` relies on that, converting such a column to text
once.  A column is never written once its block is returned: the flow
tables build new arrays each slot rather than write into the ones they
returned.
``Rows`` reads the blocks as a sequence of row tuples, built only when
asked for, with every code as its word; ``Rows.of`` turns a list of rows
into such blocks.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, groupby, islice, repeat
from operator import eq, index as as_index, itemgetter
from typing import NamedTuple

import numpy as np

#: The word each ``phase`` code stands for: the teleportation phases by
#: ``tele.PHASES`` index, then ``-``, the phase of a row that has none.
PHASE_WORDS = ("SS", "CA", "-")
#: The words of each ``str`` field, by code.
WORDS = {"phase": PHASE_WORDS, "pool": ("send", "receive", "transit")}
_WORD_OBJECTS = {field: np.array(words, dtype=object)
                 for field, words in WORDS.items()}


class SessionRow(NamedTuple):
    slot: int
    session: int
    hop: int
    window: int
    congested: int
    granted: int
    delivered: int
    phase: str
    firsts: int
    seconds: int
    losses: int
    stored: int


class PoolRow(NamedTuple):
    slot: int
    node: int
    pool: str
    reserved: int
    capacity: int


def _values(field: str, column: np.ndarray) -> list:
    """A block column of ``field`` as a list of Python ints or words."""
    words = _WORD_OBJECTS.get(field)
    return (column if words is None else words[column]).tolist()


def _column(field: str, values) -> np.ndarray:
    """``values`` of ``field`` as a block column: ints as they are, words
    as their codes.  Raises ValueError, naming the field, for an int
    outside int64, a negative int, a value that is not an int (a bool, a
    float or a string among them) or a word the field does not have."""
    words = WORDS.get(field)
    try:
        if words is not None:
            values = [*map(words.index, values)]
        elif (np.asarray(values).dtype.kind not in "iu"
              or any(isinstance(value, (bool, np.bool_)) for value in values)):
            raise TypeError
        column = np.array(values, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        column = None
    if column is None or not (column >= 0).all():
        raise ValueError(f"trace {field}: outside {words or '[0, 2**63)'}")
    return column


class Rows(Sequence):
    """Trace rows of ``row_type`` over a list of ``(slot, columns)``
    blocks, in block then column order.  The list does not grow once the
    ``Rows`` is built; rows are built on access, with Python ``int`` and
    ``str`` fields.  Indexing and slicing follow ``list``, a slice is a list, and
    a ``Rows`` equals a list or another ``Rows`` that holds equal rows in
    the same order."""

    def __init__(self, row_type: type, blocks: list):
        self.row_type = row_type
        self.blocks = blocks
        # Each block's end as a row offset.
        self._ends = list(accumulate(len(columns[0]) for _, columns in blocks))

    @classmethod
    def of(cls, row_type: type, rows) -> Rows:
        """``rows`` itself if it is a ``Rows``; else its rows, any sequence
        of ``row_type`` tuples, as blocks of consecutive rows of one slot,
        every field converted (the slot too) by ``_column``."""
        if isinstance(rows, Rows):
            return rows
        return cls(row_type, [
            (slot, list(map(_column, row_type._fields, zip(*group)))[1:])
            for slot, group in groupby(rows, itemgetter(0))])

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __iter__(self):
        fields = self.row_type._fields[1:]
        return chain.from_iterable(
            map(self.row_type._make,
                zip(repeat(slot), *map(_values, fields, columns)))
            for slot, columns in self.blocks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[i] for i in range(start, stop, step)]
            first = bisect_right(self._ends, start)
            skip = start - (self._ends[first - 1] if first else 0)
            rows = Rows(self.row_type, self.blocks[first:])
            return list(islice(rows, skip, skip + max(0, stop - start)))
        n, position = len(self), as_index(index)
        position += n if position < 0 else 0
        if not 0 <= position < n:
            raise IndexError("trace row index out of range")
        block = bisect_right(self._ends, position)
        slot, columns = self.blocks[block]
        at = position - (self._ends[block - 1] if block else 0)
        return self.row_type(slot, *(
            _values(field, column[at:at + 1])[0]
            for field, column in zip(self.row_type._fields[1:], columns)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Rows, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))
