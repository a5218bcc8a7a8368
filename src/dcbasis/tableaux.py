"""Row insertion, reading words, and the tableau/multisegment dictionary.

Tableaux are written in French orientation: rows are listed bottom-up,
weakly increasing left to right, strictly increasing up each column.  A
family of integer sets has a reading word (each set read in decreasing
order, last set first); the family is called frank when the conjugate shape
of the inserted tableau matches the multiset of set sizes.  Tableaux and
reading words translate to multisegments by the rule that an entry e on row
i contributes the segment [i, e-1] when e > i.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

from .multisegment import Multisegment, Segment

__all__ = [
    "Tableau",
    "rs_p_tableau",
    "product_word",
    "frank_condition",
    "n_pi",
]


class Tableau:
    """An immutable semistandard tableau; rows bottom-up."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        rs = tuple(tuple(int(x) for x in row) for row in rows)
        if any(not row for row in rs):
            raise ValueError("empty tableau row")
        for row in rs:
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {row} is not weakly increasing")
        for below, above in zip(rs, rs[1:]):
            if len(above) > len(below):
                raise ValueError("row lengths must weakly decrease upward")
            if any(above[j] <= below[j] for j in range(len(above))):
                raise ValueError("columns must strictly increase upward")
        self._rows = rs

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self._rows)

    def conjugate_shape(self) -> tuple[int, ...]:
        """Column lengths, i.e. the conjugate of the shape."""
        if not self._rows:
            return ()
        return tuple(
            sum(1 for row in self._rows if len(row) > j)
            for j in range(len(self._rows[0])))

    def columns(self) -> list[tuple[int, ...]]:
        if not self._rows:
            return []
        return [tuple(row[j] for row in self._rows if len(row) > j)
                for j in range(len(self._rows[0]))]

    @classmethod
    def from_columns(cls, cols: Iterable[Sequence[int]]) -> "Tableau":
        cols = [tuple(c) for c in cols if c]
        if not cols:
            return cls(())
        height = len(cols[0])
        rows = [[col[i] for col in cols if len(col) > i]
                for i in range(height)]
        return cls(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self._rows]!r})"

    def __str__(self) -> str:
        return "/".join(
            " ".join(str(x) for x in row) for row in reversed(self._rows))


def rs_p_tableau(word: Iterable[int]) -> Tableau:
    """The insertion tableau of a word, by row bumping.

    Each letter enters the bottom row, displacing the leftmost strictly
    greater entry into the row above, or lands at the end of a row.
    """
    rows: list[list[int]] = []
    for letter in word:
        cur = int(letter)
        placed = False
        for row in rows:
            idx = bisect_right(row, cur)
            if idx == len(row):
                row.append(cur)
                placed = True
                break
            row[idx], cur = cur, row[idx]
        if not placed:
            rows.append([cur])
    return Tableau(rows)


def product_word(sets: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """Reading word of a family: last set first, each read in decreasing order."""
    word: list[int] = []
    for s in reversed(list(sets)):
        word.extend(sorted(set(s), reverse=True))
    return tuple(word)


def frank_condition(sets: Sequence[Iterable[int]]) -> bool:
    """True iff the conjugate shape of the inserted reading word matches the
    multiset of set sizes."""
    sizes = sorted((len(set(s)) for s in sets), reverse=True)
    conj = rs_p_tableau(product_word(sets)).conjugate_shape()
    return list(conj) == sizes


def _row_multisegment(t: Tableau) -> Multisegment:
    """Entry e on row i (rows counted from 1) contributes [i, e-1] when e > i."""
    segs = []
    for i, row in enumerate(t.rows, start=1):
        for entry in row:
            if entry < i:
                raise ValueError(
                    f"entry {entry} on row {i} below the staircase")
            if entry > i:
                segs.append(Segment(i, entry - 1))
    return Multisegment(segs)


def n_pi(sets: Sequence[Iterable[int]]) -> Multisegment:
    """The multisegment read off the insertion tableau of the reading word."""
    return _row_multisegment(rs_p_tableau(product_word(sets)))

