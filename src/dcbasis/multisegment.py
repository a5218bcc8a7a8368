"""Segments, multisegments, weights, and the dominance order.

A segment is an integer interval [i, j] with i <= j.  Segments are totally
ordered by (end, start).  A multisegment is a finite multiset of segments;
its weight counts how many segments cover each position.  Replacing two
linked segments by their union and (if non-empty) intersection is an
elementary move; the partial order "m dominates n" is reachability by
such moves.  Write r_ij(m) for the number of segments of m that contain
[i, j].  By the rank characterization of this order (Zelevinsky 1981;
Abeasis-Del Fra 1980), m dominates n iff m and n have the same weight and
r_ij(m) <= r_ij(n) for all i <= j; ``dominates`` tests exactly that.
Weight classes are enumerated sorted by the lexicographic order on the
(end, start)-sorted segment lists, which every elementary move strictly
increases: a linear extension of dominance, so downstream output is
reproducible.
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import lru_cache
from typing import Iterable, NamedTuple

__all__ = [
    "Segment",
    "Multisegment",
    "Weight",
    "EMPTY",
    "segment_key",
    "linked",
    "segment_union",
    "segment_intersection",
    "segment_pairing",
    "cartan_pairing",
    "b_form",
    "dominates",
    "enumerate_by_weight",
    "parse_segment",
    "parse_multisegment",
    "parse_weight",
]


class Segment(NamedTuple):
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def __str__(self) -> str:
        if self.start == self.end:
            return f"[{self.start}]"
        return f"[{self.start},{self.end}]"


# Sort key realizing the segment order: compare ends, then starts.  A
# C-level getter, so a sort by it calls no Python function.
segment_key = operator.itemgetter(1, 0)


def _check_segment(s: Segment) -> Segment:
    if s.start > s.end:
        raise ValueError(f"segment start {s.start} exceeds end {s.end}")
    return s


def linked(a: Segment, b: Segment) -> bool:
    """True iff the union of a and b is a segment different from both."""
    if a == b:
        return False
    if max(a.start, b.start) > min(a.end, b.end) + 1:
        return False
    u = Segment(min(a.start, b.start), max(a.end, b.end))
    return u != a and u != b


def segment_union(a: Segment, b: Segment) -> Segment:
    return Segment(min(a.start, b.start), max(a.end, b.end))


def segment_intersection(a: Segment, b: Segment) -> Segment | None:
    lo, hi = max(a.start, b.start), min(a.end, b.end)
    return Segment(lo, hi) if lo <= hi else None


def segment_pairing(a: Segment, b: Segment) -> int:
    """Cartan pairing of the weights of two segments.

    Positions paired with themselves contribute 2, adjacent positions -1:
    the value is 2*|overlap| minus the number of adjacent cross pairs.
    """
    ov = min(a.end, b.end) - max(a.start, b.start) + 1
    up = min(a.end, b.end - 1) - max(a.start, b.start - 1) + 1
    dn = min(a.end, b.end + 1) - max(a.start, b.start + 1) + 1
    return 2 * max(0, ov) - max(0, up) - max(0, dn)


class Multisegment:
    """An immutable finite multiset of segments.

    Stored expanded (one entry per copy), sorted ascending by the segment
    order, so identical multisets always compare and hash equal.  A label
    keeps its hash, and its degree once asked for it.
    """

    __slots__ = ("_segs", "_hash", "_degree")

    def __init__(self, segments: Iterable[Segment | tuple[int, int]] = ()):
        segs = tuple(sorted(
            (_check_segment(Segment(*s)) for s in segments), key=segment_key))
        self._segs = segs
        self._hash = hash(segs)
        self._degree = None

    # -- structure ----------------------------------------------------------

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segs

    def counts(self) -> list[tuple[Segment, int]]:
        """Distinct segments with multiplicities, ascending."""
        return [(s, len(list(g))) for s, g in itertools.groupby(self._segs)]

    def __len__(self) -> int:
        return len(self._segs)

    def degree(self) -> int:
        d = self._degree
        if d is None:
            d = self._degree = sum(j - i + 1 for i, j in self._segs)
        return d

    def weight(self) -> "Weight":
        d: dict[int, int] = {}
        for s in self._segs:
            for k in range(s.start, s.end + 1):
                d[k] = d.get(k, 0) + 1
        return Weight(d)

    def multiplicity(self, s: Segment) -> int:
        return self._segs.count(s)

    def binom_sum(self) -> int:
        """Sum over distinct segments of C(multiplicity, 2).

        Copies of a segment are adjacent in the sorted tuple, so one pass
        adds, for each entry, the number of equal entries just before it.
        """
        total = run = 0
        prev = None
        for s in self._segs:
            run = run + 1 if s == prev else 0
            total += run
            prev = s
        return total

    def sq_length_sum(self) -> int:
        return sum(s.length ** 2 for s in self._segs)

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        """Lexicographic key on the sorted segment list."""
        return tuple(map(segment_key, self._segs))

    def extension_key(self) -> tuple:
        """A cheap linear extension of dominance: squared-length sum, then
        the lexicographic key.  Every elementary move strictly increases the
        first component, so sorting any set of labels by this key never puts
        a dominating label before a dominated one."""
        return (self.sq_length_sum(), self.sort_key())

    def largest_segment(self) -> Segment:
        if not self._segs:
            raise ValueError("empty multisegment has no largest segment")
        return self._segs[-1]

    # -- multiset arithmetic --------------------------------------------------

    def __add__(self, other: "Multisegment") -> "Multisegment":
        return _from_sorted(tuple(sorted(self._segs + other._segs,
                                         key=segment_key)))

    def remove(self, s: Segment) -> "Multisegment":
        """A copy with one occurrence of s removed."""
        segs = self._segs
        i = segs.index(s)
        return _from_sorted(segs[:i] + segs[i + 1:])

    # -- comparison, rendering -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Multisegment) and self._segs == other._segs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Multisegment({list(self._segs)!r})"

    def __str__(self) -> str:
        if not self._segs:
            return "[]"
        parts = []
        for s, c in self.counts():
            parts.append(str(s) if c == 1 else f"{c}{s}")
        return "+".join(parts)


def _from_sorted(segs: tuple[Segment, ...]) -> Multisegment:
    """The multisegment of valid segments already sorted by segment_key:
    no sort, no check.  Only for tuples of ``Segment`` built in this package
    (the segments of labels, a straightened word, a generated class), never
    for user input, which goes through ``Multisegment``."""
    m = object.__new__(Multisegment)
    m._segs = segs
    m._hash = hash(segs)
    m._degree = None
    return m


EMPTY = Multisegment()


class Weight:
    """A finitely supported map from positions to positive counts."""

    __slots__ = ("_items", "_hash")

    def __init__(self, data: dict[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = data.items() if isinstance(data, dict) else data
        items, last = [], None
        for p, c in sorted(pairs):
            if p == last:
                raise ValueError(f"repeated position {p} in weight")
            last = p
            if c < 0:
                raise ValueError(f"negative count {c} at position {p}")
            if c:
                items.append((int(p), int(c)))
        self._items = tuple(items)
        self._hash = hash(self._items)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._items)

    def __getitem__(self, position: int) -> int:
        for p, c in self._items:
            if p == position:
                return c
        return 0

    def total(self) -> int:
        return sum(c for _, c in self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Weight) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Weight({list(self._items)!r})"

    def __str__(self) -> str:
        return ",".join(f"{p}:{c}" for p, c in self._items)


def cartan_pairing(w1: Weight, w2: Weight) -> int:
    """Symmetric bilinear form with diagonal 2 and adjacent entries -1."""
    d2 = dict(w2.items())
    total = 0
    for p, c in w1.items():
        total += c * (2 * d2.get(p, 0) - d2.get(p - 1, 0) - d2.get(p + 1, 0))
    return total


def b_form(m: Multisegment, n: Multisegment) -> int:
    """Bilinear form controlling leading coefficients of basis products.

    Sum of pairings (wt s, wt s') over pairs of copies, s' from m strictly
    above s from n, plus the number of pairs of equal copies; not
    symmetric, but b(m, n) + b(n, m) equals the Cartan pairing of the
    weights.
    """
    total = 0
    for s2 in m.segments:
        k2 = segment_key(s2)
        for s1 in n.segments:
            if k2 > segment_key(s1):
                total += segment_pairing(s1, s2)
            elif s1 == s2:
                total += 1
    return total


def dominates(m: Multisegment, n: Multisegment) -> bool:
    """True iff n is reachable from m by elementary moves (reflexively).

    Decided by the rank characterization (Zelevinsky 1981; Abeasis-Del Fra
    1980): m dominates n iff wt m = wt n and r_ij(m) <= r_ij(n) for all
    i <= j, where r_ij counts the segments containing [i, j].  As a function
    of i, r_ij only changes at segment starts, and as a function of j only
    at segment ends, so i ranges over the starts and j over the ends of the
    segments of m and n.  For each i, the ends of the segments starting
    at or before i are collected once, and r_ij(m) - r_ij(n) counts those
    reaching j.

    The weight test needs only the degrees.  The weight at a position k is
    r_kk, which equals r_ij for the last start i <= k and the first end
    j >= k (and is 0 for both labels if either is missing), so the loop
    also checks r_kk(m) <= r_kk(n) at every k.  The degree is the sum of
    the r_kk, so when the degrees are equal these inequalities hold only
    if every r_kk agrees, that is, if the weights are equal.
    """
    if m == n:
        return True
    if m.degree() != n.degree():
        return False
    ms, ns = m.segments, n.segments
    segs = ms + ns
    ends = {e for _, e in segs}
    for i in {s for s, _ in segs}:
        m_ends = [e for s, e in ms if s <= i]
        n_ends = [e for s, e in ns if s <= i]
        for j in ends:
            if i <= j:
                r = 0
                for e in m_ends:
                    if j <= e:
                        r += 1
                for e in n_ends:
                    if j <= e:
                        r -= 1
                if r > 0:
                    return False
    return True


def _generate(d: dict[int, int]):
    """All expanded segment tuples of weight d.

    Each step peels a segment [start, p] ending at the largest weighted
    position p, with the least start first; when the segment peeled before
    it also ends at p, start may not fall below that one's start, so each
    multiset appears once.  A tuple lists its segments in the reverse of
    the order they were peeled.  The counts live in one dict, decremented
    by a peel and restored when the walk backs out of it: the next sibling
    of [start, p] is [start + 1, p], one restored count away, so no weight
    is ever copied, however wide the class.  The walk is a loop over the
    list of peels, not recursion, so no number of segments meets the
    interpreter's recursion limit.
    """
    if not d:
        yield ()
        return
    count = dict.fromkeys(range(min(d), max(d) + 1), 0)
    count.update(d)
    left = sum(d.values())
    peeled: list[Segment] = []
    p = max(d)
    while True:
        start = p
        while count.get(start - 1):
            start -= 1
        if peeled:
            i, j = peeled[-1]
            if j == p and i > start:
                start = i
        for k in range(start, p + 1):
            count[k] -= 1
        left -= p - start + 1
        peeled.append(Segment(start, p))
        if not left:
            yield tuple(reversed(peeled))
            # back out to the deepest peel that has a next sibling
            while peeled:
                i, p = peeled.pop()
                count[i] += 1
                left += 1
                if i < p:
                    peeled.append(Segment(i + 1, p))
                    break
            else:
                return
        while not count[p]:
            p -= 1


def class_exceeds(w: Weight, cap: int) -> bool:
    """True iff the weight class of w has more than cap labels.  Draws at
    most cap + 1 labels, whatever the size of the class."""
    labels = _generate(dict(w.items()))
    return sum(1 for _ in itertools.islice(labels, max(cap + 1, 0))) > cap


@lru_cache(maxsize=1)
def enumerate_by_weight(w: Weight) -> tuple[Multisegment, ...]:
    """All multisegments of weight w, sorted by ``Multisegment.sort_key``.

    That order is a linear extension of dominance: a move replaces linked
    a = [i1, j1] and b = [i2, j2] (i1 < i2, j1 < j2) by [i1, j2] and, when
    non-empty, [i2, j1].  The least segment in (end, start) order that
    changes is a, which leaves the multiset, so every move strictly
    increases the sorted segment list.  Hence the dominance-least label
    comes first and no label dominates one listed before it.  Only the
    last class is cached: every caller works through one weight at a time.
    A generated tuple lists segments with equal ends by descending start,
    so each is sorted before ``_from_sorted`` makes it a label; its segments
    are valid by construction, so none is checked.
    """
    return tuple(sorted(
        (_from_sorted(tuple(sorted(t, key=segment_key)))
         for t in _generate(dict(w.items()))),
        key=Multisegment.sort_key))


# -- parsing ------------------------------------------------------------------

_SEGMENT_RE = re.compile(r"\[\s*(-?\d+)\s*(?:,\s*(-?\d+)\s*)?\]")


def parse_segment(text: str) -> Segment:
    """Parse ``[i,j]`` or the abbreviation ``[i]`` for [i, i]."""
    m = _SEGMENT_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed segment {text!r}")
    i = int(m.group(1))
    j = int(m.group(2)) if m.group(2) is not None else i
    return _check_segment(Segment(i, j))


def parse_multisegment(text: str) -> Multisegment:
    """Parse ``2[1]+[0]+[1,2]`` style literals; ``[]`` is the empty one.

    Multiplicity prefixes allow an optional ``*``; whitespace is ignored.
    """
    s = text.strip()
    if s in ("[]", ""):
        return EMPTY
    segs: list[Segment] = []
    for term in s.split("+"):
        term = term.strip()
        m = re.fullmatch(r"(?:(\d+)\s*\*?\s*)?(\[[^][]*\])", term)
        if not m:
            raise ValueError(f"malformed multisegment term {term!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        if mult < 1:
            raise ValueError(f"multiplicity must be positive in {term!r}")
        segs.extend([parse_segment(m.group(2))] * mult)
    return Multisegment(segs)


def parse_weight(text: str) -> Weight:
    """Parse ``0:1,1:2,2:1`` style literals."""
    s = text.strip()
    if not s:
        return Weight()
    pairs = []
    for chunk in s.split(","):
        m = re.fullmatch(r"\s*(-?\d+)\s*:\s*(\d+)\s*", chunk)
        if not m:
            raise ValueError(f"malformed weight entry {chunk!r}")
        pairs.append((int(m.group(1)), int(m.group(2))))
    return Weight(pairs)
