"""Combinatorial irreducibility criteria for induced evaluation modules.

An evaluation module is indexed by a partition alpha and an integer shift
a; its combinatorial shadow is the co-finite set I = {a + 1 - i + alpha_i :
i >= 1}, with alpha_i = 0 past the last row.  A product of two such modules
is irreducible exactly when the two co-finite sets are separated, a
condition on the mutual set differences; families reduce to pairwise
tests.  For a partition against itself the criterion collapses to hook
lengths.

A co-finite set is a threshold t and a bitset, bit k for t + 1 + k.  Above
a - r (r rows), I is the beta-set {alpha_i + r - i} of alpha shifted by
a - r + 1: its bitset is the Partition's own.  Every separation verdict
reads both differences off two shifted bitsets (_differences), and when
one set holds the other, as the thresholds tell (the far apart rule), it
builds none: its memory is bounded by the sets' spans, not by |a - b|.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Sequence

from .multisegment import Multisegment, Segment, _from_sorted

__all__ = [
    "CoFiniteSet",
    "Partition",
    "parse_partition",
    "evaluation_set",
    "evaluation_multisegment",
    "join_related",
    "separated",
    "strongly_separated",
    "irreducible_pair",
    "main1_pattern",
    "main1_witness",
    "hook_irreducible",
    "irreducible_family",
]


def _bitset(ks: Iterable[int]) -> int:
    """The integer with bit k set for each k >= 0 of ks, in one pass."""
    ks = list(ks)
    buf = bytearray((max(ks, default=-1) >> 3) + 1)
    for k in ks:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


class CoFiniteSet:
    """The set of all integers <= threshold plus finitely many larger extras.

    The extras are a bitset, bit k for threshold + 1 + k, so the memory is
    their span above the threshold.  Canonical form keeps bit 0 clear: the
    extras threshold + 1, threshold + 2, ... are absorbed into it.
    """

    __slots__ = ("_threshold", "_bits")

    def __init__(self, threshold: int, extras: Iterable[int] = ()):
        t = int(threshold)
        bits = _bitset(k for k in (int(x) - t - 1 for x in extras) if k >= 0)
        ones = (bits ^ (bits + 1)).bit_length() - 1  # trailing ones
        self._threshold, self._bits = t + ones, bits >> ones

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def extras(self) -> tuple[int, ...]:
        t = self._threshold + 1
        return tuple([t + k for k, c in enumerate(f"{self._bits:b}"[::-1])
                      if c == "1"])

    def __contains__(self, x: int) -> bool:
        k = x - self._threshold - 1
        return k < 0 or self._bits >> k & 1 == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, CoFiniteSet) and (
            self._threshold, self._bits) == (other._threshold, other._bits)

    def __hash__(self) -> int:
        return hash((self._threshold, self._bits))

    def __repr__(self) -> str:
        return f"CoFiniteSet({self._threshold}, {list(self.extras)})"

    def __str__(self) -> str:
        inner = "".join(f",{x}" for x in self.extras)
        return f"{{..<={self._threshold}{inner}}}"


def _difference_size(self_set: CoFiniteSet, other: CoFiniteSet) -> int:
    """|self_set - other| by popcounts, for (-inf, s] + x and (-inf, t] + y:
    with s <= t, x moved onto y's places outside y; otherwise the s - t
    integers of (t, s] less y's bits there, plus x outside y's bits above s."""
    s, x = self_set.threshold, self_set._bits
    t, y = other.threshold, other._bits
    if s <= t:
        return ((x >> (t - s)) & ~y).bit_count()
    high = y >> (s - t)
    return (s - t) - y.bit_count() + high.bit_count() + (x & ~high).bit_count()


class Partition:
    """A weakly decreasing tuple of positive integers (possibly empty).

    It keeps its beta-set as a bitset, bit alpha_i + r - i for each of the
    r rows: the extras of evaluation_set(alpha, r), alpha_1 + r bits.
    """

    __slots__ = ("_parts", "_bits")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        if any(p <= 0 for p in ps):
            raise ValueError(f"partition parts must be positive: {ps}")
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise ValueError(f"partition parts must weakly decrease: {ps}")
        self._parts = ps
        self._bits = _bitset(p + len(ps) - i for i, p in enumerate(ps, 1))

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def size(self) -> int:
        return sum(self._parts)

    def conjugate(self) -> "Partition":
        return Partition(sum(1 for p in self._parts if p >= j)
                         for j in range(1, max(self._parts, default=0) + 1))

    def hook_lengths(self) -> tuple[int, ...]:
        """The multiset of hook lengths, sorted descending.

        Cell (i, j) has hook part_i + conj_j - i - j + 1.
        """
        conj = self.conjugate().parts
        hooks = [self._parts[i - 1] + conj[j - 1] - i - j + 1
                 for i in range(1, len(self._parts) + 1)
                 for j in range(1, self._parts[i - 1] + 1)]
        return tuple(sorted(hooks, reverse=True))

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self._parts)


def parse_partition(text: str) -> Partition:
    """Parse ``5,4,2,1`` style literals."""
    s = text.strip()
    if not s:
        raise ValueError("empty partition literal")
    if not re.fullmatch(r"\d+(\s*,\s*\d+)*", s):
        raise ValueError(f"malformed partition {text!r}")
    return Partition(int(p) for p in s.split(","))


def evaluation_set(alpha: Partition, shift: int) -> CoFiniteSet:
    """The co-finite set I = {shift + 1 - i + alpha_i : i >= 1} attached to
    an evaluation module, with alpha_i = 0 past the last of the r rows.

    Threshold t = shift - r, and the extras t + 1 + (alpha_i + r - i) are
    the partition's beta-set bitset.  Its least bit alpha_r is at least 1,
    so the set is canonical as it stands: O(1).
    """
    s = object.__new__(CoFiniteSet)
    s._threshold, s._bits = shift - len(alpha._parts), alpha._bits
    return s


def evaluation_multisegment(alpha: Partition, shift: int) -> Multisegment:
    """Row i of the partition becomes the segment [shift-i+1, shift-i+alpha_i].

    The end shift - i + alpha_i strictly decreases in i, so the rows from
    the last up are already in segment order, and valid as alpha_i >= 1.
    """
    parts = alpha.parts
    return _from_sorted(tuple(
        Segment(shift - i + 1, shift - i + parts[i - 1])
        for i in range(len(parts), 0, -1)))


def join_related(a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff the smaller set splits into a part below and a part above
    the other set (empty parts allowed; vacuously true around an empty set).
    """
    xs, ys = set(a), set(b)
    if xs & ys:
        raise ValueError("join relation needs disjoint sets")
    base = min(xs | ys, default=0)
    return _joined(_bitset(x - base for x in xs),
                   _bitset(y - base for y in ys))


def separated(i_set: CoFiniteSet, j_set: CoFiniteSet) -> bool:
    """True iff the mutual differences are join-related."""
    d = _differences(i_set._threshold, i_set._bits,
                     j_set._threshold, j_set._bits)
    return d is None or _joined(d[0], d[1])


def strongly_separated(i_set: CoFiniteSet, j_set: CoFiniteSet) -> bool:
    """True iff one mutual difference lies entirely below the other."""
    d = _differences(i_set._threshold, i_set._bits,
                     j_set._threshold, j_set._bits)
    x, y, _ = d or (0, 0, 0)  # far apart: one difference is empty
    # an empty side lies below anything, and x below y iff x < lowbit(y)
    return not x or not y or x < (y & -y) or y < (x & -x)


def _differences(s: int, x: int, t: int, y: int
                 ) -> tuple[int, int, int] | None:
    """I minus J, J minus I and the base below which both sets are full,
    for I = (threshold s, bitset x) and J = (t, y): bitsets with bit k for
    base + 1 + k.  None when the thresholds show that one set holds the
    other (the far apart rule): J lies at or below t + y.bit_length(), so
    inside I once s reaches that, and the other way round.  Otherwise
    |s - t| is below the bit lengths of x and y; relative to base, I is
    the s low bits plus x shifted by s, and J the same from t and y.
    """
    if s - t >= y.bit_length() or t - s >= x.bit_length():
        return None
    base = min(s, t)
    s, t = s - base, t - base
    i_bits = ((1 << s) - 1) | (x << s)
    j_bits = ((1 << t) - 1) | (y << t)
    return i_bits & ~j_bits, j_bits & ~i_bits, base


def _inside(small: int, big: int) -> bool:
    """True iff a bit of small lies strictly inside the span of big != 0."""
    low, top = big & -big, 1 << (big.bit_length() - 1)
    # a one-bit big has no interior, and top - 2 * low would go negative
    return top != low and small & (top - (low << 1)) != 0


def _joined(x: int, y: int) -> bool:
    """join_related on two disjoint bitsets."""
    if not x or not y:
        return True
    nx, ny = x.bit_count(), y.bit_count()
    return (nx <= ny and not _inside(x, y)) or (ny <= nx and not _inside(y, x))


def irreducible_pair(alpha: Partition, a: int, beta: Partition, b: int) -> bool:
    """Irreducibility of the product of two evaluation modules."""
    d = _differences(a - len(alpha._parts), alpha._bits,
                     b - len(beta._parts), beta._bits)
    return d is None or _joined(d[0], d[1])


def main1_witness(alpha: Partition, a: int, beta: Partition, b: int
                  ) -> tuple[int, ...] | None:
    """Witnessing pattern for reducibility, or None when irreducible.

    With a > b, an element of the second difference strictly between two
    of the first (a < b: swap roles); a = b asks for a four-term
    interleaving either way round.  The witness is the increasing tuple of
    positions realizing the pattern.
    """
    d = _differences(a - len(alpha._parts), alpha._bits,
                     b - len(beta._parts), beta._bits)
    return None if d is None else _witness(*d, a, b)


def _witness(x: int, y: int, base: int, a: int, b: int
             ) -> tuple[int, ...] | None:
    """main1_witness from the two difference bitsets over base."""
    if a > b:
        return _chain((x, y, x), base)
    if a < b:
        return _chain((y, x, y), base)
    return _chain((x, y, x, y), base) or _chain((y, x, y, x), base)


def _chain(sides: tuple[int, ...], base: int) -> tuple[int, ...] | None:
    """Positions c_1 < c_2 < ..., c_n the lowest bit of sides[n - 1] above
    c_(n - 1), decoded over base; None when one of them is missing.  Each
    lowest link leaves the most room above it, so this is the least chain."""
    bits, above = [], -1
    for side in sides:
        rest = side & above
        if not rest:
            return None
        bit = rest & -rest
        bits.append(bit)
        above = -(bit << 1)
    return tuple([base + bit.bit_length() for bit in bits])


def _verdict(alpha: Partition, a: int, beta: Partition, b: int
             ) -> tuple[bool, tuple[int, ...] | None]:
    """irreducible_pair and main1_witness of one pair, from one
    computation of the differences."""
    d = _differences(a - len(alpha._parts), alpha._bits,
                     b - len(beta._parts), beta._bits)
    if d is None:
        return True, None
    x, y, base = d
    return _joined(x, y), _witness(x, y, base, a, b)


def main1_pattern(alpha: Partition, a: int, beta: Partition, b: int) -> bool:
    """True iff the product is NOT irreducible, by the pattern criterion.

    Always agrees with the negation of irreducible_pair.  Both read the
    same _differences bitsets; what stays independent is the test on
    them, a pattern search (_chain) here against the join test (_joined).
    """
    return main1_witness(alpha, a, beta, b) is not None


def hook_irreducible(alpha: Partition, shift: int) -> bool:
    """Self-product criterion: irreducible iff |shift| is not a hook length."""
    return abs(shift) not in alpha.hook_lengths()


def irreducible_family(family: Sequence[tuple[Partition, int]]) -> bool:
    """A whole product of evaluation modules is irreducible iff every pair is."""
    return all(
        irreducible_pair(a1, s1, a2, s2)
        for (a1, s1), (a2, s2) in itertools.combinations(family, 2))
