"""Combinatorial irreducibility criteria for induced evaluation modules.

An evaluation module is indexed by a partition alpha and an integer shift
a; its combinatorial shadow is the co-finite set I = {a + 1 - i + alpha_i :
i >= 1}, with alpha_i = 0 past the last row.  A product of two such modules
is irreducible exactly when the two co-finite sets are separated, a
condition on the mutual set differences; families reduce to pairwise
tests.  For a partition against itself the criterion collapses to hook
lengths.

Above its threshold a - r (r rows), I is the beta-set of alpha shifted:
the beta-numbers alpha_i + r - i (the first-column hook lengths) each
plus a - r + 1.  A Partition keeps its beta-set as one bitset, so the
verdicts read both differences off two shifted copies of it.  When one
threshold lies at or above the largest element of the other set, one set
contains the other, and the pair is irreducible with no witness: the far
apart rule, settled from the thresholds before any bitset is built.  So
the memory of a verdict is bounded by the partitions, not by |a - b|.
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
    "hook_irreducible",
    "irreducible_family",
]


class CoFiniteSet:
    """The set of all integers <= threshold plus finitely many larger extras.

    Canonical form: extras sit strictly above threshold + 1; an extra equal
    to threshold + 1 is absorbed by raising the threshold.
    """

    __slots__ = ("_threshold", "_extras")

    def __init__(self, threshold: int, extras: Iterable[int] = ()):
        t = int(threshold)
        xs = sorted({int(x) for x in extras if int(x) > t})
        while xs and xs[0] == t + 1:
            t += 1
            xs.pop(0)
        self._threshold, self._extras = t, tuple(xs)

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def extras(self) -> tuple[int, ...]:
        return self._extras

    def __contains__(self, x: int) -> bool:
        return x <= self._threshold or x in self._extras

    def difference(self, other: "CoFiniteSet") -> tuple[int, ...]:
        """The finite set self minus other, ascending: for self = (-inf, t]
        + X and other = (-inf, u] + Y, the part of (u, t] outside Y, then
        the extras of X above u outside Y (all above t, so in order)."""
        t, u, ys = self._threshold, other._threshold, other._extras
        return tuple([x for x in range(u + 1, t + 1) if x not in ys]
                     + [x for x in self._extras if x > u and x not in ys])

    def __eq__(self, other) -> bool:
        return isinstance(other, CoFiniteSet) and (
            self._threshold, self._extras) == (other._threshold, other._extras)

    def __hash__(self) -> int:
        return hash((self._threshold, self._extras))

    def __repr__(self) -> str:
        return f"CoFiniteSet({self._threshold}, {list(self._extras)})"

    def __str__(self) -> str:
        inner = "".join(f",{x}" for x in self._extras)
        return f"{{..<={self._threshold}{inner}}}"


class Partition:
    """A weakly decreasing tuple of positive integers (possibly empty).

    It keeps its beta-set as a bitset: bit alpha_i + r - i for each of the
    r rows.
    """

    __slots__ = ("_parts", "_bits")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        if any(p <= 0 for p in ps):
            raise ValueError(f"partition parts must be positive: {ps}")
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise ValueError(f"partition parts must weakly decrease: {ps}")
        self._parts = ps
        r = len(ps)
        self._bits = sum(1 << (p + r - i) for i, p in enumerate(ps, 1))

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

    Threshold t = shift - r; the extras t + k + alpha_{r+1-k} (k = 1..r)
    strictly increase from t + 2 on, so the canonical form keeps them as
    they are.  They are t + 1 plus the beta-numbers alpha_i + r - i, which
    is how the verdicts read I instead: as the partition's beta-set bitset
    shifted by t (_differences).  The largest element of I is t plus the
    bit length of that bitset, which is all the far apart rule (_apart)
    needs to know of I.
    """
    parts = alpha.parts
    t = shift - len(parts)
    return CoFiniteSet(t, [t + k + p
                           for k, p in enumerate(reversed(parts), 1)])


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
    return _joined(sum(1 << (x - base) for x in xs),
                   sum(1 << (y - base) for y in ys))


def separated(i_set: CoFiniteSet, j_set: CoFiniteSet) -> bool:
    """True iff the mutual differences are join-related."""
    return join_related(i_set.difference(j_set), j_set.difference(i_set))


def strongly_separated(i_set: CoFiniteSet, j_set: CoFiniteSet) -> bool:
    """True iff one mutual difference lies entirely below the other."""
    a, b = i_set.difference(j_set), j_set.difference(i_set)
    return not a or not b or a[-1] < b[0] or b[-1] < a[0]


def _differences(alpha: Partition, a: int, beta: Partition, b: int
                 ) -> tuple[int, int, int]:
    """I minus J, J minus I and the base below which both sets are full,
    for the evaluation sets I and J: bitsets with bit k for base + 1 + k.

    With s and t the thresholds a - len(alpha) and b - len(beta) taken
    relative to base = min(s, t), I is the s low bits plus alpha's
    beta-set shifted by s, and J the t low bits plus beta's shifted by t.
    Outside the far apart case (_apart) s and t are below the beta-sets'
    bit lengths, so no bitset is wider than the two partitions allow.
    """
    s, t = a - len(alpha._parts), b - len(beta._parts)
    base = min(s, t)
    s -= base
    t -= base
    i_bits = ((1 << s) - 1) | (alpha._bits << s)
    j_bits = ((1 << t) - 1) | (beta._bits << t)
    return i_bits & ~j_bits, j_bits & ~i_bits, base


def _apart(alpha: Partition, a: int, beta: Partition, b: int) -> bool:
    """True iff one evaluation set contains the other, from the thresholds
    alone: J lies at or below b - len(beta) + beta._bits.bit_length(), so
    J is inside I once a - len(alpha) reaches that, and the other way
    round.  Then one difference is empty: irreducible, with no witness."""
    gap = (a - len(alpha._parts)) - (b - len(beta._parts))
    return gap >= beta._bits.bit_length() or -gap >= alpha._bits.bit_length()


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
    if _apart(alpha, a, beta, b):
        return True
    x, y, _ = _differences(alpha, a, beta, b)
    return _joined(x, y)


def main1_witness(alpha: Partition, a: int, beta: Partition, b: int
                  ) -> tuple[int, ...] | None:
    """Witnessing pattern for reducibility, or None when irreducible.

    With a > b, an element of the second difference strictly between two
    of the first (a < b: swap roles); a = b asks for a four-term
    interleaving either way round.  The witness is the increasing tuple of
    positions realizing the pattern.
    """
    if _apart(alpha, a, beta, b):
        return None
    return _witness(*_differences(alpha, a, beta, b), a, b)


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
    if _apart(alpha, a, beta, b):
        return True, None
    x, y, base = _differences(alpha, a, beta, b)
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
