"""The graded algebra spanned by normal-form basis vectors E*(m).

Elements are finite Z[v,v^-1]-linear combinations of basis vectors indexed
by multisegments.  Multiplication goes through ordered generator words: the
basis vector of m corresponds, up to an explicit power of v, to the product
of one generator per segment of m taken in increasing segment order, and
out-of-order adjacent generator pairs rewrite by a quadratic straightening
rule, with an extra union/intersection term when the two segments are
linked.  Quantum minors are alternating sums of generator words and land in
the same normal form.  Every product straightens its scalars in the packed
form of ``laurent`` (one int per coefficient) and decodes each finished
word once; the basis cache straightens its structure constants with the
same kernel.
"""

from __future__ import annotations

from typing import Iterable

from .laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    _decode,
    _pack,
    _render_terms,
    _width,
)
from .multisegment import (
    Multisegment,
    Segment,
    Weight,
    _from_sorted,
    segment_intersection,
    segment_union,
)

__all__ = [
    "AlgebraElement",
    "InvariantError",
    "basis_product",
    "dual_pbw",
    "unit",
    "quantum_minor",
    "minor_multisegment",
]

Word = tuple[Segment, ...]


class InvariantError(Exception):
    """A computed result breaks an invariant of the algorithm that built it:
    a straightened word that changes degree or lowers the squared-length
    sum, or a basis vector that is not unitriangular."""


def _measures(word: Word) -> tuple[int, int]:
    """Degree and squared-length sum of a word."""
    degree = sq = 0
    for s in word:
        n = s.end - s.start + 1
        degree += n
        sq += n * n
    return degree, sq


def _word_str(word: Word) -> str:
    return "*".join(map(str, word)) or "1"


def _straighten(word: Word, off: int, x: int, l1: int, k: int,
                out: dict[Word, list[int]]) -> None:
    """Accumulate the normal form of v^off x(v) * word into out.

    The scalar is packed (laurent._pack) at width k: x has digits at
    exponents >= 0 only, and l1 bounds their L1 norm.  Each finished word
    maps to [off, x, l1] in the same form, its contributions aligned by a
    shift to the least off among them, their bounds summed.  A word whose
    contributions cancel keeps x = 0.

    Rewrites the rightmost out-of-order pair first.  Each rewrite either
    swaps the pair (one fewer inversion, same multiset) or, for linked
    segments, replaces it by intersection/union (strictly larger squared
    length sum, so the dominance measure drops); both measures are bounded,
    hence termination.  A swap changes only off.  A linked rewrite
    multiplies by v^-kk (v^-1 - v) = v^(-kk-1) (1 - v^2): x becomes
    x - (x << 2k) at off - kk - 1, at most doubling the L1 norm.  So every
    l1 bounds the L1 norm of the coefficient it goes with.  Every finished
    word is checked once, when it first enters out: same degree as word,
    squared-length sum no smaller.

    Each stack entry carries the index where the search for its rightmost
    descent starts, leftward, so no word is scanned from its right end
    again.  A descent at i is the rightmost, so the tail after it is
    sorted.  A swap, or an intersection put before its union, leaves an
    ordered pair at i, so the search resumes at i + 1 (the pair against
    the tail); a lone union at i resumes it at i.  With no tail the
    search resumes at i - 1.  Either way it finds the pair a scan of the
    whole word from the right would find.
    """
    degree, sq = _measures(word)
    k2 = 2 * k
    stack = [(word, off, x, l1, len(word) - 2)]
    while stack:
        w, off, x, l1, i = stack.pop()
        while i >= 0:
            hs, he = hi = w[i]
            ls, le = lo = w[i + 1]
            if he > le or he == le and hs > ls:
                break
            i -= 1
        else:
            acc = out.get(w)
            if acc is None:
                got_degree, got_sq = _measures(w)
                if got_degree != degree or got_sq < sq:
                    raise InvariantError(
                        f"straightening {_word_str(word)} gave "
                        f"{_word_str(w)} of degree {got_degree} and "
                        f"squared-length sum {got_sq}: it must keep degree "
                        f"{degree} and a sum of at least {sq}")
                out[w] = [off, x, l1]
            else:
                d = off - acc[0]
                if d >= 0:
                    acc[1] += x << k * d
                else:
                    acc[0] = off
                    acc[1] = (acc[1] << k * -d) + x
                acc[2] += l1
            continue
        # segment_pairing(hi, lo) for hi above lo in (end, start) order:
        # 1 when they share an end or a start, -1 when lo ends just
        # before hi starts, and 0 otherwise.
        if he == le or hs == ls:
            kk = 1
        else:
            kk = -1 if hs == le + 1 else 0
        head, tail = w[:i], w[i + 2:]
        nxt = i + 1 if tail else i - 1
        stack.append((head + (lo, hi) + tail, off - kk, x, l1, nxt))
        if he > le and ls < hs <= le + 1:  # linked(hi, lo)
            u = segment_union(hi, lo)
            inter = segment_intersection(hi, lo)
            # v^off x times v^-kk (v^-1 - v) = v^(off-kk-1) x (1 - v^2)
            y, low = x - (x << k2), off - kk - 1
            if inter is None:
                stack.append((head + (u,) + tail, low, y, 2 * l1,
                              i if tail else i - 1))
            else:
                stack.append((head + (inter, u) + tail, low, y, 2 * l1, nxt))


def _normal_form(fill, k: int = _width(0)) -> "AlgebraElement":
    """The element whose straightened words fill(words, k) accumulates into
    words at width k.  If the largest word bound does not fit k, fill runs
    once more, at the first width that fits it (laurent._width): word
    bounds do not depend on the width."""
    words: dict[Word, list[int]] = {}
    fill(words, k)
    wide = _width(max((l1 for _, _, l1 in words.values()), default=0), k)
    if wide != k:
        words = {}
        fill(words, wide)
    return _from_words(words, wide)


def _from_words(words: dict[Word, list[int]], k: int) -> "AlgebraElement":
    """The element with the given straightened words: each sorted word is
    v^(-binom_sum) E*(m) for its multisegment m, so it contributes its
    coefficient times v^(-binom_sum) to E*(m).  Distinct sorted words have
    distinct multisegments, so each coefficient is decoded once; a word is
    sorted and its segments valid, so it is the label's segment tuple."""
    out: dict[Multisegment, LaurentPoly] = {}
    for w, (off, x, _) in words.items():
        if x:
            label = _from_sorted(w)
            out[label] = _decode(x, off - label.binom_sum(), k)
    return _wrap(out)


def _packed_terms(x: "AlgebraElement", k: int
                  ) -> list[tuple[Word, int, int, int]]:
    """Each term c E*(m) of x as the word of m with its scalar: (segments,
    off, packed c, L1 norm of c), c packed at its least exponent e at
    width k and off = e + binom_sum, as E*(m) is v^binom_sum times the
    word."""
    out = []
    for m, c in x._terms.items():
        low = min(c._c)
        out.append((m.segments, m.binom_sum() + low, *_pack(c, low, k)))
    return out


def _wrap(terms: dict[Multisegment, LaurentPoly]) -> "AlgebraElement":
    """The element owning terms, which holds no zero coefficient and which
    no one else mutates: no filter, no copy."""
    x = object.__new__(AlgebraElement)
    x._terms = terms
    return x


class AlgebraElement:
    """A Z[v,v^-1]-linear combination of basis vectors E*(m)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Multisegment, LaurentPoly] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if c}

    # -- queries -----------------------------------------------------------

    def support(self) -> list[Multisegment]:
        """Support labels sorted by the dominance-compatible extension key."""
        return sorted(self._terms, key=Multisegment.extension_key)

    def coefficient(self, m: Multisegment) -> LaurentPoly:
        return self._terms.get(m, ZERO)

    def items(self) -> list[tuple[Multisegment, LaurentPoly]]:
        return [(m, self._terms[m]) for m in self.support()]

    def unordered_items(self) -> Iterable[tuple[Multisegment, LaurentPoly]]:
        """A read-only view of the (label, coefficient) pairs, unsorted."""
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def weight(self) -> Weight:
        """The common weight of the support; error if mixed or zero."""
        weights = {m.weight() for m in self._terms}
        if len(weights) != 1:
            raise ValueError("element is not homogeneous")
        return weights.pop()

    def is_homogeneous(self) -> bool:
        return len({m.weight() for m in self._terms}) <= 1

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return AlgebraElement(out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, scalar: LaurentPoly | int) -> "AlgebraElement":
        scalar = scalar if isinstance(scalar, LaurentPoly) else LaurentPoly(scalar)
        return AlgebraElement({m: c * scalar for m, c in self._terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, (int, LaurentPoly)):
            return self.scaled(scalar)
        return NotImplemented

    # -- multiplication -----------------------------------------------------

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, LaurentPoly)):
            return self.scaled(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented

        def fill(words: dict[Word, list[int]], k: int) -> None:
            right = _packed_terms(other, k)
            for lhs, off, x, l1 in _packed_terms(self, k):
                for rhs, roff, y, rl1 in right:
                    _straighten(lhs + rhs, off + roff, x * y, l1 * rl1, k,
                                words)

        return _normal_form(fill)

    # -- comparison and rendering ---------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"AlgebraElement({self._terms!r})"

    def __str__(self) -> str:
        return render_combination(self.items(), "E*")


def render_combination(items: Iterable[tuple[Multisegment | str,
                                              LaurentPoly]],
                       symbol: str) -> str:
    """Render label/coefficient pairs like ``E*([0]+[1]) - v E*([0,1])``.

    Single-term coefficients are inlined with their sign; longer ones are
    parenthesized.  A label may be given as its text, so that a caller
    rendering many combinations over one set of labels renders each label
    once.  Each coefficient's terms are sorted once.
    """
    chunks: list[str] = []
    for m, c in items:
        body, negative = f"{symbol}({m})", False
        terms = c.items()
        if len(terms) == 1:
            (e, coef), = terms
            negative = coef < 0
            mag = abs(coef)
            if (e, mag) != (0, 1):
                body = f"{_render_terms(((e, mag),))} {body}"
        else:
            body = f"({_render_terms(terms)}) {body}"
        if chunks:
            body = f"- {body}" if negative else f"+ {body}"
        elif negative:
            body = f"-{body}"
        chunks.append(body)
    return " ".join(chunks) or "0"


def dual_pbw(m: Multisegment) -> AlgebraElement:
    """The basis vector E*(m)."""
    return AlgebraElement({m: ONE})


def basis_product(m: Multisegment, n: Multisegment) -> AlgebraElement:
    """The product E*(m) E*(n), straightened as one word."""
    word, off = m.segments + n.segments, m.binom_sum() + n.binom_sum()
    return _normal_form(lambda words, k: _straighten(word, off, 1, 1, k,
                                                     words))


def unit() -> AlgebraElement:
    """The identity element (basis vector of the empty multisegment)."""
    return AlgebraElement({Multisegment(): ONE})


def _check_indices(rows: tuple[int, ...], cols: tuple[int, ...]) -> None:
    if len(rows) != len(cols):
        raise ValueError("row and column index lists must have equal length")
    if any(a >= b for a, b in zip(rows, rows[1:])):
        raise ValueError("row indices must be strictly increasing")
    if any(a >= b for a, b in zip(cols, cols[1:])):
        raise ValueError("column indices must be strictly increasing")


def quantum_minor(rows: Iterable[int], cols: Iterable[int]) -> AlgebraElement:
    """The quantum minor with the given row and column index sets.

    Alternating sum over permutations of (-v)^(inversions) times the word of
    matrix generators; a generator with row index above its column index
    kills the term, and equal indices contribute the identity.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    _check_indices(rows, cols)
    # Permutations depth first, in lexicographic order: a row that cannot
    # take the least free column ends its branch, as no later row can.
    terms, stack = [], [((), 0)]
    while stack:
        perm, inv = stack.pop()
        free = [p for p in range(len(cols)) if p not in perm]
        if not free:
            terms.append((tuple(Segment(i, cols[p] - 1) for i, p
                                in zip(rows, perm) if i < cols[p]), inv))
        elif rows[len(perm)] <= cols[free[0]]:
            stack += [(perm + (p,), inv + sum(q > p for q in perm))
                      for p in reversed(free)]

    def fill(words: dict[Word, list[int]], k: int) -> None:
        for word, inv in terms:
            _straighten(word, inv, (-1) ** inv, 1, k, words)

    return _normal_form(fill)


def minor_multisegment(rows: Iterable[int], cols: Iterable[int]) -> Multisegment:
    """The multisegment attached to an admissible minor: sum of [i_r, j_r - 1].

    Requires i_r <= j_r for every r (otherwise the minor vanishes and no
    multisegment is attached); equal pairs contribute nothing.
    """
    rows = tuple(rows)
    cols = tuple(cols)
    _check_indices(rows, cols)
    if any(i > j for i, j in zip(rows, cols)):
        raise ValueError("minor vanishes: some row index exceeds its column")
    return Multisegment(
        Segment(i, j - 1) for i, j in zip(rows, cols) if i < j)
