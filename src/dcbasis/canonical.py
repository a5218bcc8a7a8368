"""The distinguished bar-invariant basis G*(m) and expansions into it.

Each basis vector is computed by a triangular correction: an auxiliary
vector built from a commutator-like combination of two lower-degree basis
vectors is congruent to the target modulo dominance-greater labels, and
subtracting the bar-symmetric part of each unwanted coefficient (processed
upward along a linear extension of dominance) leaves the unique vector
whose off-diagonal coefficients all lie in v*Z[v].
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    AlgebraElement,
    InvariantError,
    _packed_terms,
    _straighten,
    _wrap,
    dual_pbw,
)
from .laurent import (
    LaurentPoly,
    _decode,
    _digits,
    _divide,
    _fits,
    _repack,
    _symmetric_part,
    _width,
    _wrap as _poly,
)
from .multisegment import (
    Multisegment,
    Segment,
    Weight,
    _from_sorted,
    enumerate_by_weight,
    segment_pairing,
)

__all__ = [
    "BasisCache",
    "InvariantError",
    "DcbTable",
    "dcb_table",
    "kl_matrix",
    "expand_in_dcb",
    "structure_constants",
    "membership_up_to_power",
]


def _commutator_exponents(rest: Multisegment, s: Segment
                          ) -> tuple[int, int]:
    """(b(rest, s) + 1, b(s, rest) - 1) for a segment s that no segment of
    rest lies above.  Then b(rest, s) is the number mu of copies of s in
    rest, and b(s, rest) is mu plus (wt t, wt s) summed over the segments
    t of rest other than s."""
    segs = rest.segments
    mu = segs.count(s)
    return mu + 1, mu - 1 + sum(segment_pairing(t, s)
                                for t in segs if t != s)


class _Widened(Exception):
    """A bound outgrew the digit width, which has widened: start again."""


def _decoded(x: int, base: int, k: int) -> tuple[LaurentPoly, int, int]:
    """The polynomial packed as x at base and width k, its L1 norm, and x."""
    digits, l1 = _digits(x, base, k)
    return _poly(digits), l1, x


class _Table(dict):
    """entry(x, base, k) by packed coefficient x, each computed once."""

    __slots__ = ("entry", "base", "k")

    def __init__(self, entry, base: int, k: int):
        self.entry, self.base, self.k = entry, base, k

    def __missing__(self, x: int):
        value = self[x] = self.entry(x, self.base, self.k)
        return value


class BasisCache:
    """Memoized computation of the corrected basis.

    The correction loop and expand_in_dcb share one elimination, a sweep
    upward along Multisegment.extension_key, a linear extension of
    dominance.  G*(m) is fixed by bar-invariance and unitriangularity
    alone, so any linear extension yields the same basis, as a test checks.

    The cache computes on integers.  A label gets a dense id when first
    seen (_ids, keyed by its segment tuple, so that a straightened word,
    which is one, finds its id without a label being built; _labels,
    _order and _binoms hold its label, its key, taken once through _key,
    and its binom_sum), and accumulators, heaps, rows and products are
    keyed by id.  A coefficient is one int: digit e, balanced in
    [-2^(K-1), 2^(K-1)), sits at bits K(e - base), base being the least
    exponent the vector can produce (laurent._pack).  A multiply-add is
    one product and one shift.

    Each packed step bounds the L1 norm of every coefficient it holds and
    checks that the bound fits K (laurent._fits) before reading a digit.
    aux_vector's bound, the L1 sum of G*(rest) times 1 + the largest word
    bound of a product, bounds each numerator's L1 norm, so its division
    by v - v^-1 (laurent._divide) is exact; each sweep step adds L1(t)
    times the largest L1 norm in G*(n).

    Products are straightened on packed scalars (algebra._straighten), and
    _resolve is the one way from their finished words, or from the terms
    of an element to expand, to coefficients by id.  The bound each
    finished word carries bounds its L1 norm: L1(ab) <= L1(a) L1(b), so a
    structure constant's pair of row terms starts below the product of the
    two rows' largest L1 norms, and E*([s]) E*(p) starts at 1; a swap keeps
    the L1 norm; a linked rewrite multiplies by v^(-kk-1) (1 - v^2), so at
    most doubles it; and sums add their norms.  A structure constant's
    sweep starts from the largest bound of a word.  A bound that does not
    fit widens K once, to the first width that fits it (laurent._width,
    which also gives the start width), re-packs every finished row at that
    width (laurent._repack), drops the product memo, and restarts its run.
    No input LaurentPoly arithmetic takes is refused, and no finished row
    is computed again.

    Each packed step (_aux, _correct, _sweep, _expand, _structure) is a
    generator that reads a row as ``self._row(i) or (yield i)``: _run
    pushes _correct(i) on its one explicit stack and sends the row back,
    so only _run finishes a row, and no chain of rows in waiting grows the
    Python stack.  A widening drops the stack and restarts the run's step.

    The rows, by id, are the cache's memo.  Each packs G*(n) at base 0, by
    a shift of its accumulators as the correction finishes it and checks
    its shape; labels_computed counts them.  Each coefficient is read off
    once: _tables holds, by kernel and base, then by packed value, its
    decoding (_decoded: LaurentPoly, L1 norm, the int; rows at base 0) and
    a correction's symmetric part (laurent._symmetric_part).  Row norms,
    sweep steps and decoded vectors read them, so returned vectors share
    one immutable LaurentPoly per distinct coefficient, and rows one int.
    The tables grow with distinct coefficients, not rows (209 decoded and
    200 symmetric parts for the 1,281 rows of the 522-label class), and a
    widening drops them.
    dual_canonical decodes a row once and keeps the vector in _memo, by id,
    so _memo holds only labels a caller asked for (a dcb_table class, the
    factors of a structure constant, the oracle's labels), never a prefix
    or a sweep label the correction finished on the way.  The decoded copy
    pays only for the two factor decodes in _structure, which are there
    for perfbench's tracer and cost a table lookup per coefficient:
    without it the irreducibility oracle runs about as fast, and warm
    structure constants about 1.2 times slower.

    The product memo keeps each E*([s]) E*(p) that aux_vector straightens,
    the word [s] p resolved straight to ids, packed at its least word
    offset with mu, the copies of s in p, and the id of p + [s], by s and
    then by the id of p.  It lives for one run: every public entry goes
    through _run, and the outermost run (one dual_canonical miss,
    aux_vector, expand_in_dcb or structure_constants call, or one
    dcb_table class) opens it and drops it on return, so no product
    outlives the call that needed it.  Only this module opens a run.
    """

    def __init__(self):
        self._memo: dict[int, AlgebraElement] = {}
        self._ids: dict[tuple[Segment, ...], int] = {}
        self._labels: list[Multisegment] = []
        self._order: list[tuple] = []
        self._binoms: list[int] = []
        self._k = _width(0)
        self._rows: list[tuple | None] = []
        self._products: dict[Segment, dict[int, tuple]] | None = None
        self._tables: dict[tuple, _Table] = {}

    def labels_computed(self) -> int:
        """The number of finished rows."""
        return len(self._rows) - self._rows.count(None)

    def _key(self, n: Multisegment) -> tuple:
        """n.extension_key(), which _id takes once per label."""
        return n.extension_key()

    def _id(self, n: Multisegment) -> int:
        i = self._ids.get(n.segments)
        if i is None:
            i = self._ids[n.segments] = len(self._labels)
            self._labels.append(n)
            self._order.append(self._key(n))
            self._binoms.append(n.binom_sum())
            self._rows.append(None)
        return i

    def _table(self, entry, base: int) -> _Table:
        """The table of entry at base and width K.  A widening replaces the
        tables, and its raise leaves every step that holds one."""
        table = self._tables.get((entry, base))
        if table is None:
            table = self._tables[entry, base] = _Table(entry, base, self._k)
        return table

    def _run(self, step, *args):
        """The result of step(*args), each row it waits for finished by a
        _correct pushed above it, and started again after each widening.
        The outermost run opens the product memo and closes it on return."""
        outer = self._products is None
        if outer:
            self._products = {}
        try:
            stack, value = [step(*args)], None
            while stack:
                try:
                    stack.append(self._correct(stack[-1].send(value)))
                    value = None
                except StopIteration as done:
                    stack.pop()
                    value = done.value
                except _Widened:
                    stack, value = [step(*args)], None
            return value
        finally:
            if outer:
                self._products = None

    def _check(self, bound: int, k: int) -> None:
        """Widen and restart unless digits up to bound fit width k: K goes
        once to the first width from 2k that fits (laurent._width), every
        finished row is packed again at that width, and the product memo
        and the tables start empty."""
        if not _fits(bound, k):
            self._k = to = _width(bound, 2 * k)
            # Past its two norms a row alternates id and coefficient.
            self._rows = [row and row[:2] + tuple(
                _repack(x, k, to) if j % 2 else x
                for j, x in enumerate(row[2:])) for row in self._rows]
            self._products, self._tables = {}, {}
            raise _Widened

    def _row(self, i: int) -> tuple | None:
        """The row of G*(n), n of id i, or None while it is missing: the
        largest and summed L1 norms, then each id and base-0 coefficient."""
        return self._rows[i]

    def _wait(self, i: int):
        """The row of id i, a step of _run, which finishes it if missing."""
        return self._row(i) or (yield i)

    def aux_vector(self, m: Multisegment) -> dict[Multisegment, LaurentPoly]:
        """The pre-correction vector: E*(m) plus dominance-greater terms,
        each nonzero coefficient decoded from _aux, the packed step the
        correction takes.

        For at most one segment this is the basis vector itself.  Otherwise
        split off one copy of the largest segment s, and divide the graded
        commutator v^(b(rest,s)+1) G*(rest) E*(s) - v^(b(s,rest)-1) E*(s) G*(rest)
        exactly by v - v^-1.  It is summed term by term over the support
        of G*(rest).  Each E*(s) E*(p) comes from the product memo; each
        E*(p) E*(s) is the single term v^-mu E*(p + s), with mu the number
        of copies of s in p, and is never straightened.
        """
        acc, base, _ = self._run(self._aux, m)
        coefs, labels = self._table(_decoded, base), self._labels
        return {labels[i]: coefs[x][0] for i, x in acc.items()}

    def _aux(self, m: Multisegment):
        """aux_vector(m) packed: (nonzero coefficients by id, base, bound)."""
        k = self._k
        if len(m) <= 1:
            return {self._id(m): 1}, 0, 1
        s = m.largest_segment()
        rest = _from_sorted(m.segments[:-1])
        forward, backward = _commutator_exponents(rest, s)
        i = self._id(rest)
        row = self._row(i) or (yield i)
        products = self._products.setdefault(s, {})
        # Each c lies in Z[v], so no term goes below its product's base
        # plus backward, or below forward - mu.
        entries, base, top = [], -1, 0
        for p in row[2::2]:
            entry = products.get(p)
            if entry is None:
                entry = products[p] = self._product(m, s, p, k)
            entries.append(entry)
            base = min(base, backward + entry[0], forward - entry[3])
            top = max(top, entry[4])
        num: dict[int, int] = {}
        for c, (low, terms, swap, mu, _) in zip(row[3::2], entries):
            shift = k * (backward + low - base)
            for q, d in terms.items():
                num[q] = num.get(q, 0) - (c * d << shift)
            num[swap] += c << k * (forward - mu - base)
        bound = row[1] * top
        self._check(bound, k)
        return _divide(num, base, k), base + 1, bound

    def _product(self, m: Multisegment, s: Segment, p: int, k: int
                 ) -> tuple:
        """The memo entry of E*([s]) E*(p), p by id: (base, {id: coefficient},
        id of p + [s], mu, 1 + the largest L1 bound, for v^-mu E*(p + s)).
        The word [s] p is straightened on packed scalars, as in _structure,
        and each finished word goes straight to its id."""
        label = self._labels[p]
        words: dict[tuple[Segment, ...], list[int]] = {}
        _straighten((s,) + label.segments, self._binoms[p], 1, 1, k, words)
        base, terms, top = self._resolve(words, k)
        # The label's largest segment is at most s, and no elementary move
        # raises the largest segment, so the word p*s is sorted.  p + s is
        # the all-swap term of E*(s) E*(p); an unsorted word would match no
        # label and fail the lookup.
        swap = self._ids.get(label.segments + (s,))
        if swap not in terms:
            raise InvariantError(
                f"aux_vector({m}): E*({s}) E*({label}) has no term at "
                f"{label} + {s}, so E*({label}) E*({s}) is not a relabelling")
        return base, terms, swap, label.segments.count(s), top + 1

    def _resolve(self, words: dict[tuple[Segment, ...], list[int]], k: int
                 ) -> tuple[int, dict[int, int], int]:
        """The finished words of a straightening (algebra._straighten) by
        id: (base, {id: coefficient packed at base}, the largest word
        bound), words whose coefficient is 0 left out.  The bound is
        checked before anything is returned, so a zero test that an
        overflow fooled restarts the step."""
        ids, binoms, found, bound = self._ids, self._binoms, [], 0
        for w, (off, x, l1) in words.items():
            bound = l1 if l1 > bound else bound
            if x:
                i = ids.get(w)
                if i is None:
                    i = self._id(_from_sorted(w))
                # Word w is v^-binom(w) E*(w): its coefficient moves down
                # by binom.
                found.append((i, off - binoms[i], x))
        self._check(bound, k)
        base = min((off for _, off, _ in found), default=0)
        return base, {i: x << k * (off - base) for i, off, x in found}, bound

    def dual_canonical(self, m: Multisegment) -> AlgebraElement:
        """The basis vector G*(m), expanded over the E* basis: m's row,
        finished if missing, decoded once and kept for the next call."""
        i = self._id(m)
        hit = self._memo.get(i)
        if hit is None:
            row = self._run(self._wait, i)
            coefs, labels = self._table(_decoded, 0), self._labels
            hit = self._memo[i] = _wrap({
                labels[j]: coefs[y][0] for j, y in zip(row[2::2], row[3::2])})
        return hit

    def _correct(self, i: int):
        """Write the row of G*(n), n of id i, and return it through _row;
        every row it waits for is finished on _run's stack."""
        m, k = self._labels[i], self._k
        acc, base, bound = yield from self._aux(m)
        # Every G*(n) the sweep subtracts lies above m, so the sweep never
        # reaches m: its coefficient is set aside and put back unchanged.
        diagonal = acc.pop(i, None)
        yield from self._sweep(acc, base, bound, True)
        if diagonal is not None:
            acc[i] = diagonal
        # One pass packs the row at base 0 by a shift and checks the shape
        # of G*(m): every other label above m, with no digit at an
        # exponent <= 0, and coefficient 1 at m.
        order, key_m = self._order, self._order[i]
        coefs = self._table(_decoded, 0)
        shift, low = k * -base, (1 << k * (1 - base)) - 1
        row, top, total = [], 0, 0
        for j, x in acc.items():
            if not x:
                continue
            y = x >> shift
            if order[j] > key_m and not x & low:
                # The table's own int, which every row shares.
                _, l1, y = coefs[y]
            elif j == i:
                l1 = 1  # or the check below fails
            else:
                raise InvariantError(
                    f"G*({m}) has coefficient {_decode(x, base, k)}"
                    f" at {self._labels[j]}: off-diagonal terms must lie "
                    f"above {m}, with coefficients in v*Z[v]")
            row += j, y
            top = l1 if l1 > top else top
            total += l1
        diagonal = acc.get(i, 0)
        if diagonal != 1 << shift:
            raise InvariantError(
                f"G*({m}) has coefficient {_decode(diagonal, base, k)} "
                f"at {m}, not 1")
        self._rows[i] = (top, total, *row)
        return self._row(i)

    def _sweep(self, acc: dict[int, int], base: int, bound: int,
               correct: bool):
        """Walk the ids of acc upward along their keys, subtracting
        t G*(n) at each label n, in place; acc holds coefficients packed at
        base, no digit above bound.  The correction takes t = the symmetric
        part, nonzero exactly when a digit at an exponent <= 0 is, which is
        a mask of the low bits; the expansion takes the whole coefficient
        (mask -1).  A label waits in idle until its mask is nonzero, then
        goes on the heap once; a step at n touches only labels above n, so
        each label is queued before its turn.  Keys are unique, so the heap
        never compares ids.  Returns the expansion, each nonzero t decoded
        at its label, in walk order; the correction returns {}."""
        k = self._k
        self._check(bound, k)
        low = (1 << k * (1 - base)) - 1 if correct else -1
        table = self._table(_symmetric_part if correct else _decoded, base)
        order, labels = self._order, self._labels
        push, pop = heapq.heappush, heapq.heappop
        heap, idle, steps = [], set(), {}
        for i, x in acc.items():
            if x & low:
                heap.append((order[i], i))
            else:
                idle.add(i)
        heapq.heapify(heap)
        while heap:
            i = pop(heap)[1]
            if correct:
                t, l1 = table[acc[i]]
            elif t := acc[i]:
                steps[labels[i]], l1, _ = table[t]
            if not t:
                continue
            row = self._row(i) or (yield i)
            bound += l1 * row[0]
            self._check(bound, k)
            for p, c in zip(row[2::2], row[3::2]):
                x = acc.get(p)
                if x is None:
                    x = acc[p] = -t * c
                    if x & low:
                        push(heap, (order[p], p))
                    else:
                        idle.add(p)
                else:
                    x = acc[p] = x - t * c
                    if p in idle and x & low:
                        idle.remove(p)
                        push(heap, (order[p], p))
        return steps

    def _expand(self, x: AlgebraElement):
        """expand_in_dcb(x, self), a step of _run: the terms of x are
        finished words already."""
        k = self._k
        words = {w: [off, y, l1] for w, off, y, l1 in _packed_terms(x, k)}
        base, acc, bound = self._resolve(words, k)
        return (yield from self._sweep(acc, base, bound, False))

    def _structure(self, m: Multisegment, n: Multisegment):
        """structure_constants(m, n, self), a step of _run: each pair
        of terms of the rows of G*(m) and G*(n) straightened as one packed
        word, with no label built for a word that already has an id."""
        k, labels, binoms = self._k, self._labels, self._binoms
        i, j = self._id(m), self._id(n)
        row_m = self._row(i) or (yield i)
        row_n = self._row(j) or (yield j)
        # The factors are basis vectors the caller names, so they pass
        # through dual_canonical, where a subclass or a tracer sees every
        # vector a caller uses; their rows are finished, so it only
        # decodes each once.
        self.dual_canonical(m)
        self.dual_canonical(n)
        # Rows sit at base 0, so cp * cq is the packed product, its L1 norm
        # at most the product of the rows' largest L1 norms.
        top = row_m[0] * row_n[0]
        right = [(labels[q].segments, binoms[q], cq)
                 for q, cq in zip(row_n[2::2], row_n[3::2])]
        words: dict[tuple[Segment, ...], list[int]] = {}
        for p, cp in zip(row_m[2::2], row_m[3::2]):
            lhs, off = labels[p].segments, binoms[p]
            for rhs, roff, cq in right:
                _straighten(lhs + rhs, off + roff, cp * cq, top, k, words)
        base, acc, bound = self._resolve(words, k)
        return (yield from self._sweep(acc, base, bound, False))


@dataclass(frozen=True)
class DcbTable:
    """All corrected basis vectors of one weight class, in enumeration order."""

    weight: Weight
    labels: tuple[Multisegment, ...]
    expansions: dict[Multisegment, AlgebraElement]

    def expansion(self, m: Multisegment) -> AlgebraElement:
        return self.expansions[m]

    def coefficient(self, m: Multisegment, n: Multisegment) -> LaurentPoly:
        return self.expansions[m].coefficient(n)

    @cached_property
    def _rank(self) -> dict[Multisegment, int]:
        """Each label's place in extension_key order, which keys every
        label of the class once.  G*(m) is homogeneous, so every label of
        an expansion is one of the class's labels."""
        order = sorted(self.labels, key=Multisegment.extension_key)
        return {m: i for i, m in enumerate(order)}

    def row(self, m: Multisegment) -> list[tuple[Multisegment, LaurentPoly]]:
        """The terms of G*(m) in extension_key order, as
        AlgebraElement.items() lists them."""
        rank = self._rank
        return sorted(self.expansions[m].unordered_items(),
                      key=lambda term: rank[term[0]])

    def to_json_obj(self) -> dict:
        # Each label is rendered once.
        names = {m: str(m) for m in self.labels}
        return {
            "weight": str(self.weight),
            "basis": [
                {
                    "label": names[m],
                    "expansion": [
                        {"label": names[n],
                         "coef": [list(p) for p in c.items()]}
                        for n, c in self.row(m)
                    ],
                }
                for m in self.labels
            ],
        }


def dcb_table(w: Weight, cache: BasisCache) -> DcbTable:
    """The class of w, in one run of cache, so its labels share products."""
    labels = enumerate_by_weight(w)

    def expansions():
        yield from ()  # a step of _run that waits for no row itself
        return {m: cache.dual_canonical(m) for m in labels}
    return DcbTable(w, labels, cache._run(expansions))


def expand_in_dcb(x: AlgebraElement, cache: BasisCache
                  ) -> dict[Multisegment, LaurentPoly]:
    """Coefficients of x over the corrected basis, in extension_key order.

    One upward sweep of a packed copy of x strips the whole coefficient at
    each label; unitriangularity leaves nothing behind, and the stripped
    coefficients are exactly the basis coefficients.  The copy's base is
    the least exponent of x, which no step t G*(n) goes below, G*(n) being
    in Z[v]; its bound starts at the largest L1 norm of x, and each
    widening packs it again.  x may mix weights: G*(n) has the weight of n,
    so no step mixes weights, and extension_key puts each label after
    every label it dominates, whatever other weights are present.  So the
    sweep of x is the union of the sweeps of its homogeneous parts.
    """
    return cache._run(cache._expand, x)


def structure_constants(m: Multisegment, n: Multisegment, cache: BasisCache
                        ) -> dict[Multisegment, LaurentPoly]:
    """Expansion of G*(m) G*(n) over the corrected basis, in extension_key
    order: expand_in_dcb(G*(m) * G*(n), cache), computed without leaving
    the packed form.  The product is straightened from the cache's packed
    rows of G*(m) and G*(n), one word per pair of terms, and its words go
    straight into the sweep that expand_in_dcb runs."""
    return cache._run(cache._structure, m, n)


def membership_up_to_power(x: AlgebraElement, cache: BasisCache
                           ) -> tuple[int, Multisegment] | None:
    """(k, q) such that v^k x = G*(q), or None if no such pair exists.

    G*(q) has coefficient 1 at q, and its other labels dominate q, so
    extension_key puts them above q.  Hence if v^k x = G*(q), then q is
    the lowest label of x, x has coefficient v^-k there, and v^-k G*(q)
    is x: one basis vector decides.  The zero element gives None, and so
    does an x that mixes weights: G*(q) has the weight of q, so it differs
    from every such x.
    """
    if not x:
        return None
    q = min((n for n, _ in x.unordered_items()),
            key=lambda n: cache._order[cache._id(n)])
    e = x.coefficient(q).single_power()
    if e is None:
        return None
    if cache.dual_canonical(q).scaled(LaurentPoly.v_power(e)) != x:
        return None
    return (-e, q)


def kl_matrix(w: Weight, cache: BasisCache
              ) -> dict[Multisegment, dict[Multisegment, LaurentPoly]]:
    """Rows express each E*(m) of the weight class over the corrected basis.

    This is the inverse of the unitriangular table of the class; diagonal
    entries are 1 and the row order is the class enumeration order.
    """
    return {m: expand_in_dcb(dual_pbw(m), cache)
            for m in enumerate_by_weight(w)}
