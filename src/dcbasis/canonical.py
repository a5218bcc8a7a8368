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
from typing import Callable

from .algebra import (
    AlgebraElement,
    InvariantError,
    _wrap,
    basis_product,
    dual_pbw,
)
from .laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    add_product,
    divide_by_v_minus_vinv,
    finish,
    raw,
    symmetric_part,
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


def _needs_correction(coeffs: dict[int, int]) -> bool:
    """True iff the raw coefficient has a nonzero term at an exponent <= 0,
    which is exactly when its symmetric part is nonzero."""
    for e, c in coeffs.items():
        if c and e <= 0:
            return True
    return False


class BasisCache:
    """Memoized computation of the corrected basis.

    Every sweep walks its labels upward along Multisegment.extension_key, a
    linear extension of dominance.  G*(m) is fixed by bar-invariance and
    unitriangularity alone, so any linear extension yields the same basis,
    which a property test exercises.  The correction loop and
    expand_in_dcb share one elimination, an upward sweep along that key.
    expand_in_dcb queues every label it meets.  The correction queues only
    the labels whose coefficient has a nonzero term at an exponent <= 0:
    every other coefficient already lies in v*Z[v], so its label needs no
    step.

    Besides the basis vectors, the cache holds two memos.  The key memo
    keeps extension_key of every label a sweep has met, so each label is
    keyed once.  The product memo keeps the products E*([s]) E*(p) that
    aux_vector straightens, keyed by the weight of the product and then by
    p, which fixes s.  dcb_table drops the products of a weight once its
    table is built: every label of that weight is then memoized, so
    aux_vector never asks for them again.
    """

    def __init__(self):
        self._memo: dict[Multisegment, AlgebraElement] = {}
        self._keys: dict[Multisegment, tuple] = {}
        self._products: dict[Weight, dict[Multisegment, AlgebraElement]] = {}

    def labels_computed(self) -> int:
        return len(self._memo)

    def _key(self, n: Multisegment) -> tuple:
        """n.extension_key(), computed once per label for the life of the
        cache."""
        key = self._keys.get(n)
        if key is None:
            key = self._keys[n] = n.extension_key()
        return key

    def aux_vector(self, m: Multisegment
                   ) -> dict[Multisegment, dict[int, int]]:
        """The pre-correction vector: E*(m) plus dominance-greater terms, as
        nonzero raw coefficients (see laurent) that the caller owns.

        For at most one segment this is the basis vector itself.  Otherwise
        split off one copy of the largest segment s, and divide the graded
        commutator v^(b(rest,s)+1) G*(rest) E*(s) - v^(b(s,rest)-1) E*(s) G*(rest)
        exactly by v - v^-1.  It is summed term by term over the support
        of G*(rest).  Each E*(s) E*(p) comes from the product memo of m's
        weight; each E*(p) E*(s) is the single term v^-mu E*(p + s), with
        mu the number of copies of s in p, and is never straightened.
        """
        if len(m) <= 1:
            return {m: {0: 1}}
        s = m.largest_segment()
        rest = _from_sorted(m.segments[:-1])
        single = _from_sorted((s,))
        forward, backward = _commutator_exponents(rest, s)
        products = self._products.setdefault(m.weight(), {})
        num: dict[Multisegment, dict[int, int]] = {}
        for p, c in self.dual_canonical(rest).unordered_items():
            product = products.get(p)
            if product is None:
                product = products[p] = basis_product(single, p)
            for q, d in product.unordered_items():
                acc = num.get(q)
                if acc is None:
                    acc = num[q] = {}
                add_product(acc, c, d, backward, -1)
            # rest dominates p, and no elementary move raises the largest
            # segment, so the word p*s is sorted.  p + s is the all-swap
            # term of E*(s) E*(p), summed above, so num holds its label;
            # an unsorted word would match no label and fail the lookup.
            acc = num.get(_from_sorted(p.segments + (s,)))
            if acc is None:
                raise InvariantError(
                    f"aux_vector({m}): E*({s}) E*({p}) has no term at "
                    f"{p} + {s}, so E*({p}) E*({s}) is not a relabelling")
            add_product(acc, c, ONE, forward - p.segments.count(s))
        return {q: quotient for q, acc in num.items()
                if (quotient := divide_by_v_minus_vinv(acc))}

    def dual_canonical(self, m: Multisegment) -> AlgebraElement:
        """The basis vector G*(m), expanded over the E* basis.  The missing
        prefixes of m's segments, which aux_vector chains through, are built
        bottom-up in the order a recursion would finish them, so the stack
        does not grow with the number of segments.  The sweep recurses."""
        hit = self._memo.get(m)
        if hit is not None:
            return hit
        segs = m.segments
        k = len(segs) - 1
        while k > 1 and _from_sorted(segs[:k]) not in self._memo:
            k -= 1
        for j in range(k, len(segs) - 1):
            prefix = _from_sorted(segs[:j])
            if prefix not in self._memo:
                self.dual_canonical(prefix)
        coeffs = self.aux_vector(m)
        # Every G*(n) the sweep subtracts lies above m, so the sweep never
        # reaches m: its coefficient is set aside and put back unchanged.
        diagonal = coeffs.pop(m, None)
        self._sweep(coeffs, lambda acc: finish(symmetric_part(acc)),
                    _needs_correction)
        if diagonal is not None:
            coeffs[m] = diagonal
        # One pass finishes each coefficient and checks that the vector has
        # the shape of G*(m): every label other than m above m, with its
        # coefficient in v*Z[v], and coefficient 1 at m.  This also checks
        # the coefficient of m in aux_vector(m).
        key = self._key
        key_m = key(m)
        terms: dict[Multisegment, LaurentPoly] = {}
        for n, acc in coeffs.items():
            c = finish(acc)
            if not c:
                continue
            # The key test comes first: it settles every label above m, so
            # only labels not above m pay for a label comparison.
            if not (c.only_positive_exponents() if key(n) > key_m
                    else n == m):
                raise InvariantError(
                    f"G*({m}) has coefficient {c} at {n}: off-diagonal "
                    f"terms must lie above {m}, with coefficients in v*Z[v]")
            terms[n] = c
        if terms.get(m, ZERO) != ONE:
            raise InvariantError(
                f"G*({m}) has coefficient {terms.get(m, ZERO)} at {m}, "
                "not 1")
        x = self._memo[m] = _wrap(terms)
        return x

    def _sweep(self, coeffs: dict[Multisegment, dict[int, int]],
               part: Callable[[dict[int, int]], LaurentPoly],
               needs: Callable[[dict[int, int]], bool] | None = None
               ) -> dict[Multisegment, LaurentPoly]:
        """Walk the labels of coeffs upward along extension_key,
        subtracting t G*(n) at each label n, with t = part(coefficient at
        n).  coeffs holds raw coefficients, which the sweep updates in
        place, leaving the raw leftovers (zeros kept) to the caller.

        Without needs, every label goes on the heap.  With it, a label
        waits in idle while needs rejects its coefficient, and goes on the
        heap, once, as soon as needs accepts it: at the start, or after a
        step touches it.  part must vanish on every coefficient that needs
        rejects, so a label left idle would take no step.  A step at n
        touches only labels of G*(n), which lie above n, so every label is
        on the heap before its turn and is met once, after all labels
        below it.  The key ends with the sorted segment list, so no two
        labels share a key: the heap never compares labels.  Returns the
        nonzero t's, in walk order."""
        key = self._key
        push, pop = heapq.heappush, heapq.heappop
        heap = []
        idle = set()
        for n, acc in coeffs.items():
            if needs is None or needs(acc):
                heap.append((key(n), n))
            else:
                idle.add(n)
        heapq.heapify(heap)
        steps: dict[Multisegment, LaurentPoly] = {}
        while heap:
            n = pop(heap)[1]
            if not (t := part(coeffs[n])):
                continue
            steps[n] = t
            for p, c in self.dual_canonical(n).unordered_items():
                acc = coeffs.get(p)
                if acc is None:
                    acc = coeffs[p] = {}
                    if needs is None:
                        push(heap, (key(p), p))
                    else:
                        idle.add(p)
                add_product(acc, t, c, sign=-1)
                # Testing idle first spares a label hash whenever idle is
                # empty, as it always is without needs.
                if idle and p in idle and needs(acc):
                    idle.remove(p)
                    push(heap, (key(p), p))
        return steps


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
    labels = enumerate_by_weight(w)
    table = DcbTable(w, labels, {m: cache.dual_canonical(m) for m in labels})
    cache._products.pop(w, None)
    return table


def expand_in_dcb(x: AlgebraElement, cache: BasisCache
                  ) -> dict[Multisegment, LaurentPoly]:
    """Coefficients of x over the corrected basis, in extension_key order.

    One upward sweep of a raw copy of x strips the whole coefficient at
    each label; unitriangularity leaves nothing behind, and the stripped
    coefficients are exactly the basis coefficients.  x may mix weights:
    G*(n) has the weight of n, so no step of the sweep mixes weights, and
    extension_key puts each label after every label it dominates, whatever
    other weights are present.  So the sweep of x is the union of the
    sweeps of its homogeneous parts.
    """
    return cache._sweep({q: raw(c) for q, c in x.unordered_items()}, finish)


def structure_constants(m: Multisegment, n: Multisegment, cache: BasisCache
                        ) -> dict[Multisegment, LaurentPoly]:
    """Expansion of G*(m) G*(n) over the corrected basis."""
    return expand_in_dcb(cache.dual_canonical(m) * cache.dual_canonical(n),
                         cache)


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
    q = min((n for n, _ in x.unordered_items()), key=cache._key)
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
