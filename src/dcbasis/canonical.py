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
from typing import Callable

from .algebra import AlgebraElement, InvariantError, basis_product, dual_pbw
from .laurent import (
    LaurentPoly,
    ONE,
    add_product,
    divide_by_v_minus_vinv,
    finish,
    raw,
    symmetric_part,
)
from .multisegment import (
    Multisegment,
    Weight,
    _from_sorted,
    b_form,
    enumerate_by_weight,
)

__all__ = [
    "BasisCache",
    "InvariantError",
    "check_unitriangular",
    "DcbTable",
    "dcb_table",
    "kl_matrix",
    "expand_in_dcb",
    "structure_constants",
    "membership_up_to_power",
]


def check_unitriangular(m: Multisegment, x: AlgebraElement,
                        key: Callable[[Multisegment], tuple]) -> None:
    """Raise InvariantError unless x has the shape of G*(m): coefficient 1
    at m, every other label above m under key, with its coefficient in
    v*Z[v]."""
    key_m = key(m)
    for n, c in x.unordered_items():
        # The key test comes first: it settles every label above m, so
        # only labels not above m pay for a label comparison.
        if key(n) > key_m:
            ok = c.only_positive_exponents()
        else:
            ok = n == m
        if not ok:
            raise InvariantError(
                f"G*({m}) has coefficient {c} at {n}: off-diagonal "
                f"terms must lie above {m}, with coefficients in v*Z[v]")
    if x.coefficient(m) != ONE:
        raise InvariantError(
            f"G*({m}) has coefficient {x.coefficient(m)} at {m}, not 1")


class BasisCache:
    """Memoized computation of the corrected basis.

    Every sweep walks its labels upward along Multisegment.extension_key, a
    linear extension of dominance.  G*(m) is fixed by bar-invariance and
    unitriangularity alone, so any linear extension yields the same basis,
    which a property test exercises.  The correction loop and
    expand_in_dcb share one elimination, an upward sweep along that key.

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
        forward = b_form(rest, single) + 1
        backward = b_form(single, rest) - 1
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
        """The basis vector G*(m), expanded over the E* basis."""
        hit = self._memo.get(m)
        if hit is not None:
            return hit
        coeffs = self.aux_vector(m)
        # Every G*(n) the sweep subtracts lies above m, so the sweep never
        # reaches m: its coefficient is set aside and put back unchanged.
        diagonal = coeffs.pop(m, None)
        self._sweep(coeffs, lambda acc: finish(symmetric_part(acc)))
        if diagonal is not None:
            coeffs[m] = diagonal
        x = AlgebraElement({n: finish(c) for n, c in coeffs.items()})
        # One check per finished vector, which also checks the coefficient
        # of m in aux_vector(m).
        check_unitriangular(m, x, self._key)
        self._memo[m] = x
        return x

    def _sweep(self, coeffs: dict[Multisegment, dict[int, int]],
               part: Callable[[dict[int, int]], LaurentPoly]
               ) -> dict[Multisegment, LaurentPoly]:
        """Walk the labels of coeffs upward along extension_key, subtracting
        t G*(n) at each label n, with t = part(coefficient at n).  coeffs
        holds raw coefficients, which the sweep updates in place, leaving
        the raw leftovers (zeros kept) to the caller.  G*(n) adds only
        labels above n, so a heap of pending labels meets each label once,
        after all labels below it.  The key ends with the sorted segment
        list, so no two labels share a key, and each label is pushed once:
        the heap never compares labels.  Returns the nonzero t's, in walk
        order."""
        key = self._key
        push, pop = heapq.heappush, heapq.heappop
        heap = [(key(n), n) for n in coeffs]
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
                    push(heap, (key(p), p))
                add_product(acc, t, c, sign=-1)
        return steps

    def _expand(self, x: AlgebraElement) -> dict[Multisegment, LaurentPoly]:
        """Coefficients of homogeneous x over the basis: one sweep of a raw
        copy of x, which strips the whole coefficient at each label."""
        return self._sweep({q: raw(c) for q, c in x.unordered_items()},
                           finish)


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

    def to_json_obj(self) -> dict:
        # Each label is rendered once.  G*(m) is homogeneous, so every
        # label of an expansion is one of the class's labels.
        names = {m: str(m) for m in self.labels}
        return {
            "weight": str(self.weight),
            "basis": [
                {
                    "label": names[m],
                    "expansion": [
                        {"label": names[n],
                         "coef": [list(p) for p in c.items()]}
                        for n, c in self.expansions[m].items()
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

    One upward sweep of the cache strips the whole coefficient at each
    label; unitriangularity leaves nothing behind, and the stripped
    coefficients are exactly the basis coefficients.
    """
    if not x.is_homogeneous():
        raise ValueError("can only expand homogeneous elements")
    return cache._expand(x)


def structure_constants(m: Multisegment, n: Multisegment, cache: BasisCache
                        ) -> dict[Multisegment, LaurentPoly]:
    """Expansion of G*(m) G*(n) over the corrected basis.

    A product of two basis vectors is homogeneous by construction, so the
    sweep runs without ``expand_in_dcb``'s homogeneity check.
    """
    return cache._expand(cache.dual_canonical(m) * cache.dual_canonical(n))


def membership_up_to_power(x: AlgebraElement, cache: BasisCache
                           ) -> tuple[int, Multisegment] | None:
    """(k, q) such that v^k x = G*(q), or None if no such pair exists."""
    return _single_basis_vector(expand_in_dcb(x, cache))


def _single_basis_vector(expansion: dict[Multisegment, LaurentPoly]
                         ) -> tuple[int, Multisegment] | None:
    """(k, q) such that v^k times the expanded element is G*(q), or None.

    Exists exactly when the expansion has a single entry whose coefficient
    is a bare power of v.
    """
    if len(expansion) != 1:
        return None
    (q, c), = expansion.items()
    e = c.single_power()
    if e is None:
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
