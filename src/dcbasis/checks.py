"""Verification suites for the library's structural identities.

Each suite checks one family of identities tying together the corrected
dual basis, the auxiliary vectors, the quantum minors, and the
combinatorial irreducibility criteria.  Most suites are exhaustive within
explicit size bounds; the frank suite draws random families from a seeded
generator.  Every suite returns a SuiteReport whose ``failures`` list
holds one message per counterexample, so an empty list means the property
held on every generated case.  A suite checks nothing that its other
checks already imply; where it relies on such a proof, its docstring
gives it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Iterable

from .algebra import minor_multisegment, quantum_minor
from .canonical import (
    BasisCache,
    dcb_table,
    expand_in_dcb,
    kl_matrix,
    membership_up_to_power,
    product_membership,
    structure_constants,
)
from .criteria import (
    CoFiniteSet,
    Partition,
    _difference_size,
    evaluation_multisegment,
    evaluation_set,
    hook_irreducible,
    irreducible_pair,
    main1_pattern,
    strongly_separated,
)
from .laurent import ONE, ZERO, LaurentPoly
from .multisegment import (
    Multisegment,
    Weight,
    b_form,
    cartan_pairing,
    dominates,
    enumerate_by_weight,
)
from .tableaux import frank_condition, n_pi


@dataclass
class SuiteReport:
    """Outcome of one verification suite."""

    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        tail = "" if self.ok else f", {len(self.failures)} failure(s)"
        return f"{verdict} {self.name}: {self.cases} case(s){tail}"


# -- case generators ---------------------------------------------------------


def window_multisegments(max_degree: int, lo: int = 0,
                         hi: int | None = None) -> list[Multisegment]:
    """All nonempty multisegments within [lo, hi] of degree <= max_degree,
    ordered lexicographically by their segments sorted by (start, end)."""
    return sorted((m for w in window_weights(max_degree, lo, hi)
                   for m in enumerate_by_weight(w)),
                  key=lambda m: sorted(m.segments))


def window_weights(max_degree: int, lo: int = 0,
                   hi: int | None = None) -> list[Weight]:
    """All nonzero weights supported on [lo, hi] of total <= max_degree."""
    if hi is None:
        hi = lo + max_degree - 1
    positions = list(range(lo, hi + 1))
    out: list[Weight] = []

    def rec(idx: int, budget: int, acc: dict[int, int]) -> None:
        if idx == len(positions):
            if acc:
                out.append(Weight(acc))
            return
        for count in range(budget + 1):
            if count:
                acc[positions[idx]] = count
            rec(idx + 1, budget - count, acc)
            acc.pop(positions[idx], None)

    rec(0, max_degree, {})
    return out


def partitions_up_to(total: int) -> list[Partition]:
    """All partitions of every size from 1 to ``total``."""
    out: list[Partition] = []
    acc: list[int] = []

    def rec(budget: int, max_part: int) -> None:
        for part in range(min(budget, max_part), 0, -1):
            acc.append(part)
            out.append(Partition(tuple(acc)))
            rec(budget - part, part)
            acc.pop()

    rec(total, total)
    return out


def _degree_pairs(max_degree: int
                  ) -> Iterable[tuple[Multisegment, Multisegment]]:
    """Unordered pairs of window multisegments with total degree bounded."""
    msegs = window_multisegments(max_degree - 1, 0, max_degree - 1)
    for i, m in enumerate(msegs):
        for n in msegs[i:]:
            if m.degree() + n.degree() <= max_degree:
                yield m, n


# -- identity suites ---------------------------------------------------------


def check_eqrei(max_degree: int = 4,
                cache: BasisCache | None = None) -> SuiteReport:
    """Exchange symmetry of structure constants, and with it the three
    properties of the auxiliary combinations U(m, n).

    For every pair of basis labels m, n of bounded total degree, writing
    F_p and B_p for the coefficients of G*(m) G*(n) and G*(n) G*(m) on
    G*(p), this verifies that B_p = v^-(wt m, wt n) bar(F_p), that
    F_(m+n) = v^-b(m, n), and that every p with F_p != 0 is dominated by
    m + n.

    These imply that U(m, n) = (v^(b(m,n)+1) G*(m) G*(n)
    - v^(b(n,m)-1) G*(n) G*(m)) / (v - v^-1) divides, has bar-symmetric
    coefficients, coefficient 1 on m + n, and support dominated by m + n.
    As b(m, n) + b(n, m) = (wt m, wt n), exchange symmetry makes the
    numerator at p equal to X - bar(X), X = v^(b(m,n)+1) F_p.  Each
    v^k - v^-k is (v - v^-1) [k], [k] = (v^k - v^-k) / (v - v^-1) being
    bar-symmetric, so U_p is the sum of x_k [k] over the terms x_k v^k
    of X.  At m + n, X = v and U_p = [1] = 1.  B has the support of F, so
    U's support lies inside F's.
    """
    cache = cache or BasisCache()
    report = SuiteReport("eqrei", 0)
    for m, n in _degree_pairs(max_degree):
        report.cases += 1
        forward = structure_constants(m, n, cache)
        backward = structure_constants(n, m, cache)
        twist = LaurentPoly.v_power(-cartan_pairing(m.weight(), n.weight()))
        for p in set(forward) | set(backward):
            lhs = backward.get(p, ZERO)
            rhs = twist * forward.get(p, ZERO).bar()
            if lhs != rhs:
                report.failures.append(
                    f"exchange symmetry fails for {m} | {n} at {p}: "
                    f"{lhs} != {rhs}")
        report.failures.extend(_cone_and_lead(m, n, forward))
    return report


def _cone_and_lead(m: Multisegment, n: Multisegment,
                   product: dict[Multisegment, LaurentPoly]
                   ) -> Iterable[str]:
    """A message for each label of G*(m) G*(n)'s expansion ``product``
    outside the cone over m + n, and one if the coefficient on m + n is
    not v^-b(m, n)."""
    total = m + n
    for p in product:
        if not dominates(total, p):
            yield f"support {p} of {m} | {n} escapes the cone over {total}"
    lead = product.get(total)
    if lead != LaurentPoly.v_power(-b_form(m, n)):
        yield (f"leading coefficient of {m} | {n} is {lead}, "
               f"expected v^{-b_form(m, n)}")


def check_positivity(max_degree: int = 4,
                     cache: BasisCache | None = None) -> SuiteReport:
    """Positivity, support, and leading term of structure constants.

    Expanding each product of two dual canonical vectors over the dual
    canonical basis, every coefficient must have non-negative integer
    coefficients, every support label must dominate the label sum, and the
    coefficient on the label sum itself must be exactly v^-b(m, n).
    """
    cache = cache or BasisCache()
    report = SuiteReport("positivity", 0)
    for m, n in _degree_pairs(max_degree):
        report.cases += 1
        product = structure_constants(m, n, cache)
        for p, c in product.items():
            if not c.has_nonnegative_coefficients():
                report.failures.append(
                    f"negative coefficient {c} on {p} in {m} | {n}")
        report.failures.extend(_cone_and_lead(m, n, product))
    return report


def check_triangular(max_degree: int = 5,
                     cache: BasisCache | None = None) -> SuiteReport:
    """Unitriangularity of each weight class and inversion against it.

    For every weight class within the bound, the corrected basis table
    must be unitriangular over the standard basis with off-diagonal
    coefficients in vZ[v] and support inside the dominance cone, and the
    change of basis in the opposite direction must be its exact inverse.
    The inverse of a matrix unitriangular in a partial order is
    unitriangular in the same order, so the inverse's own diagonal and
    cone need no check.
    """
    cache = cache or BasisCache()
    report = SuiteReport("triangular", 0)
    for w in window_weights(max_degree, 0, max_degree - 1):
        report.cases += 1
        labels = enumerate_by_weight(w)
        table = dcb_table(w, cache)
        inverse = kl_matrix(w, cache)
        for m in labels:
            expansion = table.expansion(m)
            if not expansion.coefficient(m).is_one():
                report.failures.append(f"diagonal of {m} is not 1")
            for p, c in expansion.items():
                if p != m and not c.only_positive_exponents():
                    report.failures.append(
                        f"off-diagonal coefficient {c} of {m} on {p} "
                        f"is not in vZ[v]")
                if not dominates(m, p):
                    report.failures.append(
                        f"support {p} of the vector labeled {m} escapes "
                        f"the dominance cone")
            if (product := _product_row(inverse[m], table)) != {m: ONE}:
                for p in labels:
                    entry = product.get(p, ZERO)
                    expected = ONE if p == m else ZERO
                    if entry != expected:
                        report.failures.append(
                            f"matrix product at ({m}, {p}) in class {w} "
                            f"is {entry}, expected {expected}")
    return report


def _product_row(row: dict, table) -> dict[Multisegment, LaurentPoly]:
    """The nonzero entries of row times table, over the row's support."""
    product: dict[Multisegment, LaurentPoly] = {}
    for q, c in row.items():
        for p, d in table.expansion(q).unordered_items():
            product[p] = product.get(p, ZERO) + c * d
    return {p: e for p, e in product.items() if e}


def check_oracle(max_part_sum: int = 2,
                 shift_range: tuple[int, int] = (-4, 4),
                 cache: BasisCache | None = None) -> SuiteReport:
    """Equivalence of the combinatorial and algebraic irreducibility tests.

    For every pair of partitions within the size bound and every relative
    shift in the range, the separation criterion, the pattern criterion,
    and the algebraic membership test (the product of the two dual
    canonical vectors is a basis vector up to a power of v) must agree;
    when they declare irreducibility the membership pair must be exactly
    (b(m, n), m + n).  Membership is decided twice, against the basis
    vector of the product's lowest label (membership_up_to_power) and
    from the two factors alone (product_membership), and the two answers
    must be equal.  The cardinality law tying the two set differences to
    the shift is checked alongside.
    """
    cache = cache or BasisCache()
    report = SuiteReport("oracle", 0)
    partitions = partitions_up_to(max_part_sum)
    lo, hi = shift_range
    for alpha in partitions:
        m_alpha = evaluation_multisegment(alpha, 0)
        g_alpha = cache.dual_canonical(m_alpha)
        i_set = evaluation_set(alpha, 0)
        for beta in partitions:
            for b in range(lo, hi + 1):
                report.cases += 1
                m_beta = evaluation_multisegment(beta, b)
                member = membership_up_to_power(
                    g_alpha * cache.dual_canonical(m_beta), cache)
                factored = product_membership([m_alpha, m_beta], cache)
                if factored != member:
                    report.failures.append(
                        f"membership of the product gives {member} but "
                        f"membership from the factors gives {factored} for "
                        f"{alpha} @ 0 vs {beta} @ {b}")
                combinatorial = irreducible_pair(alpha, 0, beta, b)
                if combinatorial != (member is not None):
                    report.failures.append(
                        f"separation says {combinatorial} but membership "
                        f"says {member is not None} for "
                        f"{alpha} @ 0 vs {beta} @ {b}")
                if main1_pattern(alpha, 0, beta, b) == combinatorial:
                    report.failures.append(
                        f"pattern criterion disagrees with separation for "
                        f"{alpha} @ 0 vs {beta} @ {b}")
                j_set = evaluation_set(beta, b)
                n_ij = _difference_size(i_set, j_set)
                n_ji = _difference_size(j_set, i_set)
                if n_ij != n_ji - b:
                    report.failures.append(
                        f"cardinality law fails for {alpha} @ 0 vs "
                        f"{beta} @ {b}: {n_ij} != {n_ji} - {b}")
                if member is not None:
                    expected = (b_form(m_alpha, m_beta), m_alpha + m_beta)
                    if member != expected:
                        report.failures.append(
                            f"membership pair {member} differs from "
                            f"{expected} for {alpha} @ 0 vs {beta} @ {b}")
    return report


def check_minors(index_range: tuple[int, int] = (1, 4),
                 max_cols: int | None = None,
                 cache: BasisCache | None = None) -> SuiteReport:
    """Every nonzero quantum minor is a dual canonical basis vector.

    Over all equal-length increasing row/column index tuples drawn from
    the window, the straightened minor must equal the dual canonical
    vector of its associated multisegment; when some row index exceeds
    its column index the minor must vanish.
    """
    cache = cache or BasisCache()
    report = SuiteReport("minors", 0)
    lo, hi = index_range
    indices = range(lo, hi + 1)
    width = hi - lo + 1
    limit = max_cols if max_cols is not None else width
    for k in range(1, min(limit, width) + 1):
        for rows in itertools.combinations(indices, k):
            for cols in itertools.combinations(indices, k):
                report.cases += 1
                minor = quantum_minor(rows, cols)
                if any(i > j for i, j in zip(rows, cols)):
                    if minor:
                        report.failures.append(
                            f"minor {rows} x {cols} should vanish")
                    continue
                label = minor_multisegment(rows, cols)
                if minor != cache.dual_canonical(label):
                    report.failures.append(
                        f"minor {rows} x {cols} differs from the basis "
                        f"vector labeled {label}")
    return report


def _column_label(columns: Iterable[int]) -> Multisegment:
    """Label of the flag minor with the given column set."""
    cols = sorted(columns)
    return minor_multisegment(range(1, len(cols) + 1), cols)


def check_frank(samples: int = 40, max_factors: int = 3, max_entry: int = 6,
                seed: int = 0,
                cache: BasisCache | None = None) -> SuiteReport:
    """Leading-term behavior of products of flag minors.

    Families of column sets are drawn at random (plus one pinned worked
    family and all singleton families over a small window).  Whenever the
    insertion tableau of the associated reading word has conjugate shape
    equal to the sorted column-set sizes, the product of the flag minors,
    expanded over the dual canonical basis, must carry a pure power of v
    on the tableau-derived label and coefficients in vZ[v] everywhere else
    once that power is normalized to 1.  Pairwise strongly separated
    families must satisfy the sharper identity: the product is exactly
    v^-b of the basis vector labeled by the sum of the factor labels.
    """
    cache = cache or BasisCache()
    report = SuiteReport("frank", 0)
    rng = random.Random(seed)

    def check_family(sets: list[frozenset[int]]) -> None:
        report.cases += 1
        labels = [_column_label(s) for s in sets]
        if frank_condition(sets):
            product = functools.reduce(
                operator.mul, map(cache.dual_canonical, labels))
            expansion = expand_in_dcb(product, cache)
            target = n_pi(sets)
            kappa = expansion.get(target)
            exponent = kappa.single_power() if kappa is not None else None
            if exponent is None:
                report.failures.append(
                    f"family {sets}: coefficient on {target} is "
                    f"{kappa}, not a pure power of v")
            else:
                for p, c in expansion.items():
                    if p != target and c.min_exponent() <= exponent:
                        report.failures.append(
                            f"family {sets}: coefficient {c} on {p} is not "
                            f"in vZ[v] after normalization")
        cofinite = [CoFiniteSet(0, s) for s in sets]
        if all(strongly_separated(a, b)
               for a, b in itertools.combinations(cofinite, 2)):
            # Later sets must sit lower: x goes before y when y - x lies
            # wholly below a nonempty x - y; nested pairs go either way.
            # Sorting by the descending element list, largest first, meets
            # every such constraint.  For x != y the two lists agree above
            # d, the largest element of the symmetric difference, so the
            # set that holds d sorts first; and when x must go before y, d
            # lies in x - y.
            ordered = sorted(sets, key=lambda s: sorted(s, reverse=True),
                             reverse=True)
            ordered_labels = [_column_label(s) for s in ordered]
            total = sum(ordered_labels, Multisegment())
            if not frank_condition(ordered):
                report.failures.append(
                    f"strongly separated family {ordered} is not frank")
            elif n_pi(ordered) != total:
                report.failures.append(
                    f"tableau label of {ordered} differs from the "
                    f"label sum {total}")
            b_pi = sum(b_form(a, b) for a, b
                       in itertools.combinations(ordered_labels, 2))
            member = product_membership(ordered_labels, cache)
            if member != (b_pi, total):
                report.failures.append(
                    f"strongly separated family {ordered}: membership "
                    f"{member} differs from ({b_pi}, {total})")

    check_family([frozenset({2, 3, 5}), frozenset({1, 4})])
    for r in range(1, 5):
        for subset in itertools.combinations(range(1, 5), r):
            check_family([frozenset(subset)])
    universe = list(range(1, max_entry + 1))
    for _ in range(samples):
        r = rng.randint(2, max_factors)
        family = []
        for _ in range(r):
            size = rng.randint(1, max_entry)
            family.append(frozenset(rng.sample(universe, size)))
        check_family(family)
    return report


def check_hooks(max_part_sum: int = 6,
                shift_range: tuple[int, int] = (-12, 12)) -> SuiteReport:
    """Hook-length criterion against the separation criterion.

    For every partition within the size bound and every shift in range,
    irreducibility of the self-product at that shift must hold exactly
    when the absolute shift is not a hook length of the partition.
    """
    report = SuiteReport("hooks", 0)
    lo, hi = shift_range
    for alpha in partitions_up_to(max_part_sum):
        for shift in range(lo, hi + 1):
            report.cases += 1
            if hook_irreducible(alpha, shift) != irreducible_pair(
                    alpha, 0, alpha, shift):
                report.failures.append(
                    f"hook and separation criteria disagree for "
                    f"{alpha} at shift {shift}")
    return report


SUITES = {
    "eqrei": check_eqrei,
    "positivity": check_positivity,
    "triangular": check_triangular,
    "oracle": check_oracle,
    "minors": check_minors,
    "frank": check_frank,
    "hooks": check_hooks,
}
