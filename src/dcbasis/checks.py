"""Verification suites for the library's structural identities.

Each suite checks one family of identities tying together the corrected
dual basis, the auxiliary vectors, the quantum minors, and the
combinatorial irreducibility criteria.  Most suites are exhaustive within
explicit size bounds; the frank suite draws random families from a seeded
generator.  Every suite returns a SuiteReport whose ``failures`` list
holds one message per counterexample, so an empty list means the property
held on every generated case.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .algebra import minor_multisegment, quantum_minor
from .canonical import (
    BasisCache,
    dcb_table,
    expand_in_dcb,
    kl_matrix,
    membership_up_to_power,
    structure_constants,
)
from .criteria import (
    CoFiniteSet,
    Partition,
    evaluation_multisegment,
    evaluation_set,
    hook_irreducible,
    irreducible_pair,
    main1_pattern,
    strongly_separated,
)
from .laurent import ONE, ZERO, ExactDivisionError, LaurentPoly
from .multisegment import (
    Multisegment,
    Segment,
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
    """All nonempty multisegments within [lo, hi] of degree <= max_degree."""
    if hi is None:
        hi = lo + max_degree - 1
    segs = [Segment(i, j) for i in range(lo, hi + 1) for j in range(i, hi + 1)]
    out: list[Multisegment] = []
    chosen: list[Segment] = []

    def rec(idx: int, budget: int) -> None:
        if chosen:
            out.append(Multisegment(chosen))
        for k in range(idx, len(segs)):
            if segs[k].length <= budget:
                chosen.append(segs[k])
                rec(k, budget - segs[k].length)
                chosen.pop()

    rec(0, max_degree)
    return out


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
    msegs = [(m, m.degree())
             for m in window_multisegments(max_degree - 1, 0, max_degree - 1)]
    for i, (m, dm) in enumerate(msegs):
        for n, dn in msegs[i:]:
            if dm + dn <= max_degree:
                yield m, n


# -- identity suites ---------------------------------------------------------


def _auxiliary(forward: dict, backward: dict, up: int, down: int) -> dict:
    """The expansion of U(m, n) in extension_key order, read off the
    expansions of G*(m) G*(n) and G*(n) G*(m): (v^up forward - v^down
    backward) / (v - v^-1), or ExactDivisionError if it does not divide.
    U(m, n) takes up = b(m, n) + 1 and down = b(n, m) - 1."""
    v_up = LaurentPoly.v_power(up)
    v_down = LaurentPoly.v_power(down)
    return {p: c for p in sorted(forward.keys() | backward.keys(),
                                 key=Multisegment.extension_key)
            if (c := (v_up * forward.get(p, ZERO)
                      - v_down * backward.get(p, ZERO)
                      ).divide_by_v_minus_vinv())}


def check_eqrei(max_degree: int = 4,
                cache: BasisCache | None = None) -> SuiteReport:
    """Exchange symmetry of structure constants and bar-symmetry of the
    auxiliary-vector coefficients.

    For every pair of basis labels m, n of bounded total degree this
    verifies, writing the products of dual canonical vectors over the dual
    canonical basis, that swapping the factors bars every coefficient and
    rescales it by v^-(wt m, wt n), and that the auxiliary combination
    U(m, n) has bar-symmetric coefficients, coefficient 1 on m + n, and
    support dominated by m + n.  U(m, n) is read off the two expansions:
    expansion is linear and E* -> G* is unitriangular over Z[v, v^-1], so
    all G* coefficients divide by v - v^-1 just when all E* ones do.
    """
    cache = cache or BasisCache()
    report = SuiteReport("eqrei", 0)
    for m, n in _degree_pairs(max_degree):
        report.cases += 1
        forward = structure_constants(m, n, cache)
        backward = structure_constants(n, m, cache)
        pairing = cartan_pairing(m.weight(), n.weight())
        twist = LaurentPoly.v_power(-pairing)
        for p in set(forward) | set(backward):
            lhs = backward.get(p, ZERO)
            rhs = twist * forward.get(p, ZERO).bar()
            if lhs != rhs:
                report.failures.append(
                    f"exchange symmetry fails for {m} | {n} at {p}: "
                    f"{lhs} != {rhs}")
        # b(m, n) + b(n, m) is the pairing of the weights.
        b_mn = b_form(m, n)
        try:
            aux = _auxiliary(forward, backward, b_mn + 1, pairing - b_mn - 1)
        except ExactDivisionError:
            report.failures.append(
                f"auxiliary combination of {m} | {n} is not divisible")
            continue
        total = m + n
        if aux.get(total) != ONE:
            report.failures.append(
                f"auxiliary coefficient on {total} is {aux.get(total)}, "
                f"expected 1 (factors {m} | {n})")
        for p, c in aux.items():
            if not c.is_bar_symmetric():
                report.failures.append(
                    f"auxiliary coefficient {c} on {p} is not bar-symmetric "
                    f"(factors {m} | {n})")
            if not dominates(total, p):
                report.failures.append(
                    f"auxiliary support {p} escapes the cone over {total}")
    return report


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
        total = m + n
        for p, c in product.items():
            if not c.has_nonnegative_coefficients():
                report.failures.append(
                    f"negative coefficient {c} on {p} in {m} | {n}")
            if not dominates(total, p):
                report.failures.append(
                    f"support {p} of {m} | {n} escapes the cone over {total}")
        lead = product.get(total)
        if lead != LaurentPoly.v_power(-b_form(m, n)):
            report.failures.append(
                f"leading coefficient of {m} | {n} is {lead}, "
                f"expected v^{-b_form(m, n)}")
    return report


def check_triangular(max_degree: int = 5,
                     cache: BasisCache | None = None) -> SuiteReport:
    """Unitriangularity of each weight class and inversion against it.

    For every weight class within the bound, the corrected basis table
    must be unitriangular over the standard basis with off-diagonal
    coefficients in vZ[v] and support inside the dominance cone, and the
    change of basis in the opposite direction must be its exact inverse.
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
            row = inverse[m]
            if row.get(m) != ONE:
                report.failures.append(f"inverse diagonal of {m} is not 1")
            for p in row:
                if not dominates(m, p):
                    report.failures.append(
                        f"inverse row of {m} meets {p} outside the cone")
            for p in labels:
                entry = sum(
                    (c * table.coefficient(q, p) for q, c in row.items()),
                    ZERO)
                expected = ONE if p == m else ZERO
                if entry != expected:
                    report.failures.append(
                        f"matrix product at ({m}, {p}) in class {w} "
                        f"is {entry}, expected {expected}")
    return report


def check_oracle(max_part_sum: int = 2,
                 shift_range: tuple[int, int] = (-4, 4),
                 cache: BasisCache | None = None) -> SuiteReport:
    """Equivalence of the combinatorial and algebraic irreducibility tests.

    For every pair of partitions within the size bound and every relative
    shift in the range, the separation criterion, the pattern criterion,
    and the algebraic membership test (the product of the two dual
    canonical vectors is a basis vector up to a power of v) must agree;
    when they declare irreducibility the membership pair must be exactly
    (b(m, n), m + n).  The cardinality law tying the two set differences
    to the shift is checked alongside.
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
                d_ij = i_set.difference(j_set)
                d_ji = j_set.difference(i_set)
                if len(d_ij) != len(d_ji) - b:
                    report.failures.append(
                        f"cardinality law fails for {alpha} @ 0 vs "
                        f"{beta} @ {b}: {len(d_ij)} != {len(d_ji)} - {b}")
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


def _must_precede(x: frozenset[int], y: frozenset[int]) -> bool:
    """x is forced before y: both differences exist and y's sits lower."""
    d_yx, d_xy = y - x, x - y
    return bool(d_yx) and bool(d_xy) and max(d_yx) < min(d_xy)


def _strong_order(sets: Sequence[frozenset[int]]
                  ) -> list[frozenset[int]] | None:
    """Order a pairwise strongly separated family so later sets sit lower.

    Nested pairs are unconstrained (either order is admissible), so this
    is a topological sort of the strict constraints; None signals that no
    consistent order exists, which would refute the ordering hypothesis.
    """
    remaining = list(sets)
    ordered: list[frozenset[int]] = []
    while remaining:
        for i, x in enumerate(remaining):
            if not any(_must_precede(y, x)
                       for j, y in enumerate(remaining) if j != i):
                ordered.append(remaining.pop(i))
                break
        else:
            return None
    return ordered


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
        cofinite = [CoFiniteSet(0, sorted(s)) for s in sets]
        if all(strongly_separated(a, b)
               for a, b in itertools.combinations(cofinite, 2)):
            ordered = _strong_order(sets)
            if ordered is None:
                report.failures.append(
                    f"family {sets}: no consistent strong ordering")
                return
            ordered_labels = [_column_label(s) for s in ordered]
            total = sum(ordered_labels, Multisegment())
            if not frank_condition(ordered):
                report.failures.append(
                    f"strongly separated family {ordered} is not frank")
            elif n_pi(ordered) != total:
                report.failures.append(
                    f"tableau label of {ordered} differs from the "
                    f"label sum {total}")
            ordered_product = functools.reduce(
                operator.mul, map(cache.dual_canonical, ordered_labels))
            b_pi = sum(b_form(a, b) for a, b
                       in itertools.combinations(ordered_labels, 2))
            member = membership_up_to_power(ordered_product, cache)
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
