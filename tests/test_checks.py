"""Tests for the verification suites at small, fast bounds."""

import collections
import gc
import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given

from dcbasis.algebra import AlgebraElement, dual_pbw
from dcbasis import checks
from dcbasis.canonical import (
    BasisCache,
    DcbTable,
    dcb_table,
    expand_in_dcb,
    kl_matrix,
    structure_constants,
)
from dcbasis.checks import (
    SUITES,
    SuiteReport,
    _degree_pairs,
    _product_row,
    check_eqrei,
    check_frank,
    check_hooks,
    check_minors,
    check_oracle,
    check_positivity,
    check_triangular,
    partitions_up_to,
    window_multisegments,
    window_weights,
)
from dcbasis.criteria import Partition, _difference_size, evaluation_set
from dcbasis.laurent import ONE, ZERO, ExactDivisionError, LaurentPoly
from dcbasis.multisegment import (
    Multisegment,
    Segment,
    Weight,
    b_form,
    cartan_pairing,
    dominates,
    enumerate_by_weight,
    parse_multisegment,
)

from test_criteria import _old_difference, cofinite_sets


def sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_report_summaries():
    good = SuiteReport("demo", 3)
    assert good.ok
    assert good.summary() == "PASS demo: 3 case(s)"
    bad = SuiteReport("demo", 3, ["broken"])
    assert not bad.ok
    assert bad.summary() == "FAIL demo: 3 case(s), 1 failure(s)"


def test_window_multisegments():
    window = window_multisegments(2, 0, 1)
    assert set(window) == {
        parse_multisegment(t)
        for t in ("[0]", "2[0]", "[0]+[1]", "[0,1]", "[1]", "2[1]")}
    assert len(window) == 6
    assert window_multisegments(2) == window
    assert all(m.degree() <= 3 for m in window_multisegments(3, 0, 2))


def _old_window_multisegments(max_degree, lo=0, hi=None):
    """The recursive generator that window_multisegments replaced: a
    preorder over nondecreasing choices from the window's segments, listed
    by (start, end)."""
    if hi is None:
        hi = lo + max_degree - 1
    segs = [Segment(i, j) for i in range(lo, hi + 1) for j in range(i, hi + 1)]
    out, chosen = [], []

    def rec(idx, budget):
        if chosen:
            out.append(Multisegment(chosen))
        for k in range(idx, len(segs)):
            if segs[k].length <= budget:
                chosen.append(segs[k])
                rec(k, budget - segs[k].length)
                chosen.pop()

    rec(0, max_degree)
    return out


@pytest.mark.parametrize("window, count", [
    ((2, 0, 1), 6), ((2,), 6), ((3, 0, 2), 28), ((4, 0, 5), 395),
    ((4, 0, 3), 131), ((5, 0, 5), 1141), ((6,), 3028), ((3, -2, 4), 172),
])
def test_window_multisegments_match_the_recursive_generator(window, count):
    old = _old_window_multisegments(*window)
    assert window_multisegments(*window) == old
    assert len(old) == count


def test_window_weights():
    weights = window_weights(2, 0, 1)
    assert set(weights) == {
        Weight({0: 1}), Weight({0: 2}), Weight({1: 1}), Weight({1: 2}),
        Weight({0: 1, 1: 1})}


def test_partitions_up_to():
    assert set(partitions_up_to(3)) == {
        Partition([1]), Partition([2]), Partition([1, 1]),
        Partition([3]), Partition([2, 1]), Partition([1, 1, 1])}
    assert len(partitions_up_to(6)) == 29


def test_suite_registry():
    assert set(SUITES) == {"eqrei", "positivity", "triangular", "oracle",
                           "minors", "frank", "hooks"}
    assert SUITES["hooks"] is check_hooks


def test_eqrei_suite():
    report = check_eqrei(2)
    assert report.name == "eqrei"
    assert report.cases == 3
    assert report.ok, report.failures


def test_each_case_of_a_suite_runs_on_its_own():
    """check_eqrei opens no run of its own: each structure constant it asks
    for is an outermost run of its cache, which builds no product
    E*([s]) E*(p) twice and drops its memo on return.  805 products in
    all, against 608 when one run spanned the whole suite."""
    runs, closed = [], []

    class Recording(BasisCache):
        def _run(self, step, *args):
            outer = self._products is None
            if outer:
                runs.append([])
            try:
                return super()._run(step, *args)
            finally:
                if outer:
                    closed.append(self._products is None)

        def _product(self, m, s, p, k):
            runs[-1].append((s, self._labels[p].segments))
            return super()._product(m, s, p, k)

    report = check_eqrei(5, Recording())
    assert (report.cases, report.ok) == (2477, True)
    assert sum(map(len, runs)) == 805
    assert all(len(run) == len(set(run)) for run in runs)
    assert len(closed) == len(runs) and all(closed)


def test_a_suite_keeps_no_product_across_its_cases():
    """The traced peak of check_eqrei(5) is 0.79 MiB, 0.99 MiB when the
    products of every case lived until the suite returned."""
    gc.collect()
    tracemalloc.start()
    try:
        check_eqrei(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.875 * 2**20


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


def _old_eqrei_case(m, n, forward, backward):
    """Reference body of check_eqrei for one pair, from the two expansions:
    exchange symmetry, then U(m, n) itself divided out and checked for
    coefficient 1 on m + n, bar-symmetry and the cone."""
    failures = []
    pairing = cartan_pairing(m.weight(), n.weight())
    twist = LaurentPoly.v_power(-pairing)
    for p in set(forward) | set(backward):
        lhs = backward.get(p, ZERO)
        rhs = twist * forward.get(p, ZERO).bar()
        if lhs != rhs:
            failures.append(
                f"exchange symmetry fails for {m} | {n} at {p}: "
                f"{lhs} != {rhs}")
    b_mn = b_form(m, n)
    try:
        aux = _auxiliary(forward, backward, b_mn + 1, pairing - b_mn - 1)
    except ExactDivisionError:
        return failures + [
            f"auxiliary combination of {m} | {n} is not divisible"]
    total = m + n
    if aux.get(total) != ONE:
        failures.append(
            f"auxiliary coefficient on {total} is {aux.get(total)}, "
            f"expected 1 (factors {m} | {n})")
    for p, c in aux.items():
        if not c.is_bar_symmetric():
            failures.append(
                f"auxiliary coefficient {c} on {p} is not bar-symmetric "
                f"(factors {m} | {n})")
        if not dominates(total, p):
            failures.append(
                f"auxiliary support {p} escapes the cone over {total}")
    return failures


def _old_eqrei_failures(max_degree, cache):
    """The reference failures of each failing pair, in walk order, on the
    structure constants that check_eqrei reads."""
    cases = {}
    for m, n in _degree_pairs(max_degree):
        failures = _old_eqrei_case(
            m, n, checks.structure_constants(m, n, cache),
            checks.structure_constants(n, m, cache))
        if failures:
            cases[m, n] = failures
    return cases


def _old_inverse_case(m, row):
    """Reference checks that check_triangular made on the inverse's row of
    m by itself: unit diagonal and support inside the cone."""
    failures = []
    if row.get(m) != ONE:
        failures.append(f"inverse diagonal of {m} is not 1")
    for p in row:
        if not dominates(m, p):
            failures.append(f"inverse row of {m} meets {p} outside the cone")
    return failures


def _failing_cases(suite, generator, cases, *args):
    """The cases on which suite(*args) fails when checks.<generator>
    yields that case alone."""
    failing = []
    with pytest.MonkeyPatch.context() as patch:
        for case in cases:
            patch.setattr(checks, generator, lambda *_, case=case: [case])
            if not suite(*args).ok:
                failing.append(case)
    return failing


def _old_auxiliary(m, n, cache):
    """Reference expansion of U(m, n): the combination of the two products
    over E*, divided coefficient by coefficient, then expanded."""
    gm, gn = cache.dual_canonical(m), cache.dual_canonical(n)
    num = ((gm * gn).scaled(LaurentPoly.v_power(b_form(m, n) + 1))
           - (gn * gm).scaled(LaurentPoly.v_power(b_form(n, m) - 1)))
    return expand_in_dcb(AlgebraElement(
        {q: c.divide_by_v_minus_vinv() for q, c in num.unordered_items()}),
        cache)


def test_auxiliary_matches_the_element_level_combination():
    """The reference U(m, n) matches the element-level one, and on a
    correct basis the reference eqrei body passes every pair, as
    check_eqrei does (test_each_case_of_a_suite_runs_on_its_own)."""
    cache = BasisCache()
    pairs = 0
    for m, n in _degree_pairs(5):
        forward = structure_constants(m, n, cache)
        backward = structure_constants(n, m, cache)
        new = _auxiliary(forward, backward, b_form(m, n) + 1,
                         b_form(n, m) - 1)
        old = _old_auxiliary(m, n, cache)
        assert list(new.items()) == list(old.items()), (m, n)
        assert _old_eqrei_case(m, n, forward, backward) == [], (m, n)
        pairs += 1
    assert pairs == 2477


@pytest.mark.parametrize("max_degree, pairs, digest", [
    (5, 2477,
     "8fd3c8322c45ea2b008c865d6556ec7b47e748c55e5c187f0b70f6de0e35c53a"),
    (6, 20715,
     "d4a62eedd9daf1bb3bbfb64178a7122ba3f50d9e8d0a7385944c04e00393a012"),
])
def test_degree_pairs_pinned(max_degree, pairs, digest):
    # U(m, n) and U(n, m) are different identities, so the orientation of
    # each pair is pinned along with the walk order.
    walk = [f"{m} | {n}" for m, n in _degree_pairs(max_degree)]
    assert len(walk) == pairs
    assert sha256(walk) == digest


SKEWED = parse_multisegment("[0]+[1]")


class SkewedCache(BasisCache):
    """A broken basis: G*([0]+[1]) gains 2v E*([0,1]).  It stays
    unitriangular but is no longer bar-invariant."""

    def _skew(self):
        """The packed addend and how much it grows the norms: rows pack at
        base 0, so 2v is 2 << k."""
        return 2 << self._k, 2

    def _row(self, i):
        row = super()._row(i)
        if row and self._labels[i] == SKEWED:
            top, total, *terms = row
            at = terms[::2].index(self._id(parse_multisegment("[0,1]")))
            addend, growth = self._skew()
            terms[2 * at + 1] += addend
            row = (top + growth, total + growth, *terms)
        return row


class ConstantSkewedCache(SkewedCache):
    """G*([0]+[1]) gains 1 E*([0,1]), so -v there becomes -v + 1, which
    is not in vZ[v]."""

    def _skew(self):
        return 1, 1


def test_suites_report_a_broken_basis():
    eqrei = check_eqrei(4, SkewedCache())
    assert (eqrei.cases, len(eqrei.failures)) == (289, 75)
    assert eqrei.failures[0] == (
        "exchange symmetry fails for [0] | [0]+[1] at [0]+[0,1]: "
        "2 != 2*v^-2")
    assert sha256(eqrei.failures) == (
        "f861c351eb42467bfcc9c06e954ef66d4f529fc5deded448d33f7a744088efec")
    positivity = check_positivity(4, SkewedCache())
    assert len(positivity.failures) == 51
    assert sha256(positivity.failures) == (
        "0b3d80b92d21fbc68d2b0e9efe8c7e193e55a1fbdf950c8f7ca5fbaedfb64a59")


def test_eqrei_fails_every_pair_the_reference_body_fails():
    """On the skewed basis the reference body, which divides out U(m, n),
    fails 48 pairs with 133 messages (check_eqrei's old output), and
    check_eqrei run on each pair alone fails the same 48."""
    old = _old_eqrei_failures(4, SkewedCache())
    messages = [f for failures in old.values() for f in failures]
    assert (len(old), len(messages)) == (48, 133)
    assert sha256(messages) == (
        "867e55c7e9db3bcdedcaba31c4b2bc63ab4f4badf7f35921c0ebbb9a9160f744")
    new = _failing_cases(check_eqrei, "_degree_pairs", _degree_pairs(4), 4,
                         SkewedCache())
    assert new == list(old)


def test_eqrei_fails_every_pair_whose_auxiliary_the_reference_rejects(
        monkeypatch):
    """Structure constants tampered in both orders at once, so exchange
    symmetry still holds: a pair of single segments gets its leading
    coefficient doubled, and a pair of three segments gets v^-b(m, n) on
    a label outside the cone over m + n.  Then U(m, n) has coefficient 2
    on m + n, or 1 outside the cone.  check_eqrei no longer divides out
    U(m, n), but run on each pair alone it fails exactly the pairs that
    the reference body fails."""
    def tampered(m, n, cache):
        expansion = structure_constants(m, n, cache)
        total = m + n
        if len(total) == 2:
            expansion[total] = expansion[total] + expansion[total]
        elif len(total) == 3:
            for p in enumerate_by_weight(total.weight()):
                if not dominates(total, p):
                    expansion[p] = LaurentPoly.v_power(-b_form(m, n))
                    break
        return expansion

    monkeypatch.setattr(checks, "structure_constants", tampered)
    cache = BasisCache()
    old = _old_eqrei_failures(4, cache)
    kinds = collections.Counter(" ".join(f.split()[:2])
                                for failures in old.values()
                                for f in failures)
    assert kinds == {"auxiliary coefficient": 36, "auxiliary support": 78}
    assert len(old) == 114
    new = _failing_cases(check_eqrei, "_degree_pairs", _degree_pairs(4), 4,
                         cache)
    assert new == list(old)


def test_positivity_reports_a_wrong_leading_coefficient(monkeypatch):
    """Structure constants whose coefficient on m + n is multiplied by v^2
    for pairs of single segments: positive and in the cone, but led by
    v^(2-b(m, n))."""
    def tampered(m, n, cache):
        expansion = structure_constants(m, n, cache)
        if len(m) == len(n) == 1:
            expansion[m + n] *= LaurentPoly.v_power(2)
        return expansion

    monkeypatch.setattr(checks, "structure_constants", tampered)
    report = check_positivity(3)
    assert len(report.failures) == 12
    assert all(f.startswith("leading coefficient ") for f in report.failures)
    assert ("leading coefficient of [0] | [0] is v, expected v^-1"
            in report.failures)


def test_positivity_suite():
    report = check_positivity(2)
    assert report.cases == 3
    assert report.ok, report.failures


def test_triangular_suite():
    report = check_triangular(3)
    assert report.cases > 0
    assert report.ok, report.failures


def test_triangular_reports_an_off_diagonal_coefficient_outside_vzv():
    report = check_triangular(3, ConstantSkewedCache())
    assert report.failures == [
        "off-diagonal coefficient -v + 1 of [0]+[1] on [0,1] "
        "is not in vZ[v]"]


def _dense_row(row, table, labels):
    """Row times table entry by entry over every label of the class."""
    return {p: sum((c * table.coefficient(q, p) for q, c in row.items()),
                   ZERO)
            for p in labels}


def test_sparse_identity_check_matches_the_dense_product():
    """Every row of every class of degree <= 5, then a tampered entry."""
    cache = BasisCache()
    rows = 0
    for w in window_weights(5, 0, 4):
        labels = enumerate_by_weight(w)
        table, inverse = dcb_table(w, cache), kl_matrix(w, cache)
        for m in labels:
            dense = _dense_row(inverse[m], table, labels)
            assert _product_row(inverse[m], table) == \
                {p: e for p, e in dense.items() if e} == {m: ONE}
            rows += 1
    assert rows == 623
    w = parse_multisegment("[0]+[1]+[0,1]").weight()
    labels = enumerate_by_weight(w)
    table, inverse = dcb_table(w, cache), kl_matrix(w, cache)
    top = parse_multisegment("[0]+[1]+[0,1]")
    expansions = dict(table.expansions)
    expansions[top] = expansions[top] + dual_pbw(
        parse_multisegment("[0,1]+[0,1]")).scaled(LaurentPoly({1: 1}))
    tampered = DcbTable(w, table.labels, expansions)
    broken = 0
    for m in labels:
        dense = _dense_row(inverse[m], tampered, labels)
        sparse = _product_row(inverse[m], tampered)
        assert sparse == {p: e for p, e in dense.items() if e}
        broken += sparse != {m: ONE}
    assert broken > 0


def test_triangular_suite_reports_a_tampered_table(monkeypatch):
    top = parse_multisegment("[0]+[1]")
    extra = dual_pbw(parse_multisegment("[0,1]")).scaled(LaurentPoly({1: 1}))

    def tampered(w, cache):
        table = dcb_table(w, cache)
        if top not in table.expansions:
            return table
        expansions = dict(table.expansions)
        expansions[top] = expansions[top] + extra
        return DcbTable(w, table.labels, expansions)

    monkeypatch.setattr(checks, "dcb_table", tampered)
    report = check_triangular(2)
    assert report.failures == [
        "matrix product at ([0]+[1], [0,1]) in class "
        f"{top.weight()} is v, expected 0"]


def test_triangular_fails_every_class_the_inverse_checks_fail(monkeypatch):
    """In each class with a label whose cone misses another label, that
    label's inverse row gets diagonal 2 and an entry outside the cone.
    check_triangular no longer checks the inverse's rows by themselves, but
    run on each class alone it fails every class the reference checks of
    those rows fail, and no other."""
    def tampered(w, cache):
        inverse = kl_matrix(w, cache)
        for m, row in inverse.items():
            outside = [q for q in inverse if not dominates(m, q)]
            if outside:
                row[m] = LaurentPoly({0: 2})
                row[outside[0]] = LaurentPoly({1: 1})
                break
        return inverse

    monkeypatch.setattr(checks, "kl_matrix", tampered)
    cache = BasisCache()
    weights = window_weights(4, 0, 3)
    old = [w for w in weights
           if any(_old_inverse_case(m, row)
                  for m, row in tampered(w, cache).items())]
    new = _failing_cases(check_triangular, "window_weights", weights, 4,
                         cache)
    assert new == old
    assert 0 < len(old) < len(weights)


def test_enumeration_cache_keeps_one_class():
    enumerate_by_weight.cache_clear()
    assert check_triangular(4).ok
    info = enumerate_by_weight.cache_info()
    assert (info.hits, info.misses, info.currsize) == (138, 69, 1)


def test_oracle_suite():
    report = check_oracle(1, (-2, 2))
    assert report.cases == 5
    assert report.ok, report.failures


@pytest.mark.parametrize("name", ["membership_up_to_power",
                                  "product_membership"])
def test_the_oracle_suite_reports_a_flipped_membership_test(monkeypatch,
                                                            name):
    """check_oracle decides membership twice; flipping either answer is
    reported at every case, and the case count does not move."""
    membership = getattr(checks, name)

    def flipped(x, cache):
        return (None if membership(x, cache) is not None
                else (0, Multisegment()))

    monkeypatch.setattr(checks, name, flipped)
    report = check_oracle()
    assert report.cases == 81
    assert sum(f.startswith("membership of the product gives ")
               for f in report.failures) == 81


def test_the_oracle_suite_reports_a_flipped_separation(monkeypatch):
    irreducible_pair, calls = checks.irreducible_pair, itertools.count()

    def flipped(*args):
        return irreducible_pair(*args) != (next(calls) == 0)

    monkeypatch.setattr(checks, "irreducible_pair", flipped)
    report = check_oracle()
    assert ("separation says False but membership says True for "
            "2 @ 0 vs 2 @ -4") in report.failures


def test_difference_size_counts_the_difference_exhaustive():
    """All 97 partitions of size 0-9, squared, at every shift in -8..8, in
    both orders."""
    parts = [Partition()] + partitions_up_to(9)
    for alpha in parts:
        i_set = evaluation_set(alpha, 0)
        for beta in parts:
            for b in range(-8, 9):
                j_set = evaluation_set(beta, b)
                assert _difference_size(i_set, j_set) == \
                    len(_old_difference(i_set, j_set))
                assert _difference_size(j_set, i_set) == \
                    len(_old_difference(j_set, i_set))


@given(cofinite_sets, cofinite_sets)
def test_difference_size_counts_any_difference(a, b):
    assert _difference_size(a, b) == len(_old_difference(a, b))


def test_oracle_at_a_far_shift_allocates_little():
    """Neither the verdicts nor the cardinality law list the O(|b|)-long
    differences."""
    tracemalloc.start()
    try:
        report = check_oracle(max_part_sum=1, shift_range=(10**5, 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cases == 1 and report.ok, report.failures
    assert peak < 256 * 1024, peak


def test_minors_suite():
    report = check_minors((1, 3))
    assert report.cases == 19
    assert report.ok, report.failures
    capped = check_minors((1, 3), max_cols=1)
    assert capped.cases == 9
    assert capped.ok, capped.failures


def test_frank_suite():
    report = check_frank(samples=5, max_factors=2, max_entry=4, seed=1)
    assert report.cases == 21
    assert report.ok, report.failures


def _must_precede(x, y):
    """x is forced before y: both differences exist and y's sits lower."""
    d_yx, d_xy = y - x, x - y
    return bool(d_yx) and bool(d_xy) and max(d_yx) < min(d_xy)


def _strong_order(sets):
    """Reference order for check_frank: a topological sort of the strict
    constraints (nested pairs are unconstrained), or None if none exists."""
    remaining = list(sets)
    ordered = []
    while remaining:
        for i, x in enumerate(remaining):
            if not any(_must_precede(y, x)
                       for j, y in enumerate(remaining) if j != i):
                ordered.append(remaining.pop(i))
                break
        else:
            return None
    return ordered


def test_frank_sort_key_respects_every_strict_constraint():
    """All 4,960 families of 2 or 3 distinct nonempty subsets of 1..5."""
    subsets = [frozenset(c) for r in range(1, 6)
               for c in itertools.combinations(range(1, 6), r)]
    families = 0
    for size in (2, 3):
        for family in itertools.combinations(subsets, size):
            families += 1
            assert _strong_order(family) is not None, family
            ordered = sorted(family, key=lambda s: sorted(s, reverse=True),
                             reverse=True)
            for x, y in itertools.combinations(ordered, 2):
                assert not _must_precede(y, x), family
    assert families == 4_960


def test_hooks_suite():
    report = check_hooks(max_part_sum=3, shift_range=(-4, 4))
    assert report.cases == 54
    assert report.ok, report.failures


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
