"""Tests for the verification suites at small, fast bounds."""

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
    _auxiliary,
    _degree_pairs,
    _difference_size,
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
from dcbasis.criteria import Partition, evaluation_set
from dcbasis.laurent import ONE, ZERO, LaurentPoly
from dcbasis.multisegment import (
    Multisegment,
    Segment,
    Weight,
    b_form,
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
    cache = BasisCache()
    pairs = 0
    for m, n in _degree_pairs(5):
        new = _auxiliary(structure_constants(m, n, cache),
                         structure_constants(n, m, cache), b_form(m, n) + 1,
                         b_form(n, m) - 1)
        old = _old_auxiliary(m, n, cache)
        assert list(new.items()) == list(old.items()), (m, n)
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

    def _row(self, i):
        row = super()._row(i)
        if row and self._labels[i] == SKEWED:
            # Rows pack at base 0, so 2v is 2 << k; the norms grow by 2.
            top, total, *terms = row
            at = terms[::2].index(self._id(parse_multisegment("[0,1]")))
            terms[2 * at + 1] += 2 << self._k
            row = (top + 2, total + 2, *terms)
        return row


def test_suites_report_a_broken_basis():
    eqrei = check_eqrei(4, SkewedCache())
    assert (eqrei.cases, len(eqrei.failures)) == (289, 133)
    assert eqrei.failures[0] == (
        "exchange symmetry fails for [0] | [0]+[1] at [0]+[0,1]: "
        "2 != 2*v^-2")
    assert sha256(eqrei.failures) == (
        "867e55c7e9db3bcdedcaba31c4b2bc63ab4f4badf7f35921c0ebbb9a9160f744")
    positivity = check_positivity(4, SkewedCache())
    assert len(positivity.failures) == 51
    assert sha256(positivity.failures) == (
        "0b3d80b92d21fbc68d2b0e9efe8c7e193e55a1fbdf950c8f7ca5fbaedfb64a59")


def test_positivity_suite():
    report = check_positivity(2)
    assert report.cases == 3
    assert report.ok, report.failures


def test_triangular_suite():
    report = check_triangular(3)
    assert report.cases > 0
    assert report.ok, report.failures


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


def test_enumeration_cache_keeps_one_class():
    enumerate_by_weight.cache_clear()
    assert check_triangular(4).ok
    info = enumerate_by_weight.cache_info()
    assert (info.hits, info.misses, info.currsize) == (138, 69, 1)


def test_oracle_suite():
    report = check_oracle(1, (-2, 2))
    assert report.cases == 5
    assert report.ok, report.failures


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
