"""Tests for the verification suites at small, fast bounds."""

import hashlib

import pytest

from dcbasis.algebra import AlgebraElement, dual_pbw
from dcbasis.canonical import BasisCache, expand_in_dcb, structure_constants
from dcbasis.checks import (
    SUITES,
    SuiteReport,
    _auxiliary,
    _degree_pairs,
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
from dcbasis.criteria import Partition
from dcbasis.laurent import LaurentPoly
from dcbasis.multisegment import Weight, b_form, parse_multisegment


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

    def dual_canonical(self, m):
        g = super().dual_canonical(m)
        if m == SKEWED:
            g = g + dual_pbw(parse_multisegment("[0,1]")).scaled(
                LaurentPoly({1: 2}))
        return g


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


def test_oracle_suite():
    report = check_oracle(1, (-2, 2))
    assert report.cases == 5
    assert report.ok, report.failures


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


def test_hooks_suite():
    report = check_hooks(max_part_sum=3, shift_range=(-4, 4))
    assert report.cases == 54
    assert report.ok, report.failures


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
