"""Acceptance suite: eleven binding criteria, one pass line each.

Every criterion pins exact values (coefficients are exact Laurent
polynomials, never floats) and, where a bound is stated, a wall-clock
budget measured around a cold cache.  Each test prints one line starting
with ``PASS criterion N`` once its assertions hold.
"""

import functools
import itertools
import random
import time

import pytest

from dcbasis.algebra import AlgebraElement, minor_multisegment
from dcbasis.canonical import (
    BasisCache,
    dcb_table,
    expand_in_dcb,
    kl_matrix,
    membership_up_to_power,
    structure_constants,
)
from dcbasis.checks import (
    check_eqrei,
    check_hooks,
    check_minors,
    check_oracle,
    check_positivity,
    partitions_up_to,
)
from dcbasis.cli import main
from dcbasis.criteria import (
    CoFiniteSet,
    evaluation_multisegment,
    irreducible_family,
    strongly_separated,
)
from dcbasis.laurent import ONE, LaurentPoly
from dcbasis.multisegment import (
    Multisegment,
    Weight,
    b_form,
    parse_multisegment,
)


def pm(text):
    return parse_multisegment(text)


def lp(coeffs):
    return LaurentPoly(coeffs)


WORKED_WEIGHT = Weight({0: 1, 1: 2, 2: 1})
M1, M2, M3, M4, M5 = (pm(t) for t in (
    "[0]+2[1]+[2]", "[0]+[1]+[1,2]", "[0,1]+[1]+[2]", "[0,1]+[1,2]",
    "[1]+[0,2]"))


def test_criterion_01_basis_of_the_worked_weight_class():
    start = time.monotonic()
    table = dcb_table(WORKED_WEIGHT, BasisCache())
    elapsed = time.monotonic() - start
    expected = {
        M5: {M5: lp(1)},
        M4: {M4: lp(1), M5: lp({1: -1})},
        M3: {M3: lp(1), M4: lp({1: -1})},
        M2: {M2: lp(1), M4: lp({1: -1})},
        M1: {M1: lp(1), M2: lp({2: -1}), M3: lp({2: -1}),
             M4: lp({3: 1, 1: -1}), M5: lp({2: 1})},
    }
    assert list(table.labels) == [M1, M2, M3, M4, M5]
    for m, coeffs in expected.items():
        assert table.expansion(m) == AlgebraElement(coeffs), m
    assert elapsed < 1.0, f"basis of the worked class took {elapsed:.3f}s"
    print(f"PASS criterion 1: all five basis vectors exact "
          f"({elapsed:.3f}s < 1s)")


def test_criterion_02_auxiliary_vectors_of_the_worked_class():
    cache = BasisCache()
    expected = {
        M5: {M5: lp(1)},
        M4: {M4: lp(1), M5: lp({-1: 1})},
        M3: {M3: lp(1), M4: lp({-1: 1}), M5: lp({-2: 1})},
        M2: {M2: lp(1), M4: lp({1: -1})},
        M1: {M1: lp(1), M2: lp({0: 1, -2: 1}), M3: lp({2: -1}),
             M4: lp({1: -1}), M5: lp({0: -1})},
    }
    for m, coeffs in expected.items():
        assert cache.aux_vector(m) == coeffs, m
    assert cache.aux_vector(M1)[M2] == lp({0: 1, -2: 1})
    print("PASS criterion 2: all five auxiliary vectors exact, "
          "including the 1 + v^-2 coefficient")


def test_criterion_03_worked_product_decomposition():
    cache = BasisCache()
    start = time.monotonic()
    expansion = structure_constants(
        pm("[1]+[2,3]"), pm("[2]+[3,4]"), cache)
    elapsed = time.monotonic() - start
    assert expansion == {
        pm("[1]+[2]+[2,3]+[3,4]"): lp({-1: 1}),
        pm("[1]+[2]+[3]+[2,4]"): lp(1),
        pm("[1,2]+[2,3]+[3,4]"): lp(1),
        pm("[1,2]+[3]+[2,4]"): lp({1: 1}),
        pm("[1,3]+[2,4]"): lp(1),
    }
    assert elapsed < 5.0, f"decomposition took {elapsed:.3f}s"
    print(f"PASS criterion 3: five factors with coefficients "
          f"v^-1, 1, 1, v, 1 ({elapsed:.3f}s < 5s)")


def test_criterion_04_inverse_multiplicity_matrix():
    rows = kl_matrix(WORKED_WEIGHT, BasisCache())
    at_one = {
        m: {p: c.at_one() for p, c in row.items()}
        for m, row in rows.items()
    }
    assert at_one == {
        M5: {M5: 1},
        M4: {M4: 1, M5: 1},
        M3: {M3: 1, M4: 1, M5: 1},
        M2: {M2: 1, M4: 1, M5: 1},
        M1: {M1: 1, M2: 1, M3: 1, M4: 2, M5: 1},
    }
    assert rows[M1][M4] == lp({1: 1, 3: 1})
    print("PASS criterion 4: 5x5 inverse system with multiplicity row "
          "1, 1, 1, 2, 1")


def test_criterion_05_shift_scan(capsys):
    start = time.monotonic()
    code = main(["scan", "--alpha", "4,2", "--beta", "2,2,1",
                 "--range", "-8:8"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "reducible shifts: -3, -2, -1, 1, 3, 4, 6"
    assert elapsed < 1.0, f"scan took {elapsed:.3f}s"
    with capsys.disabled():
        print(f"\nPASS criterion 5: reducible shifts -3, -2, -1, 1, 3, 4, 6 "
              f"({elapsed:.3f}s < 1s)")


def test_criterion_06_combinatorial_vs_algebraic_oracle():
    start = time.monotonic()
    report = check_oracle(3, (-5, 5), BasisCache())
    elapsed = time.monotonic() - start
    assert report.cases == 396
    assert report.ok, report.failures
    assert elapsed < 600.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"PASS criterion 6: separation equals membership on "
          f"{report.cases} cases, zero disagreements ({elapsed:.1f}s < 600s)")


def test_criterion_07_quantum_minors_are_basis_vectors():
    start = time.monotonic()
    report = check_minors((-2, 4), 3, BasisCache())
    elapsed = time.monotonic() - start
    assert report.cases == 1715
    assert report.ok, report.failures
    assert elapsed < 120.0, f"minor sweep took {elapsed:.1f}s"
    print(f"PASS criterion 7: {report.cases} minors straightened, all "
          f"equal to their basis vectors ({elapsed:.1f}s < 120s)")


def test_criterion_08_structure_constant_laws():
    cache = BasisCache()
    exchange = check_eqrei(5, cache)
    positivity = check_positivity(5, cache)
    assert exchange.cases == 2477
    assert exchange.ok, exchange.failures
    assert positivity.cases == 2477
    assert positivity.ok, positivity.failures
    print("PASS criterion 8: twist symmetry, bar-symmetry, positivity, and "
          "leading terms hold on 2477 pairs")


def test_criterion_09_hook_criterion():
    report = check_hooks(max_part_sum=6, shift_range=(-12, 12))
    assert report.cases == 725
    assert report.ok, report.failures
    print(f"PASS criterion 9: hook and pair criteria agree on "
          f"{report.cases} self-product cases")


def test_criterion_10_flag_minor_products():
    cache = BasisCache()
    i1 = pm("[1]+[2]+[3,4]")
    i2 = pm("[2,3]")
    product = cache.dual_canonical(i1) * cache.dual_canonical(i2)
    scaled = product.scaled(LaurentPoly.v_power(1))
    assert expand_in_dcb(scaled, cache) == {
        pm("[1]+[2]+[2,3]+[3,4]"): lp({1: 1}),
        pm("[1]+[2]+[3]+[2,4]"): ONE,
    }

    rng = random.Random(42)
    universe = list(range(1, 7))
    found = 0
    while found < 50:
        family = [frozenset(rng.sample(universe, rng.randint(1, 6)))
                  for _ in range(3)]
        cofinite = [CoFiniteSet(0, sorted(s)) for s in family]
        if not all(strongly_separated(a, b)
                   for a, b in itertools.combinations(cofinite, 2)):
            continue
        found += 1
        labels = [
            minor_multisegment(tuple(range(1, len(s) + 1)), tuple(sorted(s)))
            for s in family]
        triple = functools.reduce(
            lambda x, y: x * y, (cache.dual_canonical(l) for l in labels))
        b_pi = sum(b_form(labels[k], labels[l])
                   for k in range(3) for l in range(k + 1, 3))
        total = sum(labels, Multisegment())
        assert membership_up_to_power(triple, cache) == (b_pi, total), family
    print("PASS criterion 10: worked product expansion exact and all 50 "
          "strongly separated triples give basis vectors")


def test_criterion_11_family_criterion_vs_membership():
    cache = BasisCache()
    rng = random.Random(42)
    pool = partitions_up_to(3)
    for trial in range(100):
        family = [(rng.choice(pool), rng.randint(-4, 4)) for _ in range(3)]
        product = functools.reduce(
            lambda x, y: x * y,
            (cache.dual_canonical(evaluation_multisegment(alpha, shift))
             for alpha, shift in family))
        algebraic = membership_up_to_power(product, cache) is not None
        assert irreducible_family(family) == algebraic, (trial, family)
    print("PASS criterion 11: pairwise criterion matches triple-product "
          "membership on 100 random families")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
