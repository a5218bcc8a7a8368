"""Tests for the corrected basis, its expansions, and serialization."""

import collections
import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dcbasis
from dcbasis.canonical import (
    BasisCache,
    dcb_table,
    expand_in_dcb,
    kl_matrix,
    membership_up_to_power,
    structure_constants,
)
from dcbasis import canonical
from dcbasis.algebra import AlgebraElement, basis_product, dual_pbw
from dcbasis.checks import _degree_pairs, window_weights
from dcbasis.laurent import LaurentPoly, ONE, finish, raw
from dcbasis.multisegment import (
    Multisegment,
    Segment,
    Weight,
    b_form,
    enumerate_by_weight,
    parse_multisegment,
    parse_weight,
)


def pm(text):
    return parse_multisegment(text)


def lp(coeffs):
    return LaurentPoly(coeffs)


WORKED_WEIGHT = Weight({0: 1, 1: 2, 2: 1})
M1, M2, M3, M4, M5 = (pm(t) for t in (
    "[0]+2[1]+[2]", "[0]+[1]+[1,2]", "[0,1]+[1]+[2]", "[0,1]+[1,2]",
    "[1]+[0,2]"))

# The full change-of-basis tables of the five-element weight class, frozen.
EXPECTED_BASIS = {
    M5: {M5: lp(1)},
    M4: {M4: lp(1), M5: lp({1: -1})},
    M3: {M3: lp(1), M4: lp({1: -1})},
    M2: {M2: lp(1), M4: lp({1: -1})},
    M1: {M1: lp(1), M2: lp({2: -1}), M3: lp({2: -1}),
         M4: lp({3: 1, 1: -1}), M5: lp({2: 1})},
}

EXPECTED_AUX = {
    M5: {M5: lp(1)},
    M4: {M4: lp(1), M5: lp({-1: 1})},
    M3: {M3: lp(1), M4: lp({-1: 1}), M5: lp({-2: 1})},
    M2: {M2: lp(1), M4: lp({1: -1})},
    M1: {M1: lp(1), M2: lp({0: 1, -2: 1}), M3: lp({2: -1}),
         M4: lp({1: -1}), M5: lp({0: -1})},
}

EXPECTED_INVERSE = {
    M5: {M5: lp(1)},
    M4: {M4: lp(1), M5: lp({1: 1})},
    M3: {M3: lp(1), M4: lp({1: 1}), M5: lp({2: 1})},
    M2: {M2: lp(1), M4: lp({1: 1}), M5: lp({2: 1})},
    M1: {M1: lp(1), M2: lp({2: 1}), M3: lp({2: 1}),
         M4: lp({1: 1, 3: 1}), M5: lp({4: 1})},
}


# -- the worked weight class ---------------------------------------------------


def test_basis_vectors_of_the_worked_class():
    cache = BasisCache()
    for m, expected in EXPECTED_BASIS.items():
        assert cache.dual_canonical(m) == AlgebraElement(expected)


def test_auxiliary_vectors_of_the_worked_class():
    cache = BasisCache()
    for m, expected in EXPECTED_AUX.items():
        assert cache.aux_vector(m) == {q: raw(c)
                                       for q, c in expected.items()}
    assert cache.aux_vector(M1)[M2] == {0: 1, -2: 1}


def test_inverse_table_of_the_worked_class():
    rows = kl_matrix(WORKED_WEIGHT, BasisCache())
    assert {m: dict(row) for m, row in rows.items()} == EXPECTED_INVERSE


def test_inverse_row_at_one_gives_multiplicities():
    row = kl_matrix(WORKED_WEIGHT, BasisCache())[M1]
    assert [row.get(m, LaurentPoly(0)).at_one()
            for m in (M1, M2, M3, M4, M5)] == [1, 1, 1, 2, 1]


def test_matrix_product_is_identity():
    cache = BasisCache()
    table = dcb_table(WORKED_WEIGHT, cache)
    inverse = kl_matrix(WORKED_WEIGHT, cache)
    labels = table.labels
    zero = LaurentPoly(0)
    for m in labels:
        for p in labels:
            entry = sum(
                (c * table.coefficient(q, p)
                 for q, c in inverse[m].items()), zero)
            assert entry == (ONE if p == m else zero)


def test_smallest_classes():
    cache = BasisCache()
    assert cache.dual_canonical(pm("[5]")) == dual_pbw(pm("[5]"))
    assert cache.dual_canonical(pm("[0]+[1]")) == AlgebraElement({
        pm("[0]+[1]"): ONE, pm("[0,1]"): lp({1: -1})})
    assert cache.dual_canonical(pm("[0,1]")) == dual_pbw(pm("[0,1]"))
    assert cache.aux_vector(pm("[3,7]")) == {pm("[3,7]"): {0: 1}}


# -- triangularity invariants -----------------------------------------------------


def test_expansions_are_unitriangular():
    cache = BasisCache()
    for w in (WORKED_WEIGHT, Weight({0: 2, 1: 2})):
        for m in enumerate_by_weight(w):
            x = cache.dual_canonical(m)
            assert x.coefficient(m).is_one()
            for p, c in x.items():
                if p != m:
                    assert c.only_positive_exponents()
                    assert p.extension_key() > m.extension_key()


# -- expansion over the corrected basis ----------------------------------------------


def test_product_decomposition_pinned():
    expansion = structure_constants(pm("[1]+[2,3]"), pm("[2]+[3,4]"),
                                    BasisCache())
    assert expansion == {
        pm("[1]+[2]+[2,3]+[3,4]"): lp({-1: 1}),
        pm("[1]+[2]+[3]+[2,4]"): lp(1),
        pm("[1,2]+[2,3]+[3,4]"): lp(1),
        pm("[1,2]+[3]+[2,4]"): lp({1: 1}),
        pm("[1,3]+[2,4]"): lp(1),
    }
    assert all(c.at_one() == 1 for c in expansion.values())


def test_expand_requires_homogeneous_input():
    with pytest.raises(ValueError):
        expand_in_dcb(dual_pbw(pm("[0]")) + dual_pbw(pm("[1]")),
                      BasisCache())


def test_expand_round_trip():
    cache = BasisCache()
    coeffs = {M2: lp({3: 2}), M4: lp({-1: 1, 1: 1}), M5: lp(-5)}
    x = AlgebraElement()
    for m, c in coeffs.items():
        x = x + cache.dual_canonical(m).scaled(c)
    assert expand_in_dcb(x, cache) == coeffs
    assert expand_in_dcb(AlgebraElement(), cache) == {}


def test_membership_up_to_power():
    cache = BasisCache()
    g = cache.dual_canonical
    simple = g(pm("[0]")) * g(pm("[2]"))
    assert membership_up_to_power(simple, cache) == (0, pm("[0]+[2]"))
    far = g(pm("[0]")) * g(pm("[5]"))
    assert membership_up_to_power(far, cache) == (0, pm("[0]+[5]"))
    linked_pair = g(pm("[0]")) * g(pm("[1]"))
    assert membership_up_to_power(linked_pair, cache) is None
    big = g(pm("[1]+[2,3]")) * g(pm("[2]+[3,4]"))
    assert membership_up_to_power(big, cache) is None
    scaled = g(M4).scaled(lp({-3: 1}))
    assert membership_up_to_power(scaled, cache) == (3, M4)
    doubled = g(M4).scaled(2)
    assert membership_up_to_power(doubled, cache) is None


def test_membership_pins_the_label_sum():
    cache = BasisCache()
    window = [pm(t) for t in ("[0]", "[1]", "[2]", "[0,1]", "[1,2]", "[0,2]")]
    for m, n in itertools.combinations_with_replacement(window, 2):
        product = cache.dual_canonical(m) * cache.dual_canonical(n)
        member = membership_up_to_power(product, cache)
        if member is not None:
            assert member == (b_form(m, n), m + n)


# -- the one sweep against the loops it replaced ------------------------------


def _old_correction(m, cache):
    """Reference correction loop: re-sort the support at every step and
    correct the extension_key-least label not yet visited."""
    x = AlgebraElement({q: finish(c) for q, c in cache.aux_vector(m).items()})
    done = {m}
    while True:
        todo = [n for n in x.support() if n not in done]
        if not todo:
            return x
        n = min(todo, key=Multisegment.extension_key)
        gamma = x.coefficient(n).symmetric_part()
        if gamma:
            x = x - cache.dual_canonical(n).scaled(gamma)
        done.add(n)


def _old_expansion(x, cache):
    """Reference expansion: strip the extension_key-least support label
    until nothing is left."""
    out = {}
    while x:
        n = min(x.support(), key=Multisegment.extension_key)
        out[n] = x.coefficient(n)
        x = x - cache.dual_canonical(n).scaled(out[n])
    return out


def test_correction_sweep_matches_the_old_loop():
    cache = BasisCache()
    labels = 0
    for w in window_weights(5, 0, 4):
        for m in enumerate_by_weight(w):
            assert cache.dual_canonical(m) == _old_correction(m, cache), m
            labels += 1
    assert labels == 623


def test_expansion_sweep_matches_the_old_loop():
    cache = BasisCache()
    pairs = 0
    for m, n in _degree_pairs(5):
        x = cache.dual_canonical(m) * cache.dual_canonical(n)
        expansion = expand_in_dcb(x, cache)
        expected = _old_expansion(x, cache)
        assert list(expansion.items()) == list(expected.items()), (m, n)
        pairs += 1
    assert pairs == 2477


def _old_aux_vector(m, cache):
    """Reference auxiliary vector: the graded commutator through two
    general products of elements."""
    if len(m) <= 1:
        return dual_pbw(m)
    s = m.largest_segment()
    rest = m.remove(s)
    single = Multisegment([s])
    g_rest = cache.dual_canonical(rest)
    g_s = dual_pbw(single)
    forward = LaurentPoly.v_power(b_form(rest, single) + 1)
    backward = LaurentPoly.v_power(b_form(single, rest) - 1)
    num = (g_rest * g_s).scaled(forward) - (g_s * g_rest).scaled(backward)
    return AlgebraElement({q: c.divide_by_v_minus_vinv()
                           for q, c in num.unordered_items()})


def test_aux_vector_matches_the_old_products():
    cache = BasisCache()
    labels = 0
    for w in window_weights(5, 0, 4):
        for m in enumerate_by_weight(w):
            old = dict(_old_aux_vector(m, cache).unordered_items())
            new = {q: finish(c) for q, c in cache.aux_vector(m).items()}
            assert new == old, m
            labels += 1
    assert labels == 623


def test_forward_product_is_a_relabelling():
    # aux_vector never straightens E*(p) E*(s): every p in the support of
    # G*(rest) has no segment above s, so the product is v^-mu E*(p + s).
    cache = BasisCache()
    labels = pairs = 0
    for w in window_weights(5, 0, 4):
        for m in enumerate_by_weight(w):
            labels += 1
            if len(m) <= 1:
                continue
            s = m.largest_segment()
            single = Multisegment([s])
            for p, _ in cache.dual_canonical(m.remove(s)).unordered_items():
                relabelled = dual_pbw(p + single).scaled(
                    LaurentPoly.v_power(-p.segments.count(s)))
                assert basis_product(p, single) == relabelled, (m, p)
                pairs += 1
    assert labels == 623
    assert pairs == 968


def test_aux_vector_straightens_one_product_per_support_label(monkeypatch):
    calls = []

    def counting(m, n):
        calls.append((m, n))
        return basis_product(m, n)

    monkeypatch.setattr(canonical, "basis_product", counting)
    cache = BasisCache()
    table = dcb_table(parse_weight("0:1,1:2,2:2,3:2,4:2,5:1"), cache)
    assert len(table.labels) == 235
    assert len(calls) == 550
    assert len(set(calls)) == 550
    assert all(len(single) == 1 for single, _ in calls)


def test_dcb_table_drops_the_products_of_its_weight():
    cache = BasisCache()
    cache.dual_canonical(pm("[0]+[1]+[1,2]"))
    assert WORKED_WEIGHT in cache._products
    dcb_table(WORKED_WEIGHT, cache)
    assert WORKED_WEIGHT not in cache._products
    assert Weight({0: 1, 1: 1}) in cache._products
    # Every weight a class recurses into is itself a window weight, so a
    # cache filled class by class over the window ends with no products.
    weights = window_weights(6, 0, 5)
    assert len(weights) == 923
    for w in weights:
        dcb_table(w, cache)
    assert cache._products == {}


# -- independence from the processing order --------------------------------------------


def test_basis_is_independent_of_the_linear_extension():
    def alternative_key(m):
        return (m.sq_length_sum(),
                tuple((s.start, s.end) for s in m.segments))

    class AlternativeOrder(BasisCache):
        def _key(self, n):
            return alternative_key(n)

    default = BasisCache()
    other = AlternativeOrder()
    for w in (WORKED_WEIGHT, Weight({0: 2, 1: 2}),
              Weight({0: 1, 1: 2, 2: 2, 3: 1})):
        for m in enumerate_by_weight(w):
            assert other.dual_canonical(m) == default.dual_canonical(m)


def test_each_label_is_keyed_once_per_cache(monkeypatch):
    w = parse_weight("0:1,1:2,2:2,3:2,4:2,5:1")
    calls = collections.Counter()
    extension_key = Multisegment.extension_key

    def counting_key(m):
        calls[m] += 1
        return extension_key(m)

    monkeypatch.setattr(Multisegment, "extension_key", counting_key)
    table = dcb_table(w, BasisCache())
    assert len(table.labels) == 235
    assert set(table.labels) <= set(calls)
    assert max(calls.values()) == 1, calls.most_common(1)


# -- caching and invariants ----------------------------------------------------


def test_labels_computed():
    cache = BasisCache()
    assert cache.labels_computed() == 0
    cache.dual_canonical(pm("[7]"))
    assert cache.labels_computed() == 1


# Each case breaks one invariant of G*([0]+[1]), whose only other label is
# [0,1], or of the products behind it; the script prints what
# dual_canonical raised, one line per case.
_BROKEN_CACHES = """
import sys
from dcbasis import canonical
from dcbasis.algebra import AlgebraElement, basis_product, dual_pbw
from dcbasis.canonical import BasisCache, InvariantError
from dcbasis.laurent import LaurentPoly
from dcbasis.multisegment import parse_multisegment

TOP, LOW = parse_multisegment("[0]+[1]"), parse_multisegment("[0,1]")


class Diagonal(BasisCache):
    def aux_vector(self, m):
        return {n: {e + 1: c for e, c in coeffs.items()}
                for n, coeffs in super().aux_vector(m).items()}


class Below(BasisCache):
    def aux_vector(self, m):
        x = super().aux_vector(m)
        if m == LOW:
            x[TOP] = {1: 1}
        return x


class NotInVZv(BasisCache):
    def aux_vector(self, m):
        if m == TOP:
            return {TOP: {0: 1}, LOW: {0: 1}}
        return super().aux_vector(m)

    def dual_canonical(self, m):
        if m == LOW:
            return dual_pbw(LOW).scaled(LaurentPoly({0: 2}))
        return super().dual_canonical(m)


def without_all_swap_term(single, p):
    return AlgebraElement({
        q: c for q, c in basis_product(single, p).unordered_items()
        if q != p + single})


class NoAllSwapTerm(BasisCache):
    # The last case, so the patch is never undone.
    def aux_vector(self, m):
        canonical.basis_product = without_all_swap_term
        return super().aux_vector(m)


print("optimize", sys.flags.optimize)
for cls, label in ((Diagonal, LOW), (Below, LOW), (NotInVZv, TOP),
                   (NoAllSwapTerm, TOP)):
    try:
        cls().dual_canonical(label)
        print(cls.__name__, "no error")
    except InvariantError as exc:
        print(cls.__name__, exc)
"""


def test_invariant_checks_survive_python_O():
    src = str(Path(dcbasis.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_CACHES], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "Diagonal G*([0,1]) has coefficient v at [0,1], not 1",
        "Below G*([0,1]) has coefficient v at [0]+[1]: off-diagonal terms "
        "must lie above [0,1], with coefficients in v*Z[v]",
        "NotInVZv G*([0]+[1]) has coefficient -1 at [0,1]: off-diagonal "
        "terms must lie above [0]+[1], with coefficients in v*Z[v]",
        "NoAllSwapTerm aux_vector([0]+[1]): E*([1]) E*([0]) has no term at "
        "[0] + [1], so E*([0]) E*([1]) is not a relabelling",
    ]


def test_no_module_holds_a_basis_cache():
    # Every basis cache belongs to the caller that built it.
    names = ["dcbasis"] + [f"dcbasis.{info.name}" for info
                           in pkgutil.iter_modules(dcbasis.__path__)]
    assert {"dcbasis.canonical", "dcbasis.checks", "dcbasis.cli"} <= set(names)
    for name in names:
        held = [attr for attr, value
                in vars(importlib.import_module(name)).items()
                if isinstance(value, BasisCache)]
        assert held == [], (name, held)


# -- tables and serialization ---------------------------------------------------------------


def test_dcb_table_accessors():
    cache = BasisCache()
    table = dcb_table(WORKED_WEIGHT, cache)
    assert table.weight == WORKED_WEIGHT
    assert list(table.labels) == [M1, M2, M3, M4, M5]
    assert table.expansion(M4) == cache.dual_canonical(M4)
    assert table.coefficient(M1, M4) == lp({3: 1, 1: -1})


# sha256 of the ``dcb --json`` text of the two smallest classes of the
# benchmark ladder (18 and 65 labels) and of its largest (235 labels).
DCB_JSON_SHA256 = {
    "0:1,1:2,2:2,3:1":
        "a27ff072c14bc3f6fee41d1439c73ce4d5be60bc247468beba65e11c11423ebb",
    "0:1,1:2,2:2,3:2,4:1":
        "5738105c79e3f57909a81df512f49bd940f65404200a219176d10f1ed9e62ade",
    "0:1,1:2,2:2,3:2,4:2,5:1":
        "a2f68e47aca01941d37bd835e2b939d8124a3b1a738ec8587f628502b3012ea1",
}


@pytest.mark.parametrize("weight", sorted(DCB_JSON_SHA256))
def test_dcb_json_digest_pinned(weight):
    table = dcb_table(parse_weight(weight), BasisCache())
    text = json.dumps(table.to_json_obj(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == DCB_JSON_SHA256[weight]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
