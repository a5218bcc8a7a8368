"""Tests for the corrected basis, its expansions, and serialization."""

import collections
import collections.abc
import hashlib
import heapq
import importlib
import itertools
import json
import os
import pkgutil
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import dcbasis
from dcbasis.canonical import (
    BasisCache,
    dcb_table,
    expand_in_dcb,
    kl_matrix,
    membership_up_to_power,
    product_membership,
    structure_constants,
)
from dcbasis import canonical, checks, cli, laurent
from dcbasis.algebra import (
    AlgebraElement,
    InvariantError,
    basis_product,
    dual_pbw,
)
from dcbasis.checks import (
    _column_label,
    _degree_pairs,
    check_oracle,
    partitions_up_to,
    window_weights,
)
from dcbasis.criteria import evaluation_multisegment
from dcbasis.laurent import (
    ExactDivisionError,
    LaurentPoly,
    ONE,
    V,
    ZERO,
)
from dcbasis.multisegment import (
    Multisegment,
    Segment,
    Weight,
    b_form,
    enumerate_by_weight,
    parse_multisegment,
    parse_weight,
    segment_key,
    segment_pairing,
)
from test_laurent import _divide_reference, _symmetric_reference


def pm(text):
    return parse_multisegment(text)


def lp(coeffs):
    return LaurentPoly(coeffs)


def raw(p):
    """p's coefficients as a plain exponent -> coefficient dict."""
    return dict(p.items())


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
        assert cache.aux_vector(m) == expected
    assert cache.aux_vector(M1)[M2] == lp({0: 1, -2: 1})


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
    assert cache.aux_vector(pm("[3,7]")) == {pm("[3,7]"): ONE}


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


def test_expansion_of_mixed_weights_is_the_union_of_its_parts():
    cache = BasisCache()
    parts = [cache.dual_canonical(pm("[0]")),
             cache.dual_canonical(pm("[1]")).scaled(lp({1: 1})),
             dual_pbw(pm("[0]+[1]"))]
    union = {}
    for part in parts:
        union.update(expand_in_dcb(part, cache))
    assert union == {pm("[0]"): lp(1), pm("[1]"): lp({1: 1}),
                     pm("[0]+[1]"): lp(1), pm("[0,1]"): lp({1: 1})}
    expansion = expand_in_dcb(parts[0] + parts[1] + parts[2], cache)
    assert expansion == union
    assert list(expansion) == sorted(union, key=Multisegment.extension_key)


def test_structure_constants_match_the_expansion_of_the_product():
    """The packed path equals expand_in_dcb(G*(m) * G*(n)), which it
    replaced, in values and in key order, on every pair of degree sum <= 5:
    on a default cache, and on one started at width 4, where the
    correction of a factor's row must widen."""
    widened = []

    class Narrow(BasisCache):
        def _check(self, bound, k):
            try:
                super()._check(bound, k)
            except canonical._Widened:
                widened.append((k, self._k))
                raise

    narrow = Narrow()
    narrow._k = 4
    pairs = 0
    for cache in (BasisCache(), narrow):
        for m, n in _degree_pairs(5):
            expansion = structure_constants(m, n, cache)
            product = cache.dual_canonical(m) * cache.dual_canonical(n)
            assert list(expansion.items()) == list(
                expand_in_dcb(product, cache).items()), (m, n)
            pairs += 1
    assert pairs == 2 * 2477
    assert widened == [(4, 8)] and narrow._k == 8


def test_a_structure_constant_widens_on_its_own_bound():
    """With both factors finished at width 4, the straightened words of
    G*(m) G*(n) outgrow it: the widening comes from _structure's own
    bound, finishes no row, and the restart reads the rows re-packed."""
    m, n = pm("2[0]+[2]"), pm("2[1]")
    raised = []

    class Narrow(BasisCache):
        def _resolve(self, words, k):
            computed = self.labels_computed()
            try:
                return super()._resolve(words, k)
            except canonical._Widened:
                raised.append((k, self._k, computed,
                               self.labels_computed()))
                raise

    narrow = Narrow()
    narrow._k = 4
    narrow.dual_canonical(m)
    narrow.dual_canonical(n)
    assert narrow._k == 4
    computed = narrow.labels_computed()
    expansion = structure_constants(m, n, narrow)
    assert raised == [(4, 8, computed, computed)]
    assert list(expansion.items()) == list(
        structure_constants(m, n, BasisCache()).items())


def _shifted(m, b):
    return Multisegment((s + b, e + b) for s, e in m.segments)


class _NoTranslates(dict):
    """A translation index that keeps nothing, so every row is computed."""

    def __setitem__(self, key, value):
        pass


def _computing():
    """A cache on the path the copies replace: it computes every row."""
    cache = BasisCache()
    cache._classes = _NoTranslates()
    return cache


def _copies(cache):
    """The ids of cache's rows that were copied from a translate: every
    finished row but the ones its translation index holds."""
    sources = set(cache._classes.values())
    return [i for i, row in enumerate(cache._rows)
            if row is not None and i not in sources]


def test_a_translate_is_copied_as_the_correction_computes_it():
    """G*(m + b) is G*(m) shifted by b: on the window classes of
    check_triangular's default degree, at shifts -3, 1 and 4, a cache that
    has finished every G*(m) copies each G*(m + b), computing no row, and
    the copy equals the row a cache that computes every row writes."""
    labels = [m for w in window_weights(5) for m in enumerate_by_weight(w)]
    warm = BasisCache()
    for m in labels:
        warm.dual_canonical(m)
    sources, copies = len(warm._classes), len(_copies(warm))
    shifted = {_shifted(m, b) for m in labels for b in (-3, 1, 4)}
    for n in shifted:
        fresh = _computing()
        assert warm.dual_canonical(n) == fresh.dual_canonical(n), n
        assert warm._row(warm._id(n))[:2] == fresh._row(fresh._id(n))[:2], n
    assert len(warm._classes) == sources
    assert len(_copies(warm)) - copies == len(shifted - set(labels)) == 1502


def test_a_widening_after_copies_repacks_them_exactly():
    """Rows copied at width 4 are re-packed by the widening that
    structure_constants forces, as in
    test_a_structure_constant_widens_on_its_own_bound, and rows copied
    after it read the re-packed source: each decodes to the row computed
    afresh."""
    m, n = pm("2[0]+[2]"), pm("2[1]")
    narrow = BasisCache()
    narrow._k = 4
    for b in (0, -2, 3):
        narrow.dual_canonical(_shifted(m, b))
        narrow.dual_canonical(_shifted(n, b))
    assert narrow._k == 4
    before = _copies(narrow)
    assert before
    structure_constants(m, n, narrow)
    assert narrow._k > 4
    narrow.dual_canonical(_shifted(m, 7))
    after = _copies(narrow)
    assert set(before) < set(after)
    narrow._memo.clear()
    fresh = _computing()
    for i in after:
        label = narrow._labels[i]
        assert narrow.dual_canonical(label) == fresh.dual_canonical(label)


@pytest.mark.parametrize("offset", [0, -5, 3])
def test_a_class_computes_the_same_rows_at_every_offset(offset):
    """dcb_table of the 235-label class finishes 559 rows at any offset,
    544 computed and 15 copied from a translate met on the way."""
    w = Weight((p + offset, c) for p, c in
               parse_weight("0:1,1:2,2:2,3:2,4:2,5:1").items())
    cache = BasisCache()
    dcb_table(w, cache)
    assert (len(cache._classes), len(_copies(cache))) == (544, 15)


def test_the_oracle_cases_compute_one_row_per_translation_class():
    """The benchmark's 396 oracle cases on one cache finish 459 rows: 210
    computed, one per translation class, and 249 copied (584 were
    computed when every row was)."""
    cache = BasisCache()
    for m, n in _evaluation_cases(3, range(-5, 6)):
        membership_up_to_power(
            cache.dual_canonical(m) * cache.dual_canonical(n), cache)
    assert (len(cache._classes), len(_copies(cache))) == (210, 249)


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
    assert membership_up_to_power(AlgebraElement(), cache) is None
    assert membership_up_to_power(g(pm("[0]")) + g(pm("[1]")), cache) is None


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
    x = AlgebraElement(cache.aux_vector(m))
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


def test_correction_queues_only_labels_that_need_a_step(monkeypatch):
    sweeps = []  # the coefficients of the sweeps in progress, innermost last
    queued = []  # for each label put on a heap: whether it needed a step

    class Recording(BasisCache):
        def _sweep(self, acc, base, *args):
            # A sweep waits for a row while the row's own sweep runs, so
            # the sweeps in progress nest.
            sweeps.append((acc, base, self._k))
            try:
                return (yield from super()._sweep(acc, base, *args))
            finally:
                sweeps.pop()

    def record(entries):
        acc, base, k = sweeps[-1]
        for _, i in entries:
            digits, _ = laurent._digits(acc[i], base, k)
            queued.append(any(e <= 0 for e in digits))

    class CountingHeapq:
        heappop = staticmethod(heapq.heappop)

        @staticmethod
        def heapify(heap):
            record(heap)
            heapq.heapify(heap)

        @staticmethod
        def heappush(heap, entry):
            record([entry])
            heapq.heappush(heap, entry)

    monkeypatch.setattr(canonical, "heapq", CountingHeapq)
    table = dcb_table(parse_weight("0:1,1:2,2:2,3:2,4:2,5:1"), Recording())
    assert len(table.labels) == 235
    # Queueing every label a correction meets puts 9,929 on its heaps.
    assert len(queued) == 2866
    assert all(queued)


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


# -- membership from the lowest label against the full expansion --------------


def _single_basis_vector(expansion):
    """(k, q) such that v^k times the expanded element is G*(q), or None:
    the expansion must be a single basis vector times a bare power of v."""
    if len(expansion) != 1:
        return None
    (q, c), = expansion.items()
    e = c.single_power()
    return None if e is None else (-e, q)


def _old_membership(x, cache):
    """Reference membership test: expand x over the whole basis."""
    return _single_basis_vector(expand_in_dcb(x, cache))


def test_membership_matches_the_expansion_on_the_oracle_cases(monkeypatch):
    answers = collections.Counter()

    def compared(x, cache):
        member = membership_up_to_power(x, cache)
        assert member == _old_membership(x, cache), x
        answers[member is not None] += 1
        return member

    monkeypatch.setattr(checks, "membership_up_to_power", compared)
    report = check_oracle(max_part_sum=4, shift_range=(-6, 6))
    assert report.ok, report.failures
    assert report.cases == sum(answers.values()) == 1573
    assert answers[True] and answers[False]


def test_membership_matches_the_expansion_on_non_members():
    cache = BasisCache()
    g = cache.dual_canonical
    v = LaurentPoly.v_power(1)
    verdicts = collections.Counter()

    def agree(x, expected):
        member = membership_up_to_power(x, cache)
        assert member == _old_membership(x, cache) == expected, x
        verdicts[expected is not None] += 1

    for w in window_weights(4, 0, 3):
        labels = enumerate_by_weight(w)
        for q in labels:
            for k in (-2, 0, 3):
                agree(g(q).scaled(LaurentPoly.v_power(k)), (-k, q))
            agree(-g(q), None)
            for n, c in g(q).unordered_items():
                if n != q:
                    terms = dict(g(q).unordered_items())
                    terms[n] = c + v
                    agree(AlgebraElement(terms).scaled(v), None)
            for r in labels:
                if r != q:
                    agree(g(q) + g(r), None)
    assert verdicts == {True: 393, False: 458}


@pytest.mark.parametrize("m, n, labels", [
    ("[1]+[2,3]", "[2]+[3,4]", 14),
    ("[0]+[1,2]", "[1]+[2]+[0,3]", 12),
])
def test_membership_computes_one_basis_vector_of_the_product(m, n, labels):
    m, n = pm(m), pm(n)
    cache = BasisCache()
    product = cache.dual_canonical(m) * cache.dual_canonical(n)
    assert membership_up_to_power(product, cache) is None
    factors_and_sum = BasisCache()
    for p in (m, n, m + n):
        factors_and_sum.dual_canonical(p)
    assert (cache.labels_computed() == factors_and_sum.labels_computed()
            == labels)


def _evaluation_cases(max_part_sum, shifts):
    """The label pairs of check_oracle: (m_alpha at 0, m_beta at b)."""
    parts = partitions_up_to(max_part_sum)
    return [(evaluation_multisegment(alpha, 0),
             evaluation_multisegment(beta, b))
            for alpha in parts for beta in parts for b in shifts]


def test_the_shape_test_refuses_before_any_row_of_the_product():
    """G*(q)'s off-diagonal coefficients lie in vZ[v], so a product with a
    digit at or below its lowest label's power elsewhere is refused with
    no row computed: 56 of the 112 non-members of the benchmark's 396
    oracle cases.  The others finish the row of q, and no vector but the
    two factors is decoded."""
    refused = members = 0
    for m, n in _evaluation_cases(3, range(-5, 6)):
        cache = BasisCache()
        x = cache.dual_canonical(m) * cache.dual_canonical(n)
        q = x.support()[0]
        e = x.coefficient(q).single_power()
        shaped = e is not None and all(
            c.min_exponent() > e for p, c in x.unordered_items() if p != q)
        before = cache.labels_computed()
        member = membership_up_to_power(x, cache)
        members += member is not None
        if shaped:
            assert cache._row(cache._id(q)) is not None
        else:
            assert member is None and cache.labels_computed() == before
            refused += 1
        assert set(cache._memo) == {cache._id(m), cache._id(n)}
    assert (members, refused) == (284, 56)


def test_product_membership_matches_membership_of_the_product():
    """Partitions of size <= 4 at shifts -5..5: the same (k, q) or None."""
    cache, answers = BasisCache(), collections.Counter()
    for m, n in _evaluation_cases(4, range(-5, 6)):
        member = membership_up_to_power(
            cache.dual_canonical(m) * cache.dual_canonical(n), cache)
        assert product_membership([m, n], cache) == member, (m, n)
        answers[member is not None] += 1
    assert answers == {True: 867, False: 464}


def test_product_membership_of_flag_minor_families():
    """Families of two and three flag minors (column sets in 1..5), with
    their reversed products: the same answer as membership of the
    product, members and non-members among them."""
    cache, answers = BasisCache(), collections.Counter()
    sets = [s for r in range(1, 4)
            for s in itertools.combinations(range(1, 6), r)]
    rng = random.Random(2)
    for _ in range(150):
        labels = [_column_label(rng.choice(sets))
                  for _ in range(rng.randint(2, 3))]
        product = cache.dual_canonical(labels[0])
        for m in labels[1:]:
            product = product * cache.dual_canonical(m)
        member = membership_up_to_power(product, cache)
        assert product_membership(labels, cache) == member, labels
        answers[member is not None] += 1
    assert answers[True] and answers[False]


def test_product_membership_of_one_factor_and_of_a_square():
    cache = BasisCache()
    assert product_membership([M4], cache) == (0, M4)
    # [0] [0] is v^-1 E*(2[0]) = v^-1 G*(2[0]); [0,1] [0,1] likewise.
    for m in (pm("[0]"), pm("[0,1]")):
        assert product_membership([m, m], cache) == (1, m + m)
    assert product_membership([pm("[0]"), pm("[1]")], cache) is None


def _tamper(cache, m):
    """Add 2v to the first off-diagonal coefficient of m's finished row, as
    test_checks.SkewedCache does, and forget m's decoded vector."""
    i = cache._id(m)
    top, total, *terms = cache._row(i)
    at = next(a for a in range(0, len(terms), 2) if terms[a] != i)
    terms[at + 1] += 2 << cache._k
    cache._rows[i] = (top + 2, total + 2, *terms)
    cache._memo.pop(i, None)


@pytest.mark.parametrize("m, n, tampered", [
    ("[0,2]", "[2]+[3,4]", 1),
    ("[0,1]", "[1]+[2,3]", 1),
    ("[-1]+[0,1]", "[0,2]", 0),
    ("[-1]+[0,1]", "[0,1]", 0),
])
def test_both_membership_tests_refuse_a_tampered_factor(m, n, tampered):
    """One factor gains 2v at one term, still in vZ[v], so the product
    keeps its shape; the row of m + n was finished before, from the true
    rows.  The comparison with G*(m + n) and the reversed product both
    see the change."""
    m, n = pm(m), pm(n)
    cache = BasisCache()
    g = cache.dual_canonical
    member = (b_form(m, n), m + n)
    assert membership_up_to_power(g(m) * g(n), cache) == member
    assert product_membership([m, n], cache) == member
    _tamper(cache, (m, n)[tampered])
    x = g(m) * g(n)
    q, e = x.support()[0], x.coefficient(m + n).single_power()
    assert q == m + n and e == -member[0]
    assert all(c.min_exponent() > e for p, c in x.unordered_items() if p != q)
    assert membership_up_to_power(x, cache) is None
    assert product_membership([m, n], cache) is None


def test_the_oracle_suite_reports_a_factor_only_the_product_test_trusts():
    """product_membership takes its factors to be bar-invariant.  A
    tampered factor that still quasi-commutes with the other passes it
    (2v on G*([-1]+[0]) does, for 15 of the 81 default cases), but not
    the comparison with G*(q): check_oracle, which runs both, reports
    each such case."""
    cache = BasisCache()
    assert check_oracle(cache=cache).ok
    _tamper(cache, pm("[-1]+[0]"))
    report = check_oracle(cache=cache)
    assert report.cases == 81
    assert sum(f.startswith("membership of the product gives None but "
                            "membership from the factors gives (")
               for f in report.failures) == 15


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
            new = cache.aux_vector(m)
            assert new == old, m
            labels += 1
    assert labels == 623


def test_commutator_exponents_match_the_bilinear_form():
    # aux_vector takes both exponents from b_form.  No segment of rest lies
    # above s, so b(rest, s) is the number mu of copies of s in rest, and
    # b(s, rest) is mu plus (wt t, wt s) summed over the other segments t.
    labels = 0
    for w in window_weights(5, 0, 4):
        for m in enumerate_by_weight(w):
            s = m.largest_segment()
            rest, single = m.remove(s), Multisegment([s])
            mu = rest.segments.count(s)
            pairings = sum(segment_pairing(t, s)
                           for t in rest.segments if t != s)
            assert (b_form(rest, single), b_form(single, rest)) == (
                mu, mu + pairings), m
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
    product = BasisCache._product

    def counting(self, m, s, p, k):
        calls.append((s, self._labels[p].segments))
        return product(self, m, s, p, k)

    monkeypatch.setattr(BasisCache, "_product", counting)
    cache = BasisCache()
    table = dcb_table(parse_weight("0:1,1:2,2:2,3:2,4:2,5:1"), cache)
    assert len(table.labels) == 235
    assert len(calls) == 541
    assert len(set(calls)) == 541
    # Each is E*([s]) E*(p) with no segment of p above s.
    assert all(segment_key(t) <= segment_key(s)
               for s, segs in calls for t in segs)


def test_product_memo_matches_the_product_it_replaced():
    """Every product memo entry, decoded, is basis_product(E*([s]), E*(p)),
    the element product it replaced, for every (s, p) that the window
    labels straighten: at the default width, and in a cache started at
    width 4, which must widen."""
    entries = []

    class Recording(BasisCache):
        def _product(self, m, s, p, k):
            entry = super()._product(m, s, p, k)
            entries.append((self, s, p, k, entry))
            return entry

    default, narrow = Recording(), Recording()
    narrow._k = 4
    for cache in (default, narrow):
        for w in window_weights(5, 0, 4):
            dcb_table(w, cache)
    assert narrow._k > 4
    pairs = {default: set(), narrow: set()}
    for cache, s, p, k, (base, terms, swap, mu, top) in entries:
        label, single = cache._labels[p], Multisegment([s])
        decoded = {cache._labels[q]: _unpack(x, base, k)
                   for q, x in terms.items()}
        assert AlgebraElement(decoded) == basis_product(single, label), (
            s, label)
        assert all(decoded.values())
        assert cache._labels[swap] == label + single
        assert mu == label.segments.count(s)
        assert top > max(sum(abs(c) for _, c in x.items())
                         for x in decoded.values())
        pairs[cache].add((s, label.segments))
    assert len(pairs[default]) == len(pairs[narrow]) == 317


def test_no_product_outlives_its_run(monkeypatch):
    open_during_aux = []

    class Recording(BasisCache):
        def _aux(self, m):
            open_during_aux.append(self._products is not None)
            return super()._aux(m)

    cache = Recording()
    m, n = pm("[0]+[1]+[1,2]"), pm("[1]+[2,3]")
    calls = [
        lambda: cache.dual_canonical(m),
        lambda: cache.aux_vector(pm("[0,1]+[1]+[2]")),
        lambda: expand_in_dcb(dual_pbw(n), cache),
        lambda: structure_constants(m, n, cache),
        lambda: membership_up_to_power(
            cache.dual_canonical(pm("[0]")) * cache.dual_canonical(n),
            cache),
        lambda: dcb_table(WORKED_WEIGHT, cache),
        lambda: kl_matrix(parse_weight("0:1,1:2,2:2,3:1"), cache),
    ]
    for call in calls:
        call()
        assert cache._products is None
    assert open_during_aux and all(open_during_aux)
    # Widening inside a run replaces the memo; the run still closes it.
    tiny = BasisCache()
    tiny._k = 2
    dcb_table(parse_weight("0:1,1:2,2:2,3:1"), tiny)
    assert tiny._k > 2
    assert tiny._products is None
    # So does every cache a command builds.
    caches = []

    class Recorded(BasisCache):
        def __init__(self):
            super().__init__()
            caches.append(self)

    monkeypatch.setattr(cli, "BasisCache", Recorded)
    assert cli.main(["irred", "--alpha", "3,2", "--beta", "2,1", "--b", "2",
                     "--verify"]) == 0
    assert len(caches) == 1 and caches[0].labels_computed() > 0
    assert caches[0]._products is None


# -- the packed kernels of laurent against LaurentPoly arithmetic and the
# -- dict oracles of test_laurent ---------------------------------------------

# At width 32 a digit is read while bounded by 2^30: these coefficients keep
# every L1 norm below that through one product.
WIDTH = 32
packable = st.dictionaries(st.integers(-40, 40), st.integers(-1000, 1000),
                           max_size=8).map(LaurentPoly)


def _unpack(x, base, k=WIDTH):
    return LaurentPoly(laurent._digits(x, base, k)[0])


def _low(p):
    return p.min_exponent() if p else 0


@given(st.sampled_from([2, 3, 8, 32, 64]), st.integers(0, 3), st.data())
def test_pack_and_decode_round_trip(k, below, data):
    # Every balanced digit of the width, the extremes included.
    half = 1 << (k - 1)
    p = LaurentPoly(data.draw(st.dictionaries(
        st.integers(-40, 40), st.integers(-half, half - 1), max_size=8)))
    base = _low(p) - below
    packed, l1 = laurent._pack(p, base, k)
    assert laurent._digits(packed, base, k) == (
        raw(p), sum(abs(c) for c in raw(p).values()))
    assert l1 == sum(abs(c) for c in raw(p).values())
    assert laurent._decode(packed, base, k) == p


@given(packable, packable, packable, st.integers(-40, 40), st.integers(0, 3))
def test_multiply_add_matches_add_product(acc, a, b, shift, below):
    expected = acc - LaurentPoly.v_power(shift) * a * b
    base_a, base_b = _low(a), _low(b)
    base = min(_low(acc), shift + base_a + base_b) - below
    x = laurent._pack(acc, base, WIDTH)[0] - (
        laurent._pack(a, base_a, WIDTH)[0]
        * laurent._pack(b, base_b, WIDTH)[0]
        << WIDTH * (shift + base_a + base_b - base))
    assert _unpack(x, base) == expected


@given(packable, st.one_of(st.just(ZERO), packable), st.integers(0, 3))
def test_division_matches_the_dict_kernel(q, r, below):
    # q (v - v^-1) is divisible; adding r mostly makes it not.
    p = q * (V - LaurentPoly.v_power(-1)) + r
    base = _low(p) - below
    num = {7: laurent._pack(p, base, WIDTH)[0]}
    expected = _divide_reference(raw(p))
    if expected is None:
        with pytest.raises(ExactDivisionError) as packed:
            laurent._divide(num, base, WIDTH)
        assert str(packed.value) == f"{p} is not divisible by v - v^-1"
        return
    quotients = laurent._divide(num, base, WIDTH)
    assert {i: _unpack(x, base + 1) for i, x in quotients.items()} == (
        {7: lp(expected)} if expected else {})
    if not r:
        assert lp(expected) == q


@given(packable, st.integers(0, 3))
def test_symmetric_part_matches_the_dict_kernel(p, below):
    # Sweeps pack at a base <= 0, where the mirrored digits fit.
    base = min(_low(p), 0) - below
    x = laurent._pack(p, base, WIDTH)[0]
    t, l1 = laurent._symmetric_part(x, base, WIDTH)
    expected = lp(_symmetric_reference(raw(p)))
    assert _unpack(t, base) == expected
    assert l1 == sum(abs(c) for c in raw(expected).values())
    # Needing a correction step is a mask of the digits at exponents <= 0.
    assert bool(x & (1 << WIDTH * (1 - base)) - 1) == bool(expected)


def test_every_window_row_packs_its_coefficients():
    cache = BasisCache()
    k = cache._k
    labels = 0
    for w in window_weights(5, 0, 4):
        for m in enumerate_by_weight(w):
            g = cache.dual_canonical(m)
            # The correction packed this row by a shift of its accumulators,
            # and dual_canonical decoded it in row order.
            top, total, *terms = cache._row(cache._id(m))
            ids, values = terms[::2], terms[1::2]
            packed = [(cache._id(n), laurent._pack(c, 0, k))
                      for n, c in g.unordered_items()]
            assert list(zip(ids, values)) == [(i, x) for i, (x, _) in packed]
            assert {cache._labels[i]: _unpack(x, 0, k)
                    for i, x in zip(ids, values)} == dict(g.unordered_items())
            l1s = [l1 for _, (_, l1) in packed]
            assert (top, total) == (max(l1s), sum(l1s))
            labels += 1
    assert labels == 623
    assert cache._k == k


def test_a_cache_at_a_tiny_width_widens_to_the_same_basis():
    w = parse_weight("0:1,1:2,2:2,3:2,4:2,5:1")
    tiny = BasisCache()
    tiny._k = 2
    table = dcb_table(w, tiny)
    assert len(table.labels) == 235
    assert tiny._k == 16
    assert table.expansions == dcb_table(w, BasisCache()).expansions


# The benchmark's basis ladder, and the 522-label class.
LADDER = ("0:1,1:2,2:2,3:1", "0:1,1:2,2:2,3:2,4:1", "0:1,1:2,2:3,3:2,4:1",
          "0:1,1:2,2:3,3:3,4:1", "0:1,1:2,2:2,3:2,4:2,5:1",
          "0:1,1:2,2:3,3:3,4:2,5:1")


@pytest.mark.parametrize("weight", LADDER)
def test_the_ladder_fits_the_first_width(weight):
    # The product memo's word bounds are looser than exact L1 norms; they
    # must not widen any class of the ladder.
    cache = BasisCache()
    dcb_table(parse_weight(weight), cache)
    assert cache._k == 16


def test_a_widening_repacks_every_finished_row():
    w = parse_weight("0:1,1:2,2:2,3:2,4:2,5:1")
    finished_on_entry = []

    class Recording(BasisCache):
        def _correct(self, i):
            finished_on_entry.append(self._row(i) is not None)
            return (yield from super()._correct(i))

    narrow = Recording()
    narrow._k = 4
    table = dcb_table(w, narrow)
    assert narrow._k == 16
    # Only the rows in progress at the two widenings start again: the row
    # that widened and the prefixes and sweep labels waiting under it on
    # the stack.
    assert (len(finished_on_entry), narrow.labels_computed()) == (572, 559)
    assert not any(finished_on_entry)
    assert table.expansions == dcb_table(w, BasisCache()).expansions


_FLAT_STACK = """
import sys
from dcbasis.canonical import BasisCache, dcb_table
from dcbasis.multisegment import parse_weight

sys.setrecursionlimit(25)
for weight in sys.argv[1:]:
    print(len(dcb_table(parse_weight(weight), BasisCache()).labels))
"""


def test_the_core_finishes_a_class_on_a_flat_stack():
    """Every missing row, G*(rest) or a sweep label's, is finished on the
    explicit stack of the run, so the Python stack does not grow with the
    chains of rows in waiting: a fresh interpreter finishes the 522- and
    940-label classes under a recursion limit of 25.  They needed 48 and
    46 when the sweep recursed through the rows it met."""
    src = str(Path(dcbasis.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FLAT_STACK, "0:1,1:2,2:3,3:3,4:2,5:1",
         "0:1,1:1,2:2,3:2,4:2,5:2,6:1,7:1"], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.stderr, proc.stdout.split()) == ("", ["522", "940"])


def test_expansion_widens_for_large_coefficients():
    big = 10**15 + 1
    cache = BasisCache()
    g = cache.dual_canonical(M1)
    assert expand_in_dcb(g.scaled(big), cache) == {M1: LaurentPoly(big)}
    assert cache._k == 64
    m, n = pm("[1]+[2,3]"), pm("[2]+[3,4]")
    x = cache.dual_canonical(m) * cache.dual_canonical(n)
    expansion = expand_in_dcb(x, BasisCache())
    fresh = BasisCache()
    assert expand_in_dcb(x.scaled(big), fresh) == {
        q: c * big for q, c in expansion.items()}
    assert fresh._k == 64


# -- independence from the processing order --------------------------------------------


def test_basis_is_independent_of_the_linear_extension():
    calls = collections.Counter()

    def alternative_key(m):
        calls[m] += 1
        return (m.sq_length_sum(),
                tuple((s.start, s.end) for s in m.segments))

    class AlternativeOrder(BasisCache):
        def _key(self, n):
            return alternative_key(n)

    default = BasisCache()
    other = AlternativeOrder()
    for w in (WORKED_WEIGHT, Weight({0: 2, 1: 2}),
              Weight({0: 1, 1: 2, 2: 2, 3: 1})):
        labels = enumerate_by_weight(w)
        for m in labels:
            assert other.dual_canonical(m) == default.dual_canonical(m)
        # The override orders every label of the class, once.
        assert [calls[m] for m in labels] == [1] * len(labels)


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


def _check_unitriangular(m, x, key):
    """Raise InvariantError unless x has the shape of G*(m): coefficient 1
    at m, every other label above m under key, with its coefficient in
    v*Z[v].  The reference for the check dual_canonical makes while it
    finishes each vector."""
    key_m = key(m)
    for n, c in x.unordered_items():
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


def test_every_window_vector_passes_the_reference_check():
    cache = BasisCache()
    labels = 0
    for w in window_weights(5, 0, 4):
        for m in enumerate_by_weight(w):
            x = cache.dual_canonical(m)
            _check_unitriangular(m, x, Multisegment.extension_key)
            assert all(x.unordered_items())
            labels += 1
    assert labels == 623


def test_labels_computed():
    cache = BasisCache()
    assert cache.labels_computed() == 0
    cache.dual_canonical(pm("[7]"))
    assert cache.labels_computed() == 1


def test_the_core_compares_no_labels(monkeypatch):
    # Rows, products and memo lookups go by id or by segment tuple, so a
    # label object other than the one the cache met first costs nothing.
    calls = []
    eq = Multisegment.__eq__

    def counting(self, other):
        calls.append(other)
        return eq(self, other)

    warm = BasisCache()
    for w in window_weights(5, 0, 4):
        dcb_table(w, warm)
    pairs = list(itertools.islice(_degree_pairs(5), 500))
    monkeypatch.setattr(Multisegment, "__eq__", counting)
    products = [structure_constants(m, n, warm) for m, n in pairs]
    table = dcb_table(parse_weight("0:1,1:2,2:2,3:2,4:2,5:1"), BasisCache())
    assert len(calls) == 0
    monkeypatch.undo()
    cold = BasisCache()
    assert products == [structure_constants(m, n, cold) for m, n in pairs]
    assert len(table.labels) == 235


def _held_after_dcb_table(weight):
    """The bytes a fresh cache holds after dcb_table of the class, the
    table dropped, and the cache."""
    tracemalloc.start()
    try:
        cache = BasisCache()
        table = dcb_table(parse_weight(weight), cache)
        del table
        return tracemalloc.get_traced_memory()[0], cache
    finally:
        tracemalloc.stop()


def test_the_cache_keeps_decoded_vectors_only_for_its_callers():
    held, cache = _held_after_dcb_table("0:1,1:2,2:2,3:2,4:2,5:1")
    assert held <= 1.5 * 2**20, held
    # Prefixes and sweep labels have rows, not decoded vectors.
    assert len(cache._memo) == 235
    assert cache.labels_computed() == 559


def test_the_largest_class_fits_its_memory_target():
    held, cache = _held_after_dcb_table("0:1,1:2,2:3,3:3,4:2,5:1")
    assert held < 4.0 * 2**20, held
    assert (len(cache._memo), cache.labels_computed()) == (522, 1281)


CLASS_235 = parse_weight("0:1,1:2,2:2,3:2,4:2,5:1")


def _check_tables(cache):
    """Every table is at the cache's width and holds what its kernel
    computes from its key; returns the tables by (kernel name, base)."""
    tables, k = {}, cache._k
    for (entry, base), table in cache._tables.items():
        assert (table.entry, table.base, table.k) == (entry, base, k)
        for x, value in table.items():
            if entry is canonical._decoded:
                poly, l1, same = value
                assert poly == laurent._decode(x, base, k)
                assert l1 == laurent._digits(x, base, k)[1]
                assert same is x
            else:
                assert entry is laurent._symmetric_part
                assert value == laurent._symmetric_part(x, base, k)
        tables[entry.__name__, base] = table
    return tables


def test_every_table_entry_is_what_its_kernel_computes():
    cache = BasisCache()
    dcb_table(CLASS_235, cache)
    tables = _check_tables(cache)
    assert {name for name, _ in tables} == {"_decoded", "_symmetric_part"}
    # Every row coefficient is the decoded table's own int, and the table
    # at base 0 holds nothing else.
    decoded = tables["_decoded", 0]
    coefs = [y for row in cache._rows if row for y in row[3::2]]
    assert all(decoded[y][2] is y for y in coefs)
    assert set(decoded) == set(coefs)
    assert len(decoded) < len(coefs) // 10


def test_a_bound_four_doublings_up_widens_once():
    """On a warm cache, a coefficient near 2^133 needs width 256: one
    widening goes there from 16, re-packing each finished row once, and
    the rows still hold the same basis."""
    m = pm("[0]+[1]+[1,2]+[2,3]")
    raised = []

    class Recording(BasisCache):
        def _check(self, bound, k):
            try:
                super()._check(bound, k)
            except canonical._Widened:
                raised.append((k, self._k))
                raise

    cache, big = Recording(), 10**40 + 1
    g = cache.dual_canonical(m)
    assert expand_in_dcb(g.scaled(big), cache) == {m: LaurentPoly(big)}
    assert raised == [(16, 256)] and cache._k == 256
    assert list(structure_constants(m, m, cache).items()) == list(
        structure_constants(m, m, BasisCache()).items())


def test_a_widening_drops_the_tables():
    narrow, wide = BasisCache(), BasisCache()
    narrow._k = 4
    table = dcb_table(CLASS_235, narrow)
    assert narrow._k == wide._k == 16
    assert table.expansions == dcb_table(CLASS_235, wide).expansions
    tables, expected = _check_tables(narrow), _check_tables(wide)
    # What was computed after the last widening, the default cache has too.
    for key, entries in tables.items():
        assert entries.items() <= expected[key].items()


def test_equal_coefficients_are_one_object():
    table = dcb_table(CLASS_235, BasisCache())
    seen, coefs = {}, 0
    for m in table.labels:
        for _, c in table.expansions[m].unordered_items():
            assert seen.setdefault(c, c) is c
            coefs += 1
    assert (coefs, len(seen)) == (6529, 43)


# Each case breaks one invariant of G*([0]+[1]), whose only other label is
# [0,1], or of the products behind it; the script prints what
# dual_canonical raised, one line per case.
_BROKEN_CACHES = """
import sys
from dcbasis import canonical
from dcbasis.algebra import _straighten as straighten
from dcbasis.canonical import BasisCache, InvariantError
from dcbasis.laurent import ExactDivisionError
from dcbasis.multisegment import parse_multisegment

TOP, LOW = parse_multisegment("[0]+[1]"), parse_multisegment("[0,1]")


# Each case changes the packed step, a generator that _run drives:
# coefficients by id, digit e at bits K (e - base).
class Diagonal(BasisCache):
    def _aux(self, m):
        acc, base, bound = yield from super()._aux(m)
        return {i: x << self._k for i, x in acc.items()}, base, bound


class Below(BasisCache):
    def _aux(self, m):
        acc, base, bound = yield from super()._aux(m)
        if m == LOW:
            acc[self._id(TOP)] = 1 << self._k * (1 - base)
        return acc, base, bound


class NotInVZv(BasisCache):
    def _aux(self, m):
        if m == TOP:
            return {self._id(TOP): 1, self._id(LOW): 1}, 0, 1
        return (yield from super()._aux(m))

    def _row(self, i):
        # The row of 2 E*([0,1]): norms, then its id and coefficient 2.
        if self._labels[i] == LOW:
            return (2, 2, i, 2)
        return super()._row(i)


def doubled(word, off, x, l1, k, out):
    straighten(word, off, 2 * x, 2 * l1, k, out)


class Indivisible(BasisCache):
    # The next case replaces the patch.
    def _aux(self, m):
        canonical._straighten = doubled
        return (yield from super()._aux(m))


def without_all_swap_word(word, off, x, l1, k, out):
    straighten(word, off, x, l1, k, out)
    out.pop(word[1:] + word[:1], None)


class NoAllSwapTerm(BasisCache):
    # The last case, so the patch is never undone.
    def _aux(self, m):
        canonical._straighten = without_all_swap_word
        return (yield from super()._aux(m))


print("optimize", sys.flags.optimize)
for cls, label in ((Diagonal, LOW), (Below, LOW), (NotInVZv, TOP),
                   (Indivisible, TOP), (NoAllSwapTerm, TOP)):
    try:
        cls().dual_canonical(label)
        print(cls.__name__, "no error")
    except (InvariantError, ExactDivisionError) as exc:
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
        "Indivisible v - 2*v^-1 is not divisible by v - v^-1",
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


def test_table_rows_key_each_label_once(monkeypatch):
    table = dcb_table(parse_weight("0:1,1:2,2:2,3:2,4:2,5:1"), BasisCache())
    calls = collections.Counter()
    extension_key = Multisegment.extension_key

    def counting_key(m):
        calls[m] += 1
        return extension_key(m)

    monkeypatch.setattr(Multisegment, "extension_key", counting_key)
    rows = [table.row(m) for m in table.labels]
    obj = table.to_json_obj()
    assert calls == collections.Counter(table.labels)
    monkeypatch.undo()
    assert rows == [table.expansion(m).items() for m in table.labels]
    assert [[entry["label"] for entry in row["expansion"]]
            for row in obj["basis"]] == [[str(n) for n, _ in row]
                                         for row in rows]


def test_the_json_object_holds_one_string_per_label():
    table = dcb_table(parse_weight("0:1,1:2,2:2,3:2,4:2,5:1"), BasisCache())
    obj = table.to_json_obj()
    strings = collections.defaultdict(set)
    for row in obj["basis"]:
        for entry in [row, *row["expansion"]]:
            strings[entry["label"]].add(id(entry["label"]))
    assert len(strings) == len(table.labels)
    assert all(len(ids) == 1 for ids in strings.values())
    assert json.dumps(obj, indent=2) == table.to_json()


def test_a_table_is_not_hashable():
    # Its expansions are a dict, so equal tables need not hash alike.
    table = dcb_table(parse_weight("0:1,1:1"), BasisCache())
    assert not isinstance(table, collections.abc.Hashable)
    with pytest.raises(TypeError, match="unhashable type"):
        hash(table)


@pytest.mark.parametrize("weight", sorted(DCB_JSON_SHA256))
def test_dcb_json_digest_pinned(weight):
    table = dcb_table(parse_weight(weight), BasisCache())
    text = json.dumps(table.to_json_obj(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == DCB_JSON_SHA256[weight]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
