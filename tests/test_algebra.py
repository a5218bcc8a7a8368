"""Tests for the straightening algebra and quantum minors."""

import collections
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dcbasis
from dcbasis import algebra
from dcbasis.algebra import (
    AlgebraElement,
    basis_product,
    dual_pbw,
    minor_multisegment,
    quantum_minor,
    render_combination,
    unit,
)
from dcbasis.canonical import BasisCache
from dcbasis.checks import _degree_pairs
from dcbasis.laurent import (
    LaurentPoly,
    ONE,
    ZERO,
    _add_product,
    _digits,
    _finish,
    quantum_integer,
)
from dcbasis.multisegment import (
    Multisegment,
    Segment,
    b_form,
    dominates,
    linked,
    parse_multisegment,
    segment_intersection,
    segment_key,
    segment_pairing,
    segment_union,
)


def pm(text):
    return parse_multisegment(text)


def _window(max_degree, lo, hi):
    """All nonempty multisegments in [lo, hi] of bounded degree."""
    segs = [Segment(i, j) for i in range(lo, hi + 1)
            for j in range(i, hi + 1)]
    out = []
    for r in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(segs, r):
            m = Multisegment(combo)
            if m.degree() <= max_degree:
                out.append(m)
    return out


small_elements = st.lists(
    st.tuples(
        st.sampled_from(_window(2, 0, 2)),
        st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2)),
    max_size=2,
).map(lambda items: AlgebraElement(
    {m: LaurentPoly(c) for m, c in items}))


# -- linear structure --------------------------------------------------------------


def test_element_basics():
    x = dual_pbw(pm("[0]+[1]"))
    assert x.support() == [pm("[0]+[1]")]
    assert x.coefficient(pm("[0]+[1]")) == ONE
    assert x.coefficient(pm("[0,1]")).is_zero()
    assert len(x) == 1
    assert not x.is_zero()
    assert AlgebraElement().is_zero()
    assert AlgebraElement({pm("[0]"): LaurentPoly(0)}).is_zero()


def test_addition_and_scaling():
    x = dual_pbw(pm("[0]"))
    y = dual_pbw(pm("[1]"))
    assert x + y - x == y
    assert (x - x).is_zero()
    assert x.scaled(3) == 3 * x
    assert x.scaled(LaurentPoly({1: 1})) == LaurentPoly({1: 1}) * x
    assert x * 2 == x.scaled(2)
    assert (-x) + x == AlgebraElement()


def test_support_is_sorted_by_extension_key():
    x = dual_pbw(pm("[1]+[0,2]")) + dual_pbw(pm("[0]+2[1]+[2]"))
    assert x.support() == [pm("[0]+2[1]+[2]"), pm("[1]+[0,2]")]


def test_weight_and_homogeneity():
    x = dual_pbw(pm("[0]+[1]")) + dual_pbw(pm("[0,1]"))
    assert x.is_homogeneous()
    assert x.weight() == pm("[0,1]").weight()
    mixed = dual_pbw(pm("[0]")) + dual_pbw(pm("[1]"))
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.weight()
    with pytest.raises(ValueError):
        AlgebraElement().weight()


# -- multiplication -----------------------------------------------------------------


def test_unit_is_neutral():
    x = dual_pbw(pm("[1]+[0,2]"))
    assert unit() * x == x
    assert x * unit() == x
    assert unit() * unit() == unit()


def test_sorted_product_is_plain():
    assert dual_pbw(pm("[0]")) * dual_pbw(pm("[1]")) == dual_pbw(pm("[0]+[1]"))


def test_straightening_pinned():
    out_of_order = dual_pbw(pm("[1]")) * dual_pbw(pm("[0]"))
    assert out_of_order == AlgebraElement({
        pm("[0]+[1]"): LaurentPoly({1: 1}),
        pm("[0,1]"): LaurentPoly({0: 1, 2: -1}),
    })


def test_square_of_a_point_pinned():
    x = dual_pbw(pm("[1]"))
    assert x * x == AlgebraElement({pm("2[1]"): LaurentPoly({-1: 1})})


def test_product_leading_term_and_support():
    for m, n in itertools.combinations_with_replacement(_window(2, 0, 2), 2):
        product = dual_pbw(m) * dual_pbw(n)
        total = m + n
        assert product.coefficient(total) == \
            LaurentPoly.v_power(-b_form(m, n))
        for p in product.support():
            assert dominates(total, p)


def test_basis_product_matches_the_general_product():
    labels = _window(5, 0, 3)
    pairs = 0
    for m, n in itertools.product(labels, repeat=2):
        if m.degree() + n.degree() <= 5:
            assert basis_product(m, n) == dual_pbw(m) * dual_pbw(n), (m, n)
            pairs += 1
    assert pairs == 2085


def test_basis_product_labels_are_canonical_multisegments():
    """Labels built from straightened words without re-sorting equal the
    labels the public constructor builds, in segments and hash."""
    labels = _window(5, 0, 3)
    pairs = 0
    for m, n in itertools.product(labels, repeat=2):
        if m.degree() + n.degree() <= 5:
            for label in basis_product(m, n).support():
                rebuilt = Multisegment(label.segments)
                assert label == rebuilt and hash(label) == hash(rebuilt)
                assert all(type(s) is Segment for s in label.segments)
            pairs += 1
    assert pairs == 2085


# -- straightening against the LaurentPoly loop it replaced --------------------


def _old_straighten(word, scalar, out):
    """Reference straightening: LaurentPoly coefficients, cancelled words
    removed from out."""
    stack = [(word, scalar)]
    while stack:
        w, c = stack.pop()
        i = next((i for i in range(len(w) - 2, -1, -1)
                  if segment_key(w[i]) > segment_key(w[i + 1])), None)
        if i is None:
            s = out.get(w, ZERO) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
            continue
        hi, lo = w[i], w[i + 1]
        shifted = c * LaurentPoly.v_power(-segment_pairing(hi, lo))
        stack.append((w[:i] + (lo, hi) + w[i + 2:], shifted))
        if linked(hi, lo):
            u = segment_union(hi, lo)
            inter = segment_intersection(hi, lo)
            mid = (u,) if inter is None else (inter, u)
            assert (u.length ** 2 + (0 if inter is None else inter.length ** 2)
                    > hi.length ** 2 + lo.length ** 2)
            stack.append((w[:i] + mid + w[i + 2:],
                          shifted * LaurentPoly({-1: 1, 1: -1})))


def _old_from_words(words):
    """Reference conversion of sorted words: each adds its coefficient
    times v^(-binom_sum) to its label."""
    out = {}
    for w, c in words.items():
        label = Multisegment(w)
        s = out.get(label, ZERO) + c * LaurentPoly.v_power(-label.binom_sum())
        if s:
            out[label] = s
        else:
            out.pop(label, None)
    return AlgebraElement(out)


def _minor_terms(rows, cols):
    """(word, inversions) for each permutation whose generator word
    survives, as quantum_minor builds them."""
    for perm in itertools.permutations(range(len(rows))):
        word = []
        for r, p in enumerate(perm):
            if rows[r] > cols[p]:
                break
            if rows[r] < cols[p]:
                word.append(Segment(rows[r], cols[p] - 1))
        else:
            inv = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
            yield tuple(word), inv


def _old_minor(rows, cols):
    words = {}
    for word, inv in _minor_terms(rows, cols):
        _old_straighten(word, LaurentPoly.v_power(inv, (-1) ** inv), words)
    return _old_from_words(words)


def test_basis_product_matches_the_old_straightening():
    labels = _window(5, 0, 3)
    pairs = 0
    for m, n in itertools.product(labels, repeat=2):
        if m.degree() + n.degree() <= 5:
            words = {}
            _old_straighten(m.segments + n.segments,
                            LaurentPoly.v_power(m.binom_sum() + n.binom_sum()),
                            words)
            assert basis_product(m, n).items() == \
                _old_from_words(words).items(), (m, n)
            pairs += 1
    assert pairs == 2085


def test_quantum_minor_matches_the_old_straightening():
    minors = 0
    for k in range(1, 4):
        for rows in itertools.combinations(range(5), k):
            for cols in itertools.combinations(range(5), k):
                if any(i > j for i, j in zip(rows, cols)):
                    continue
                assert quantum_minor(rows, cols).items() == \
                    _old_minor(rows, cols).items(), (rows, cols)
                minors += 1
    assert minors == 115


def _straightened_terms(monkeypatch):
    """The list that each (word, inversions) quantum_minor straightens is
    appended to, in its order."""
    terms, straighten = [], algebra._straighten

    def recording(word, off, x, l1, k, out):
        terms.append((word, off))
        straighten(word, off, x, l1, k, out)

    monkeypatch.setattr(algebra, "_straighten", recording)
    return terms


def test_the_minor_walk_matches_the_walk_over_every_permutation(
        monkeypatch):
    """quantum_minor backtracks through the permutations that no generator
    kills: it straightens the same terms in the same order as the walk
    over every permutation, on every pair of index sets in a window of 7."""
    terms, pairs = _straightened_terms(monkeypatch), 0
    for k in range(8):
        for rows in itertools.combinations(range(-1, 6), k):
            for cols in itertools.combinations(range(-1, 6), k):
                terms.clear()
                quantum_minor(rows, cols)
                assert terms == list(_minor_terms(rows, cols)), (rows, cols)
                pairs += 1
    assert pairs == 3432


def test_the_minor_walk_visits_only_admissible_permutations(monkeypatch):
    # Rows 1..10 against columns 2..11: counting from 0, row r takes
    # column r - 1 and every later one, and the permutations p with
    # p(r) >= r - 1 are 2^9 of the 10!.  On a 2-core Xeon, quantum_minor
    # took 5.5 s when it walked every permutation, and takes 0.01 s.
    terms = _straightened_terms(monkeypatch)
    minor = quantum_minor(range(1, 11), range(2, 12))
    assert len(terms) == 2 ** 9
    assert len(minor.items()) == 512


# -- the packed kernel against the dict kernel it replaced ---------------------


def _dict_straighten(word, scalar, out):
    """Reference kernel on plain exponent -> coefficient dicts, the one the
    packed kernel replaced: out may keep zeros and take over scalar."""
    degree, sq = algebra._measures(word)
    stack = [(word, scalar, len(word) - 2)]
    while stack:
        w, c, i = stack.pop()
        while i >= 0:
            hs, he = hi = w[i]
            ls, le = lo = w[i + 1]
            if he > le or he == le and hs > ls:
                break
            i -= 1
        else:
            acc = out.get(w)
            if acc is None:
                got_degree, got_sq = algebra._measures(w)
                if got_degree != degree or got_sq < sq:
                    raise algebra.InvariantError(w)
                out[w] = c
            else:
                for e, x in c.items():
                    acc[e] = acc.get(e, 0) + x
            continue
        if he == le or hs == ls:
            k = 1
        else:
            k = -1 if hs == le + 1 else 0
        head, tail = w[:i], w[i + 2:]
        nxt = i + 1 if tail else i - 1
        stack.append((head + (lo, hi) + tail,
                      {e - k: x for e, x in c.items()} if k else c, nxt))
        if he > le and ls < hs <= le + 1:
            u = segment_union(hi, lo)
            inter = segment_intersection(hi, lo)
            rewritten = {e - k - 1: x for e, x in c.items()}
            for e, x in c.items():
                e += 1 - k
                rewritten[e] = rewritten.get(e, 0) - x
            if inter is None:
                stack.append((head + (u,) + tail, rewritten,
                              i if tail else i - 1))
            else:
                stack.append((head + (inter, u) + tail, rewritten, nxt))


def _dict_from_words(words):
    """Reference conversion of dict-kernel words, zero coefficients
    dropped, words kept in order."""
    out = {}
    for w, c in words.items():
        label = Multisegment(w)
        shift = label.binom_sum()
        out[label] = _finish({e - shift: x for e, x in c.items()})
    return AlgebraElement(out)


def _dict_product(x, y):
    """x * y through the dict kernel, as AlgebraElement.__mul__ computed it."""
    words = {}
    for m, cm in x.unordered_items():
        for n, cn in y.unordered_items():
            scalar = {}
            _add_product(scalar, cm, cn, m.binom_sum() + n.binom_sum())
            _dict_straighten(m.segments + n.segments, scalar, words)
    return _dict_from_words(words)


def _dict_minor(rows, cols):
    words = {}
    for word, inv in _minor_terms(rows, cols):
        _dict_straighten(word, {inv: (-1) ** inv}, words)
    return _dict_from_words(words)


def _same(x, y):
    """Equal in values and in the order of their terms."""
    return list(x.unordered_items()) == list(y.unordered_items())


def _products_against_the_dict_kernel():
    """(products, minors) compared: every product of two basis vectors of
    the window and of two corrected basis vectors of degree sum <= 5, and
    every nonzero minor with indices in 0..4."""
    cache = BasisCache()
    products = 0
    for m, n in _degree_pairs(5):
        for x, y in ((dual_pbw(m), dual_pbw(n)),
                     (cache.dual_canonical(m), cache.dual_canonical(n))):
            assert _same(x * y, _dict_product(x, y)), (m, n)
            assert _same(y * x, _dict_product(y, x)), (n, m)
            products += 2
        assert _same(basis_product(m, n), _dict_product(dual_pbw(m),
                                                        dual_pbw(n))), (m, n)
    minors = 0
    for k in range(1, 5):
        for rows in itertools.combinations(range(5), k):
            for cols in itertools.combinations(range(5), k):
                if all(i <= j for i, j in zip(rows, cols)):
                    assert _same(quantum_minor(rows, cols),
                                 _dict_minor(rows, cols)), (rows, cols)
                    minors += 1
    return products, minors


def test_products_match_the_dict_kernel():
    assert _products_against_the_dict_kernel() == (9908, 130)


def test_products_widen_from_a_small_width(monkeypatch):
    """Started at width 4, where a bound must stay below 4, products widen
    and still match the dict kernel."""
    seen = _record_words(monkeypatch)
    normal_form = algebra._normal_form
    monkeypatch.setattr(algebra, "_normal_form",
                        lambda fill, k=16: normal_form(fill, 4))
    assert _products_against_the_dict_kernel() == (9908, 130)
    widths = collections.Counter(k for _, k in seen)
    assert widths[4] and widths[8]


def test_a_product_fills_its_words_at_most_twice(monkeypatch):
    """A product whose word bound needs four doublings straightens at the
    start width, then once at the first width that fits."""
    widths = []
    normal_form = algebra._normal_form

    def counting(fill, *args):
        def counted(words, k):
            widths.append(k)
            fill(words, k)
        return normal_form(counted, *args)

    monkeypatch.setattr(algebra, "_normal_form", counting)
    g = BasisCache().dual_canonical(pm("[0]+[1]+[1,2]+[2,3]"))
    big = 10**40 + 1
    square = g * g
    assert widths == [16]
    assert g.scaled(big) * g == square.scaled(big)
    assert widths == [16, 16, 256]


# -- the straightening kernel against the rescanning one it replaced -----------


def _rightmost_descent(word):
    """Index of the rightmost adjacent out-of-order pair, None if sorted."""
    for i in range(len(word) - 2, -1, -1):
        if segment_key(word[i]) > segment_key(word[i + 1]):
            return i
    return None


def _add_shifted(acc, c, shift, sign):
    """acc += sign * v^shift * c on plain exponent -> coefficient dicts,
    keeping zeros."""
    for e, x in c.items():
        acc[e + shift] = acc.get(e + shift, 0) + sign * x


def _rescanning_straighten(word, scalar, out):
    """Reference kernel on plain coefficient dicts: scans the whole word for
    its rightmost descent after every rewrite, and calls the segment
    functions."""
    degree, sq = algebra._measures(word)
    stack = [(word, scalar)]
    while stack:
        w, c = stack.pop()
        i = _rightmost_descent(w)
        if i is None:
            acc = out.get(w)
            if acc is None:
                got_degree, got_sq = algebra._measures(w)
                if got_degree != degree or got_sq < sq:
                    raise algebra.InvariantError(w)
                out[w] = c
            else:
                _add_shifted(acc, c, 0, 1)
            continue
        hi, lo = w[i], w[i + 1]
        k = segment_pairing(hi, lo)
        shifted = {e - k: x for e, x in c.items()} if k else c
        stack.append((w[:i] + (lo, hi) + w[i + 2:], shifted))
        if linked(hi, lo):
            u = segment_union(hi, lo)
            inter = segment_intersection(hi, lo)
            mid = (u,) if inter is None else (inter, u)
            rewritten = {}  # c v^-k (v^-1 - v)
            _add_shifted(rewritten, c, -k - 1, 1)
            _add_shifted(rewritten, c, -k + 1, -1)
            stack.append((w[:i] + mid + w[i + 2:], rewritten))


def _decoded(words, k):
    """Each packed finished word's coefficient as an exponent ->
    coefficient dict, with its bound."""
    return {w: (_digits(x, off, k)[0], l1)
            for w, (off, x, l1) in words.items()}


def test_straightening_kernel_matches_the_rescanning_one():
    """Same finished words in the same order, and the same coefficients, on
    every concatenated word of a label pair on [0, 5] of total degree <= 6.
    The two-term scalar makes rewritten coefficients cancel, so raw zeros
    occur: the packed kernel keeps the word and drops the zero digits."""
    labels = _window(5, 0, 5)
    k = 16
    pairs = words = 0
    for m, n in itertools.product(labels, repeat=2):
        if m.degree() + n.degree() <= 6:
            word = m.segments + n.segments
            b = m.binom_sum() + n.binom_sum()
            new, old = {}, {}
            algebra._straighten(word, b, 1 + (1 << 2 * k), 2, k, new)
            _rescanning_straighten(word, {b: 1, b + 2: 1}, old)
            assert list(new) == list(old), (m, n)
            assert {w: c for w, (c, _) in _decoded(new, k).items()} == {
                w: {e: x for e, x in c.items() if x}
                for w, c in old.items()}, (m, n)
            pairs += 1
            words += len(new)
    assert (pairs, words) == (41308, 64205)


def _record_words(monkeypatch):
    """Patch _from_words to keep each (words, k) it decodes."""
    seen = []
    from_words = algebra._from_words

    def recording(words, k):
        seen.append((dict(words), k))
        return from_words(words, k)

    monkeypatch.setattr(algebra, "_from_words", recording)
    return seen


def test_word_bounds_cover_the_true_norms(monkeypatch):
    """The bound that gates decoding is at least the L1 norm of every
    finished word's coefficient, on the window label pairs and on the
    quantum minors with indices up to 4."""
    seen = _record_words(monkeypatch)
    labels = _window(5, 0, 5)
    pairs = 0
    for m, n in itertools.product(labels, repeat=2):
        if m.degree() + n.degree() <= 6:
            basis_product(m, n)
            pairs += 1
    minors = 0
    for k in range(1, 5):
        for rows in itertools.combinations(range(5), k):
            for cols in itertools.combinations(range(5), k):
                if all(i <= j for i, j in zip(rows, cols)):
                    quantum_minor(rows, cols)
                    minors += 1
    assert (pairs, minors) == (41308, 130)
    words = tight = 0
    for found, k in seen:
        for c, l1 in _decoded(found, k).values():
            norm = sum(abs(x) for x in c.values())
            assert l1 >= norm
            words += 1
            tight += l1 == norm
    assert words > pairs and tight
# segment_union patched to drop the top of the union, so the linked rewrite
# of [1]*[0] yields the one-point word [0]: degree 1 instead of 2.
_SHORT_UNION = """
import sys
from dcbasis import algebra
from dcbasis.multisegment import Segment, parse_multisegment

algebra.segment_union = lambda a, b: Segment(min(a.start, b.start),
                                             min(a.start, b.start))
print("optimize", sys.flags.optimize)
try:
    algebra.basis_product(parse_multisegment("[1]"), parse_multisegment("[0]"))
    print("no error")
except algebra.InvariantError as exc:
    print(exc)
"""


def test_straightening_check_survives_python_O():
    src = str(Path(dcbasis.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHORT_UNION], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "straightening [1]*[0] gave [0] of degree 1 and squared-length sum "
        "1: it must keep degree 2 and a sum of at least 2",
    ]


def test_product_is_homogeneous():
    m, n = pm("[1]+[2,3]"), pm("[2]+[3,4]")
    product = dual_pbw(m) * dual_pbw(n)
    assert product.is_homogeneous()
    combined = dict(m.weight().items())
    for p, c in n.weight().items():
        combined[p] = combined.get(p, 0) + c
    from dcbasis.multisegment import Weight
    assert product.weight() == Weight(combined)


@settings(max_examples=40)
@given(small_elements, small_elements, small_elements)
def test_multiplication_is_associative_and_bilinear(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z


# -- rendering ------------------------------------------------------------------------


def test_render_combination_pinned():
    items = [(pm("[0]+[1]"), ONE), (pm("[0,1]"), LaurentPoly({1: -1}))]
    assert render_combination(items, "E*") == "E*([0]+[1]) - v E*([0,1])"
    assert render_combination([], "E*") == "0"
    assert render_combination([(pm("[1]"), LaurentPoly(-1))], "E*") == \
        "-E*([1])"
    assert render_combination([(pm("[1]"), quantum_integer(2))], "G*") == \
        "(v + v^-1) G*([1])"
    assert render_combination([(pm("[1]"), LaurentPoly({2: 3}))], "E*") == \
        "3*v^2 E*([1])"


def test_str_uses_dual_pbw_symbol():
    x = dual_pbw(pm("[0]+[1]")) - dual_pbw(pm("[0,1]")).scaled(LaurentPoly({1: 1}))
    assert str(x) == "E*([0]+[1]) - v E*([0,1])"


# -- quantum minors ---------------------------------------------------------------------


def test_minor_index_validation():
    with pytest.raises(ValueError):
        quantum_minor((1, 2), (1,))
    with pytest.raises(ValueError):
        quantum_minor((2, 1), (1, 2))
    with pytest.raises(ValueError):
        quantum_minor((1, 2), (2, 2))


def test_minor_zero_law():
    assert quantum_minor((2,), (1,)).is_zero()
    assert quantum_minor((1, 3), (2, 4)).is_zero() is False
    assert quantum_minor((0, 3), (1, 2)).is_zero()


def test_minor_pinned_small():
    assert quantum_minor((1,), (3,)) == dual_pbw(pm("[1,2]"))
    assert quantum_minor((1, 2), (1, 2)) == unit()
    assert quantum_minor((1, 2), (2, 3)) == AlgebraElement({
        pm("[1]+[2]"): ONE,
        pm("[1,2]"): LaurentPoly({1: -1}),
    })
    assert quantum_minor((-1, 0), (1, 4)) == AlgebraElement({
        pm("[-1,0]+[0,3]"): ONE,
        pm("[0]+[-1,3]"): LaurentPoly({1: -1}),
    })


def test_minor_factorizes_at_equal_indices():
    indices = range(1, 5)
    for k in range(1, 4):
        for rows in itertools.combinations(indices, k):
            for cols in itertools.combinations(indices, k):
                if any(i > j for i, j in zip(rows, cols)):
                    continue
                pivots = [r for r in range(k) if rows[r] == cols[r]]
                if not pivots:
                    continue
                r = pivots[0]
                assert quantum_minor(rows, cols) == \
                    quantum_minor(rows[:r], cols[:r]) * \
                    quantum_minor(rows[r + 1:], cols[r + 1:])


def test_minor_multisegment_pinned():
    assert minor_multisegment((1, 2), (2, 3)) == pm("[1]+[2]")
    assert minor_multisegment((-1, 0), (1, 4)) == pm("[-1,0]+[0,3]")
    assert minor_multisegment((1, 2), (1, 3)) == pm("[2]")
    assert minor_multisegment((1, 2, 3), (2, 3, 5)) == pm("[1]+[2]+[3,4]")
    with pytest.raises(ValueError):
        minor_multisegment((2,), (1,))
    with pytest.raises(ValueError):
        minor_multisegment((1, 2), (3,))


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
