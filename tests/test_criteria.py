"""Tests for co-finite sets, separation, and the irreducibility criteria."""

import itertools
import time
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from dcbasis.criteria import (
    CoFiniteSet,
    Partition,
    evaluation_multisegment,
    evaluation_set,
    hook_irreducible,
    irreducible_family,
    irreducible_pair,
    join_related,
    main1_pattern,
    main1_witness,
    parse_partition,
    separated,
    strongly_separated,
)
from dcbasis.checks import partitions_up_to
from dcbasis.criteria import _differences, _inside, _verdict
from dcbasis.multisegment import Multisegment, Segment, parse_multisegment

cofinite_sets = st.builds(
    CoFiniteSet,
    st.integers(-5, 5),
    st.lists(st.integers(-5, 12), max_size=4),
)

partitions = st.lists(st.integers(1, 4), max_size=3).map(
    lambda parts: Partition(sorted(parts, reverse=True)))

shifts = st.integers(-6, 6)


# -- co-finite sets ------------------------------------------------------------


def test_cofinite_canonical_form():
    s = CoFiniteSet(0, [1, 2, 5])
    assert s.threshold == 2
    assert s.extras == (5,)
    assert CoFiniteSet(0, [1]) == CoFiniteSet(1)
    assert CoFiniteSet(3, [1, 2, 3]) == CoFiniteSet(3)
    assert CoFiniteSet(0, [4, 2, 2]).extras == (2, 4)


def test_cofinite_membership():
    s = CoFiniteSet(-2, [1, 4])
    assert -2 in s and -100 in s
    assert 1 in s and 4 in s
    assert -1 not in s and 0 not in s and 2 not in s and 5 not in s


def test_cofinite_str():
    assert str(CoFiniteSet(0, [2])) == "{..<=0,2}"
    assert str(CoFiniteSet(-3)) == "{..<=-3}"
    assert repr(CoFiniteSet(1, [3, 5])) == "CoFiniteSet(1, [3, 5])"


def _old_canonical(threshold, extras):
    """The tuple constructor: absorb each extra equal to threshold + 1."""
    t = threshold
    xs = sorted({x for x in extras if x > t})
    while xs and xs[0] == t + 1:
        t += 1
        xs.pop(0)
    return t, tuple(xs)


@given(st.integers(-6, 6), st.lists(st.integers(-6, 13), max_size=5))
def test_cofinite_bitset_matches_the_tuple_constructor(threshold, extras):
    s = CoFiniteSet(threshold, extras)
    t, xs = _old_canonical(threshold, extras)
    assert (s.threshold, s.extras) == (t, xs)
    assert s == CoFiniteSet(t, xs)
    assert hash(s) == hash(CoFiniteSet(t, xs))
    assert str(s) == "{..<=%d%s}" % (t, "".join(f",{x}" for x in xs))
    assert all((x in s) is (x <= t or x in xs) for x in range(-9, 17))


def test_hashing_a_far_extra_does_not_walk_its_span():
    far, twin = CoFiniteSet(0, [10**7]), CoFiniteSet(0, [10**7])
    tracemalloc.start()
    try:
        found = twin in {far}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found
    # A binary string of the bitset would take 10 MB.
    assert peak < 1 << 16


def _set_functions_match_the_listing(a, b):
    """The listed differences a - b and b - a, after checking separated
    and strongly_separated against the list forms of both relations."""
    d_ab, d_ba = _old_difference(a, b), _old_difference(b, a)
    assert separated(a, b) is _old_join_related(d_ab, d_ba)
    assert strongly_separated(a, b) is _wholly_below(d_ab, d_ba)
    return d_ab, d_ba


def test_difference_pins():
    a = CoFiniteSet(0)
    b = CoFiniteSet(-2)
    assert _set_functions_match_the_listing(a, b) == ((-1, 0), ())
    i_set = CoFiniteSet(-2, [1, 4])
    j_set = CoFiniteSet(-4, [-1, 0, 1])
    assert _set_functions_match_the_listing(i_set, j_set) == (
        (-3, -2, 4), (-1, 0))


@given(cofinite_sets, cofinite_sets)
def test_difference_matches_brute_force(a, b):
    lo = min(a.threshold, b.threshold) - 2
    hi = max((a.threshold, b.threshold) + a.extras + b.extras) + 2
    expected = tuple(x for x in range(lo, hi + 1)
                     if x in a and x not in b)
    assert _set_functions_match_the_listing(a, b)[0] == expected


@given(cofinite_sets)
def test_difference_with_self_is_empty(a):
    assert _set_functions_match_the_listing(a, a) == ((), ())
    assert separated(a, a) and strongly_separated(a, a)


# -- evaluation data -----------------------------------------------------------


def test_evaluation_set_pins():
    assert evaluation_set(Partition([4, 2]), 0) == CoFiniteSet(-2, [1, 4])
    assert evaluation_set(Partition([2, 2, 1]), 0) == CoFiniteSet(-3, [-1, 1, 2])
    assert evaluation_set(Partition([2, 2, 1]), 7) == CoFiniteSet(4, [6, 8, 9])
    assert evaluation_set(Partition(), 3) == CoFiniteSet(3)
    assert evaluation_set(Partition([1]), 0) == CoFiniteSet(-1, [1])
    assert evaluation_set(Partition([1, 1]), 0) == CoFiniteSet(-2, [0, 1])


@given(partitions, shifts)
def test_evaluation_extras_strictly_increase(alpha, shift):
    s = evaluation_set(alpha, shift)
    assert all(a < b for a, b in zip(s.extras, s.extras[1:]))
    assert all(x > s.threshold + 1 for x in s.extras)


@given(partitions, shifts, st.integers(-3, 3))
def test_evaluation_set_translates_with_the_shift(alpha, shift, t):
    moved = evaluation_set(alpha, shift + t)
    base = evaluation_set(alpha, shift)
    assert moved.threshold == base.threshold + t
    assert moved.extras == tuple(x + t for x in base.extras)


def test_evaluation_multisegment_pins():
    assert (evaluation_multisegment(Partition([4, 2]), 0)
            == parse_multisegment("[-1,0]+[0,3]"))
    assert (evaluation_multisegment(Partition([2, 2, 1]), 1)
            == parse_multisegment("[-1]+[0,1]+[1,2]"))
    assert evaluation_multisegment(Partition(), 5) == parse_multisegment("[]")


def test_evaluation_multisegment_is_built_sorted_exhaustive():
    """All 97 partitions of size 0-9 at every shift in -8..8: the label
    built without a sort equals the one Multisegment sorts and checks."""
    for alpha in [Partition()] + partitions_up_to(9):
        for shift in range(-8, 9):
            m = evaluation_multisegment(alpha, shift)
            rows = Multisegment(
                Segment(shift - i + 1, shift - i + alpha[i - 1])
                for i in range(1, len(alpha) + 1))
            assert m.segments == rows.segments
            assert m == rows and hash(m) == hash(rows)
            assert str(m) == str(rows)


@given(partitions, shifts)
def test_evaluation_multisegment_has_one_row_per_part(alpha, shift):
    m = evaluation_multisegment(alpha, shift)
    assert len(m) == len(alpha)
    assert m.degree() == alpha.size()


# -- separation ----------------------------------------------------------------


def test_join_related_pins():
    assert join_related({0, 4}, {1, 3}) is True
    assert join_related({1, 3}, {0, 4}) is True
    assert join_related({2}, {1, 3}) is False
    assert join_related(set(), {1, 2, 3}) is True
    assert join_related({5}, set()) is True
    with pytest.raises(ValueError):
        join_related({1, 2}, {2, 3})


def test_separation_sweep_with_two_extras_each():
    i_set = CoFiniteSet(-1, [1, 5])
    for a in range(-4, 5):
        j_set = CoFiniteSet(a, [a + 2, a + 4])
        assert separated(i_set, j_set) is (a % 2 != 0)
        if a % 2 != 0:
            assert strongly_separated(i_set, j_set)


@given(cofinite_sets, cofinite_sets)
def test_strong_separation_implies_separation(a, b):
    if strongly_separated(a, b):
        assert separated(a, b)


@given(cofinite_sets, cofinite_sets)
def test_separation_is_symmetric(a, b):
    assert separated(a, b) == separated(b, a)
    assert strongly_separated(a, b) == strongly_separated(b, a)


@given(partitions, partitions)
def test_far_shifts_are_strongly_separated(alpha, beta):
    assert strongly_separated(
        evaluation_set(alpha, 0), evaluation_set(beta, 8))


# -- the pattern criterion -------------------------------------------------------


def test_witness_pins():
    assert main1_witness(Partition([5, 4, 2, 1]), 0,
                         Partition([5, 4, 2, 1]), 8) == (-3, 5, 6)
    assert main1_witness(Partition([3, 1]), 0, Partition([2]), 0) == (-1, 0, 2, 3)
    assert main1_witness(Partition([2]), 0, Partition([1, 1]), 2) is None


def test_witness_entries_interleave():
    w = main1_witness(Partition([5, 4, 2, 1]), 0, Partition([5, 4, 2, 1]), 8)
    assert all(a < b for a, b in zip(w, w[1:]))


@given(partitions, shifts, partitions, shifts)
def test_pattern_criterion_agrees_with_separation(alpha, a, beta, b):
    assert main1_pattern(alpha, a, beta, b) == (
        not irreducible_pair(alpha, a, beta, b))


@given(partitions, shifts, partitions, shifts)
def test_pair_criterion_is_symmetric(alpha, a, beta, b):
    assert irreducible_pair(alpha, a, beta, b) == \
        irreducible_pair(beta, b, alpha, a)


@given(partitions, shifts, partitions, shifts, st.integers(-3, 3))
def test_pair_criterion_is_translation_invariant(alpha, a, beta, b, t):
    assert irreducible_pair(alpha, a, beta, b) == \
        irreducible_pair(alpha, a + t, beta, b + t)


@given(partitions, shifts, partitions, shifts)
def test_difference_cardinalities(alpha, a, beta, b):
    d_ij, d_ji = _set_functions_match_the_listing(
        evaluation_set(alpha, a), evaluation_set(beta, b))
    assert len(d_ij) - len(d_ji) == a - b


def test_reducible_shift_scan():
    alpha = Partition([4, 2])
    beta = Partition([2, 2, 1])
    reducible = {d for d in range(-8, 9)
                 if not irreducible_pair(alpha, 0, beta, d)}
    assert reducible == {-3, -2, -1, 1, 3, 4, 6}


# -- the set-arithmetic fast path against the scanning oracle ------------------


def _old_difference(a, b):
    """self minus other by scanning every integer between the least
    threshold and the largest element named by either set."""
    lo = min(a.threshold, b.threshold)
    hi = max((a.threshold, b.threshold) + a.extras + b.extras)
    return tuple(x for x in range(lo + 1, hi + 1) if x in a and x not in b)


def _wholly_below(d_ij, d_ji):
    """strongly_separated on the listed differences."""
    return not d_ij or not d_ji or d_ij[-1] < d_ji[0] or d_ji[-1] < d_ij[0]


def _old_evaluation_set(alpha, shift):
    """The evaluation set through the normalising public constructor."""
    r = len(alpha)
    extras = [shift - r + k + alpha[r - k] for k in range(1, r + 1)]
    return CoFiniteSet(shift - r, extras)


def _old_join_related(a, b):
    """Join relation on sorted lists, testing each side as the smaller."""
    xs, ys = sorted(set(a)), sorted(set(b))
    if set(xs) & set(ys):
        raise ValueError("join relation needs disjoint sets")

    def fits(small, big):
        if not big:
            return True
        return all(x < big[0] or x > big[-1] for x in small)

    if len(xs) <= len(ys) and fits(xs, ys):
        return True
    return len(ys) <= len(xs) and fits(ys, xs)


def _three_pattern(outer, inner):
    """Least (i, j, k) with i < j < k, i and k outer, j inner, else None."""
    for j in inner:
        below = [i for i in outer if i < j]
        above = [k for k in outer if k > j]
        if below and above:
            return (below[0], j, above[0])
    return None


def _four_pattern(first, second):
    """Least i < j < k < l with i, k from first and j, l from second."""
    for j, l in itertools.combinations(second, 2):
        below = [i for i in first if i < j]
        between = [k for k in first if j < k < l]
        if below and between:
            return (below[0], j, between[0], l)
    return None


def _old_witness(d_ij, d_ji, c):
    if c > 0:
        return _three_pattern(d_ij, d_ji)
    if c < 0:
        return _three_pattern(d_ji, d_ij)
    return _four_pattern(d_ij, d_ji) or _four_pattern(d_ji, d_ij)


def _old_differences(alpha, a, beta, b):
    """_differences row by row: each row of each partition sets one bit."""
    p, q = alpha.parts, beta.parts
    base = min(a - len(p), b - len(q))
    i_bits = (1 << (a - len(p) - base)) - 1
    for i, part in enumerate(p, 1):
        i_bits |= 1 << (a - i + part - base)
    j_bits = (1 << (b - len(q) - base)) - 1
    for i, part in enumerate(q, 1):
        j_bits |= 1 << (b - i + part - base)
    return i_bits & ~j_bits, j_bits & ~i_bits, base


def test_beta_set_bits():
    assert Partition([5, 4, 2, 1])._bits == sum(1 << k for k in (1, 3, 6, 8))
    for alpha in [Partition()] + partitions_up_to(9):
        extras = evaluation_set(alpha, len(alpha) - 1).extras
        assert alpha._bits == sum(1 << x for x in extras)


def test_set_arithmetic_matches_the_scanning_oracle_exhaustive():
    """All 97 partitions of size 0-9, squared, at every shift in -8..8:
    159,953 triples.  Both evaluation sets, both differences, both
    set-level relations, the verdict and the witness, apart and from
    _verdict, match the oracle at every triple."""
    parts = [Partition()] + partitions_up_to(9)
    shifts = range(-8, 9)
    assert len(parts) == 97
    old = {(alpha, s): _old_evaluation_set(alpha, s)
           for alpha in parts for s in shifts}
    triples = 0
    for alpha in parts:
        i_old, i_set = old[alpha, 0], evaluation_set(alpha, 0)
        for beta in parts:
            for b in shifts:
                j_old, j_set = old[beta, b], evaluation_set(beta, b)
                assert (i_set.threshold, i_set.extras,
                        j_set.threshold, j_set.extras) == (
                    i_old.threshold, i_old.extras,
                    j_old.threshold, j_old.extras)
                d_ij = _old_difference(i_old, j_old)
                d_ji = _old_difference(j_old, i_old)
                assert separated(i_set, j_set) is \
                    _old_join_related(d_ij, d_ji)
                assert strongly_separated(i_set, j_set) is \
                    _wholly_below(d_ij, d_ji)
                d = _differences(-len(alpha), alpha._bits,
                                 b - len(beta), beta._bits)
                if d is None:
                    assert not d_ij or not d_ji
                else:
                    assert d == _old_differences(alpha, 0, beta, b)
                assert (irreducible_pair(alpha, 0, beta, b)
                        is _old_join_related(d_ij, d_ji))
                assert main1_witness(alpha, 0, beta, b) == \
                    _old_witness(d_ij, d_ji, -b)
                assert _verdict(alpha, 0, beta, b) == (
                    _old_join_related(d_ij, d_ji), _old_witness(d_ij, d_ji, -b))
                triples += 1
    assert triples == 159_953


def test_far_apart_cutoff_matches_the_scanning_oracle():
    """Partitions of size 0-6, a in {-3, 0, 4}, b in -25..25: 137,700
    triples on both sides of the far apart cutoff.  The verdict, the
    witness and _verdict match the oracle, and where the far apart rule
    holds one difference is empty."""
    parts = [Partition()] + partitions_up_to(6)
    triples = 0
    for alpha in parts:
        for a in (-3, 0, 4):
            i_set = _old_evaluation_set(alpha, a)
            for beta in parts:
                for b in range(-25, 26):
                    j_set = _old_evaluation_set(beta, b)
                    d_ij = _old_difference(i_set, j_set)
                    d_ji = _old_difference(j_set, i_set)
                    joined = _old_join_related(d_ij, d_ji)
                    witness = _old_witness(d_ij, d_ji, a - b)
                    assert irreducible_pair(alpha, a, beta, b) is joined
                    assert main1_witness(alpha, a, beta, b) == witness
                    assert _verdict(alpha, a, beta, b) == (joined, witness)
                    if _differences(a - len(alpha), alpha._bits,
                                    b - len(beta), beta._bits) is None:
                        assert not d_ij or not d_ji
                    triples += 1
    assert triples == 137_700


@pytest.mark.parametrize("b", [10**18, -10**18])
def test_far_apart_shifts_are_irreducible(b):
    for alpha, beta in ((Partition([3]), Partition([3])),
                        (Partition([4, 2]), Partition([2, 2, 1])),
                        (Partition(), Partition([5, 4, 2, 1]))):
        assert irreducible_pair(alpha, 0, beta, b) is True
        assert main1_witness(alpha, 0, beta, b) is None
        assert main1_pattern(alpha, 0, beta, b) is False
        assert _verdict(alpha, 0, beta, b) == (True, None)
        assert _verdict(beta, b, alpha, 0) == (True, None)
        assert irreducible_pair(alpha, -b, beta, b) is True
    assert irreducible_family(
        [(Partition([2]), 0), (Partition([1, 1]), b), (Partition([3]), -b)])


def test_far_apart_verdicts_allocate_little():
    """The memory of a verdict is bounded by the partitions: at shift 10**7
    a difference bitset alone would take 1.25 MB."""
    alpha, beta = Partition([4, 2]), Partition([2, 2, 1])
    calls = [(verdict, (alpha, 0, beta, b))
             for verdict in (irreducible_pair, main1_witness, _verdict)
             for b in (10**7, -10**7)]
    calls += [(relation, (evaluation_set(alpha, 0), evaluation_set(beta, b)))
              for relation in (separated, strongly_separated)
              for b in (10**7, -10**7, 10**18)]
    for function, args in calls:
        tracemalloc.start()
        try:
            function(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, (function.__name__, args, peak)


def test_set_relations_at_a_far_shift_return_at_once():
    """Listing either difference would take 10**18 steps; the best of three
    timings keeps a scheduler pause from failing the bound."""
    i_set = evaluation_set(Partition([3]), 0)
    j_set = evaluation_set(Partition([3]), 10**18)
    for relation in (separated, strongly_separated):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            assert relation(i_set, j_set) is True
            assert relation(j_set, i_set) is True
            best = min(best, time.perf_counter() - start)
        assert best < 0.01, (relation.__name__, best)


def test_join_related_builds_wide_bitsets_in_one_pass():
    start = time.perf_counter()
    assert join_related(range(0, 400000, 2), range(1, 400000, 2)) is False
    assert time.perf_counter() - start < 1.0


@given(st.sets(st.integers(-6, 6), max_size=5),
       st.sets(st.integers(-6, 6), max_size=5))
def test_join_related_matches_the_sorted_oracle(a, b):
    if a & b:
        with pytest.raises(ValueError):
            join_related(a, b)
    else:
        assert join_related(a, b) is _old_join_related(a, b)


def _decode(bits, base):
    """The integers a difference bitset over base stands for, ascending."""
    return tuple(base + 1 + k for k in range(bits.bit_length()) if bits >> k & 1)


wide_partitions = st.lists(st.integers(1, 100), max_size=30).map(
    lambda parts: Partition(sorted(parts, reverse=True)))
wide_shifts = st.integers(-300, 300)


@given(wide_partitions, wide_shifts, wide_partitions, wide_shifts)
@example(Partition([100] * 30), 300, Partition([1] * 30), -300)
@example(Partition([100] * 30), 0, Partition([99] * 30), 0)
@example(Partition([98, 86, 12]), 7, Partition([26, 14]), 7)
def test_bitsets_match_the_tuple_oracle_beyond_a_machine_word(
        alpha, a, beta, b):
    i_set, j_set = evaluation_set(alpha, a), evaluation_set(beta, b)
    d_ij, d_ji = _set_functions_match_the_listing(i_set, j_set)
    d = _differences(a - len(alpha), alpha._bits, b - len(beta), beta._bits)
    if d is None:
        assert not d_ij or not d_ji
    else:
        x, y, base = d
        assert (_decode(x, base), _decode(y, base)) == (d_ij, d_ji)
    assert irreducible_pair(alpha, a, beta, b) is join_related(d_ij, d_ji)
    assert main1_witness(alpha, a, beta, b) == _old_witness(d_ij, d_ji, a - b)


def test_verdict_edge_cases():
    empty, row = Partition(), Partition([4])
    # full sets (no extras) are always nested: far apart
    assert _differences(0, 0, 0, 0) is None
    assert _differences(2, 0, -1, 0) is None
    # the threshold gap fills the low bits: (-inf, 2] against
    # (-inf, -1] + {3}
    assert _differences(2, 0, -1, 0b1000) == (0b111, 0b1000, -1)
    assert _verdict(empty, 2, empty, -1) == (True, None)
    assert _verdict(empty, 0, Partition([3, 1]), 1) == (True, None)
    # equal modules: both differences empty; far apart only as full sets
    assert _verdict(empty, 5, empty, 5) == (True, None)
    for alpha, s in ((row, 0), (Partition([5, 4, 2, 1]), -7)):
        x, y, _ = _differences(s - len(alpha), alpha._bits,
                               s - len(alpha), alpha._bits)
        assert (x, y) == (0, 0)
        assert _verdict(alpha, s, alpha, s) == (True, None)
        i_set = evaluation_set(alpha, s)
        assert separated(i_set, i_set) and strongly_separated(i_set, i_set)
    # one-element differences, on either side and either way round
    assert _verdict(empty, 0, row, 0) == (True, None)
    assert _verdict(row, 0, empty, 0) == (True, None)
    assert _verdict(row, 0, row, -4) == (False, (-4, 0, 4))
    assert _verdict(row, 0, row, 1) == (False, (0, 4, 5))
    # a one-bit span has no interior, whichever side of it the other bit is
    assert _inside(1 << 5, 1 << 3) is False
    assert _inside(1 << 1, 1 << 3) is False
    assert _inside(0b0100, 0b1001) is True
    assert _inside(0b1001, 0b0110) is False


# -- hooks and families -----------------------------------------------------------


def test_conjugate_and_hooks():
    alpha = Partition([5, 4, 2, 1])
    assert alpha.conjugate() == Partition([4, 3, 2, 2, 1])
    assert alpha.conjugate().conjugate() == alpha
    hooks = alpha.hook_lengths()
    assert hooks == (8, 6, 6, 4, 4, 3, 3, 2, 1, 1, 1, 1)
    assert Partition([1]).hook_lengths() == (1,)
    assert Partition().hook_lengths() == ()


def test_hook_irreducible_pins():
    alpha = Partition([5, 4, 2, 1])
    assert hook_irreducible(alpha, 8) is False
    assert hook_irreducible(alpha, -8) is False
    assert hook_irreducible(alpha, 7) is True
    assert hook_irreducible(alpha, 0) is True
    assert hook_irreducible(alpha, 13) is True


@given(partitions, st.integers(-8, 8))
def test_hook_criterion_agrees_with_the_pair_criterion(alpha, shift):
    assert hook_irreducible(alpha, shift) == \
        irreducible_pair(alpha, 0, alpha, shift)


def test_family_pins():
    far = [(Partition([2]), 0), (Partition([1, 1]), 8), (Partition([3]), -8)]
    assert irreducible_family(far) is True
    clash = [(Partition([4, 2]), 0), (Partition([2, 2, 1]), 1)]
    assert irreducible_family(clash) is False
    assert irreducible_family([]) is True
    assert irreducible_family([(Partition([3, 1]), 2)]) is True


@given(st.lists(st.tuples(partitions, shifts), max_size=3))
def test_family_criterion_is_pairwise(family):
    assert irreducible_family(family) == all(
        irreducible_pair(a1, s1, a2, s2)
        for (a1, s1), (a2, s2) in itertools.combinations(family, 2))


# -- partition parsing ------------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([3, -1])
    with pytest.raises(ValueError):
        Partition([0])
    with pytest.raises(ValueError):
        Partition([1, 3])
    assert Partition([3, 3, 1]).parts == (3, 3, 1)
    assert Partition([]).parts == ()


def test_partition_accessors():
    alpha = Partition([5, 4, 2, 1])
    assert len(alpha) == 4
    assert alpha.size() == 12
    assert alpha[0] == 5 and alpha[3] == 1
    assert list(alpha) == [5, 4, 2, 1]
    assert str(alpha) == "5,4,2,1"


def test_parse_partition():
    assert parse_partition("5,4,2,1") == Partition([5, 4, 2, 1])
    assert parse_partition(" 3 , 2 ") == Partition([3, 2])
    with pytest.raises(ValueError, match="empty partition"):
        parse_partition("  ")
    with pytest.raises(ValueError, match="malformed partition"):
        parse_partition("3,-1")
    with pytest.raises(ValueError, match="malformed partition"):
        parse_partition("a,b")


@given(partitions)
def test_parse_round_trip(alpha):
    if alpha.parts:
        assert parse_partition(str(alpha)) == alpha


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
