"""Tests for segments, multisegments, weights, and the dominance order."""

import heapq
import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dcbasis.checks import window_multisegments, window_weights
from dcbasis.multisegment import (
    EMPTY,
    _generate,
    class_exceeds,
    Multisegment,
    Segment,
    Weight,
    b_form,
    cartan_pairing,
    dominates,
    enumerate_by_weight,
    linked,
    parse_multisegment,
    parse_segment,
    parse_weight,
    segment_intersection,
    segment_key,
    segment_pairing,
    segment_union,
)

segments = st.tuples(st.integers(-4, 4), st.integers(0, 4)).map(
    lambda t: Segment(t[0], t[0] + t[1]))

multisegments = st.lists(segments, max_size=5).map(Multisegment)

WORKED_WEIGHT = Weight({0: 1, 1: 2, 2: 1})
WORKED_LABELS = [
    "[0]+2[1]+[2]",
    "[0]+[1]+[1,2]",
    "[0,1]+[1]+[2]",
    "[0,1]+[1,2]",
    "[1]+[0,2]",
]


# -- segments -------------------------------------------------------------------


def test_segment_basics():
    s = Segment(1, 3)
    assert s.length == 3
    assert str(s) == "[1,3]"
    assert str(Segment(2, 2)) == "[2]"
    assert segment_key(s) == (3, 1)


def test_segment_key_orders_by_end_then_start():
    assert sorted([Segment(2, 2), Segment(0, 1)], key=segment_key) == \
        [Segment(0, 1), Segment(2, 2)]
    assert sorted([Segment(1, 2), Segment(0, 2)], key=segment_key) == \
        [Segment(0, 2), Segment(1, 2)]
    assert sorted([Segment(1, 2), Segment(1, 2)], key=segment_key) == \
        [Segment(1, 2), Segment(1, 2)]
    assert sorted([Segment(3, 3), Segment(0, 2)], key=segment_key) == \
        [Segment(0, 2), Segment(3, 3)]


def test_linked_truth_table():
    assert linked(Segment(1, 2), Segment(3, 4))       # adjacent
    assert linked(Segment(1, 3), Segment(2, 4))       # overlapping
    assert linked(Segment(1, 2), Segment(2, 3))       # overlapping
    assert linked(Segment(1, 1), Segment(2, 2))       # adjacent points
    assert not linked(Segment(1, 4), Segment(2, 3))   # nested
    assert not linked(Segment(1, 2), Segment(1, 2))   # equal
    assert not linked(Segment(1, 2), Segment(4, 5))   # gap
    assert not linked(Segment(0, 3), Segment(0, 1))   # shared start, nested


@given(segments, segments)
def test_linked_is_symmetric(a, b):
    assert linked(a, b) == linked(b, a)


def test_union_intersection():
    assert segment_union(Segment(1, 3), Segment(2, 5)) == Segment(1, 5)
    assert segment_intersection(Segment(1, 3), Segment(2, 5)) == Segment(2, 3)
    assert segment_intersection(Segment(1, 2), Segment(4, 5)) is None
    assert segment_intersection(Segment(1, 2), Segment(3, 4)) is None


def test_segment_pairing_pinned():
    assert segment_pairing(Segment(0, 0), Segment(0, 0)) == 2
    assert segment_pairing(Segment(0, 0), Segment(1, 1)) == -1
    assert segment_pairing(Segment(0, 0), Segment(2, 2)) == 0
    assert segment_pairing(Segment(0, 1), Segment(1, 2)) == 0
    assert segment_pairing(Segment(0, 1), Segment(2, 3)) == -1
    assert segment_pairing(Segment(0, 2), Segment(0, 2)) == 2


@given(segments, segments)
def test_segment_pairing_matches_weight_pairing(a, b):
    wa = Multisegment([a]).weight()
    wb = Multisegment([b]).weight()
    assert segment_pairing(a, b) == cartan_pairing(wa, wb)
    assert segment_pairing(a, b) == segment_pairing(b, a)


# -- multisegments ----------------------------------------------------------------


def test_multisegment_construction_sorts_and_accepts_tuples():
    m = Multisegment([(1, 1), (0, 2), (1, 1)])
    assert m.segments == (Segment(1, 1), Segment(1, 1), Segment(0, 2))
    assert len(m) == 3
    assert m == Multisegment([Segment(1, 1), (0, 2), (1, 1)])
    with pytest.raises(ValueError):
        Multisegment([(2, 1)])


def test_multisegment_str_and_counts():
    m = Multisegment([(1, 1), (1, 1), (0, 2)])
    assert str(m) == "2[1]+[0,2]"
    assert m.counts() == [(Segment(1, 1), 2), (Segment(0, 2), 1)]
    assert m.multiplicity(Segment(1, 1)) == 2
    assert m.multiplicity(Segment(5, 5)) == 0
    assert str(EMPTY) == "[]"


def test_degree_weight_and_sums():
    m = Multisegment([(0, 1), (1, 1)])
    assert m.degree() == 3
    assert m.weight() == Weight({0: 1, 1: 2})
    assert m.sq_length_sum() == 5
    assert Multisegment([(1, 1), (1, 1), (1, 1)]).binom_sum() == 3
    assert m.binom_sum() == 0


def test_binom_sum_matches_the_counts_formula_exhaustive():
    # Every label of degree <= 6 on [0, 4].
    labels = [m for w in window_weights(6, 0, 4)
              for m in enumerate_by_weight(w)]
    assert len(labels) == 1497
    for m in labels:
        assert m.binom_sum() == sum(c * (c - 1) // 2 for _, c in m.counts()), m


def test_add_remove_largest():
    m = parse_multisegment("[0]+[1]")
    assert m + parse_multisegment("[0,1]") == parse_multisegment("[0]+[1]+[0,1]")
    assert m.remove(Segment(0, 0)) == parse_multisegment("[1]")
    assert m.largest_segment() == Segment(1, 1)
    with pytest.raises(ValueError):
        EMPTY.largest_segment()
    with pytest.raises(ValueError):
        m.remove(Segment(5, 5))


# -- weights -------------------------------------------------------------------------


def test_weight_basics():
    w = Weight({1: 2, 0: 1})
    assert w.items() == ((0, 1), (1, 2))
    assert w.positions() == (0, 1)
    assert w[1] == 2
    assert w[7] == 0
    assert w.total() == 3
    assert str(w) == "0:1,1:2"
    assert not Weight()
    assert Weight({0: 0}) == Weight()
    with pytest.raises(ValueError):
        Weight({0: -1})


def test_cartan_pairing_pinned():
    assert cartan_pairing(Weight({0: 1}), Weight({0: 1})) == 2
    assert cartan_pairing(Weight({0: 1}), Weight({1: 1})) == -1
    assert cartan_pairing(Weight({0: 1, 1: 1}), Weight({0: 1, 1: 1})) == 2


# -- the bilinear form ----------------------------------------------------------------


def test_b_form_pinned():
    one = parse_multisegment("[1]")
    assert b_form(one, one) == 1
    assert b_form(parse_multisegment("[0]"), one) == 0
    assert b_form(one, parse_multisegment("[0]")) == -1
    assert b_form(parse_multisegment("[1]+[2,3]"),
                  parse_multisegment("[2]+[3,4]")) == 1


def test_b_form_sum_identity_exhaustive():
    window = [Multisegment(segs) for segs in itertools.chain(
        itertools.combinations_with_replacement(
            [Segment(i, j) for i in range(3) for j in range(i, 3)], 1),
        itertools.combinations_with_replacement(
            [Segment(i, j) for i in range(3) for j in range(i, 3)], 2))]
    for m, n in itertools.product(window, repeat=2):
        assert b_form(m, n) + b_form(n, m) == \
            cartan_pairing(m.weight(), n.weight())


@given(multisegments, multisegments)
def test_b_form_sum_identity_random(m, n):
    assert b_form(m, n) + b_form(n, m) == \
        cartan_pairing(m.weight(), n.weight())


# -- elementary moves and dominance ------------------------------------------------------


def elementary_moves(m):
    """Reference moves: all one-step dominance successors of m, sorted.

    Each linked pair of distinct segments of m is replaced by its union and
    (when non-empty) intersection.
    """
    out = set()
    for a, b in itertools.combinations([s for s, _ in m.counts()], 2):
        if linked(a, b):
            i = segment_intersection(a, b)
            n = m.remove(a).remove(b) + Multisegment(
                [segment_union(a, b)] + ([] if i is None else [i]))
            out.add(n)
    return sorted(out, key=Multisegment.sort_key)


def test_elementary_moves_pinned():
    assert elementary_moves(parse_multisegment("[0]+[1]")) == \
        [parse_multisegment("[0,1]")]
    assert elementary_moves(parse_multisegment("[1]+[0,2]")) == []
    assert set(elementary_moves(parse_multisegment("[0]+2[1]+[2]"))) == {
        parse_multisegment("[0]+[1]+[1,2]"),
        parse_multisegment("[0,1]+[1]+[2]"),
    }


# Every nonzero weight supported on [0, 5] of total <= 6.
SMALL_WINDOW_WEIGHTS = window_weights(6, 0, 5)


def test_moves_preserve_weight_and_increase_measure():
    assert len(SMALL_WINDOW_WEIGHTS) == 923
    for w in SMALL_WINDOW_WEIGHTS:
        for m in enumerate_by_weight(w):
            for n in elementary_moves(m):
                assert n.weight() == m.weight()
                assert n.sq_length_sum() > m.sq_length_sum()
                assert m.sort_key() < n.sort_key()


def test_dominates_pinned():
    labels = [parse_multisegment(t) for t in WORKED_LABELS]
    m1, m2, m3, m4, m5 = labels
    assert all(dominates(m1, m) for m in labels)
    assert dominates(m2, m4)
    assert dominates(m3, m4)
    assert dominates(m4, m5)
    assert not dominates(m2, m3)
    assert not dominates(m3, m2)
    assert not dominates(m5, m4)
    assert not dominates(m1, parse_multisegment("[0]"))  # different weight


def _reachable(m):
    """Reference dominance: the BFS closure of m under elementary moves."""
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for x in frontier:
            for y in elementary_moves(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def test_rank_test_matches_move_closure_exhaustive():
    pairs = dominated = 0
    for w in SMALL_WINDOW_WEIGHTS:
        labels = enumerate_by_weight(w)
        closures = {m: _reachable(m) for m in labels}
        for m, n in itertools.product(labels, repeat=2):
            reached = n in closures[m]
            assert dominates(m, n) == reached, (m, n)
            pairs += 1
            dominated += reached
    assert (pairs, dominated) == (19432, 8744)


def _rank(m, i, j):
    """r_ij(m): the number of segments of m that contain [i, j]."""
    return sum(1 for s in m.segments if s.start <= i and j <= s.end)


def _rank_dominates(m, n):
    """Reference rank test: one r_ij count per (i, j) for each side."""
    if m == n:
        return True
    if m.weight() != n.weight():
        return False
    segs = m.segments + n.segments
    ends = {s.end for s in segs}
    return all(_rank(m, i, j) <= _rank(n, i, j)
               for i in {s.start for s in segs} for j in ends if i <= j)


def test_dominates_matches_the_rank_count_oracle():
    pairs = dominated = 0
    for w in window_weights(5):
        labels = enumerate_by_weight(w)
        for m, n in itertools.product(labels, repeat=2):
            verdict = dominates(m, n)
            assert verdict == _rank_dominates(m, n), (m, n)
            pairs += 1
            dominated += verdict
    assert (pairs, dominated) == (2615, 1395)


def test_dominates_decides_the_weight_across_classes():
    # Pairs of different weight but equal degree reach the rank loop, which
    # must refuse them on its own.
    labels = window_multisegments(4, 0, 3)
    pairs = other_weight = dominated = 0
    for m, n in itertools.product(labels, repeat=2):
        verdict = dominates(m, n)
        assert verdict == _rank_dominates(m, n), (m, n)
        pairs += 1
        other_weight += m.weight() != n.weight()
        dominated += verdict
    assert (len(labels), pairs, other_weight, dominated) == (
        131, 17161, 16798, 230)


def test_dominance_is_a_partial_order():
    labels = enumerate_by_weight(WORKED_WEIGHT)
    for m in labels:
        assert dominates(m, m)
    for m, n in itertools.permutations(labels, 2):
        if dominates(m, n) and dominates(n, m):
            assert m == n
    for m, n, p in itertools.product(labels, repeat=3):
        if dominates(m, n) and dominates(n, p):
            assert dominates(m, p)


def test_extension_key_extends_dominance():
    for w in (WORKED_WEIGHT, Weight({0: 2, 1: 2})):
        labels = enumerate_by_weight(w)
        for m, n in itertools.permutations(labels, 2):
            if dominates(m, n):
                assert m.extension_key() < n.extension_key()


# -- weight class enumeration ----------------------------------------------------------


def _brute_force_class(w):
    """Independent enumeration: multisets of window segments of weight w."""
    positions = w.positions()
    if not positions:
        return {EMPTY}
    lo, hi = min(positions), max(positions)
    segs = [Segment(i, j) for i in range(lo, hi + 1)
            for j in range(i, hi + 1)]
    total = w.total()
    found = set()
    for r in range(1, total + 1):
        for combo in itertools.combinations_with_replacement(segs, r):
            m = Multisegment(combo)
            if m.weight() == w:
                found.add(m)
    return found


def test_enumeration_order_pinned():
    assert [str(m) for m in enumerate_by_weight(WORKED_WEIGHT)] == WORKED_LABELS


def test_enumeration_matches_brute_force():
    for w in (Weight({0: 1, 1: 1}), WORKED_WEIGHT, Weight({0: 2, 1: 1}),
              Weight({-1: 1, 0: 2, 1: 1}), Weight({0: 3})):
        order = enumerate_by_weight(w)
        assert len(set(order)) == len(order)
        assert set(order) == _brute_force_class(w)


def _kahn_order(w):
    """Reference enumeration: Kahn's topological sort of the elementary-move
    DAG of the class, always taking the least ready label by sort_key."""
    labels = list(enumerate_by_weight(w))
    moves = {m: elementary_moves(m) for m in labels}
    indeg = dict.fromkeys(labels, 0)
    for outs in moves.values():
        for n in outs:
            indeg[n] += 1
    heap = [(m.sort_key(), m) for m in labels if not indeg[m]]
    heapq.heapify(heap)
    order = []
    while heap:
        _, m = heapq.heappop(heap)
        order.append(m)
        for n in moves[m]:
            indeg[n] -= 1
            if not indeg[n]:
                heapq.heappush(heap, (n.sort_key(), n))
    assert len(order) == len(labels), "move DAG is not acyclic"
    return tuple(order)


def test_enumeration_matches_topological_sort_exhaustive():
    for w in SMALL_WINDOW_WEIGHTS:
        assert enumerate_by_weight(w) == _kahn_order(w), w


def _old_generate(d, bound):
    """Reference generator: the class enumeration by recursion, one level
    per segment."""
    if not d:
        yield ()
        return
    p = max(d)
    lo = p
    while (lo - 1) in d:
        lo -= 1
    if bound is not None and bound[0] == p:
        lo = max(lo, bound[1])
    for start in range(lo, p + 1):
        seg = Segment(start, p)
        nd = dict(d)
        for k in range(start, p + 1):
            nd[k] -= 1
            if not nd[k]:
                del nd[k]
        for rest in _old_generate(nd, (p, start)):
            yield rest + (seg,)


def test_generation_matches_the_recursive_oracle_exhaustive():
    for w in SMALL_WINDOW_WEIGHTS:
        old = list(_old_generate(dict(w.items()), None))
        assert sorted(_generate(dict(w.items()))) == sorted(old), w
        assert enumerate_by_weight(w) == tuple(
            sorted(map(Multisegment, old), key=Multisegment.sort_key)), w


def test_class_with_many_segments_needs_no_recursion():
    assert sys.getrecursionlimit() < 5000
    assert not class_exceeds(Weight({0: 5000}), 1)
    # 5000[0]+[1] and 4999[0]+[0,1]
    assert class_exceeds(Weight({0: 5000, 1: 1}), 1)
    assert not class_exceeds(Weight({0: 5000, 1: 1}), 2)


def test_wide_class_is_refused_without_building_every_sibling():
    # {0: 2, 1..9999: 1}: 10,000 possible first peels, each a copy of a
    # 10,000-entry weight.  Only the ones walked may be built.
    w = (parse_multisegment("[0,9999]") + parse_multisegment("[0]")).weight()
    tracemalloc.start()
    try:
        assert class_exceeds(w, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_enumeration_is_a_linear_extension():
    for w in (WORKED_WEIGHT, Weight({0: 2, 1: 2}), Weight({0: 1, 1: 1, 2: 1})):
        order = enumerate_by_weight(w)
        singletons = Multisegment(
            [Segment(p, p) for p, c in w.items() for _ in range(c)])
        assert order[0] == singletons
        indexed = list(enumerate(order))
        for i, m in indexed:
            for j, n in indexed:
                if i < j:
                    assert not dominates(n, m)


# -- parsing --------------------------------------------------------------------------


def test_parse_segment():
    assert parse_segment("[1,3]") == Segment(1, 3)
    assert parse_segment("[-2]") == Segment(-2, -2)
    assert parse_segment(" [ 0 , 5 ] ") == Segment(0, 5)
    with pytest.raises(ValueError):
        parse_segment("[3,1]")
    with pytest.raises(ValueError):
        parse_segment("(1,3)")


def test_parse_multisegment():
    assert parse_multisegment("2[1]+[0,2]") == \
        Multisegment([(1, 1), (1, 1), (0, 2)])
    assert parse_multisegment("3*[1]") == Multisegment([(1, 1)] * 3)
    assert parse_multisegment("[]") == EMPTY
    assert parse_multisegment("") == EMPTY
    with pytest.raises(ValueError):
        parse_multisegment("[1]+")
    with pytest.raises(ValueError):
        parse_multisegment("0[1]")


@given(multisegments)
def test_multisegment_round_trip(m):
    assert parse_multisegment(str(m)) == m


def test_parse_weight():
    assert parse_weight("0:1,1:2,2:1") == WORKED_WEIGHT
    assert parse_weight("-1:3") == Weight({-1: 3})
    assert parse_weight("") == Weight()
    with pytest.raises(ValueError):
        parse_weight("0:1,0:2")
    with pytest.raises(ValueError):
        parse_weight("abc")


@given(st.dictionaries(st.integers(-5, 5), st.integers(1, 4), max_size=4))
def test_weight_round_trip(d):
    w = Weight(d)
    assert parse_weight(str(w)) == w


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
