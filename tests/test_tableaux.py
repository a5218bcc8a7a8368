"""Tests for row insertion, reading words, and the tableau dictionary."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dcbasis.algebra import minor_multisegment
from dcbasis.multisegment import Multisegment, parse_multisegment
from dcbasis.tableaux import (
    Tableau,
    _row_multisegment,
    frank_condition,
    n_pi,
    product_word,
    rs_p_tableau,
)

words = st.lists(st.integers(1, 6), max_size=8)

WORKED_FAMILY = [frozenset({2, 3, 5}), frozenset({1, 4})]
WORKED_P = Tableau([[1, 2], [3, 5], [4]])


# -- the tableau class -----------------------------------------------------------


def test_validation():
    with pytest.raises(ValueError, match="empty tableau row"):
        Tableau([[1], []])
    with pytest.raises(ValueError, match="weakly increasing"):
        Tableau([[2, 1]])
    with pytest.raises(ValueError, match="weakly decrease"):
        Tableau([[1], [2, 3]])
    with pytest.raises(ValueError, match="strictly increase"):
        Tableau([[1, 2], [1]])
    assert Tableau([[1, 1], [2]]).rows == ((1, 1), (2,))


def test_shapes():
    assert WORKED_P.shape() == (2, 2, 1)
    assert WORKED_P.conjugate_shape() == (3, 2)
    assert Tableau(()).shape() == ()
    assert Tableau(()).conjugate_shape() == ()


def test_columns_round_trip():
    assert WORKED_P.columns() == [(1, 3, 4), (2, 5)]
    assert Tableau.from_columns(WORKED_P.columns()) == WORKED_P
    assert Tableau.from_columns([]) == Tableau(())
    assert Tableau.from_columns([(2, 4), (3,)]) == Tableau([[2, 3], [4]])


def test_str():
    assert str(WORKED_P) == "4/3 5/1 2"
    assert str(Tableau([[1, 2, 2]])) == "1 2 2"
    assert str(Tableau(())) == ""


# -- row insertion ----------------------------------------------------------------


def test_insertion_pins():
    assert rs_p_tableau((4, 1, 5, 3, 2)) == WORKED_P
    assert rs_p_tableau(()) == Tableau(())
    assert rs_p_tableau((1, 2, 2, 4)) == Tableau([[1, 2, 2, 4]])
    assert rs_p_tableau((4, 3, 1)) == Tableau([[1], [3], [4]])
    assert rs_p_tableau((2, 1, 2)) == Tableau([[1, 2], [2]])


@given(words)
def test_insertion_preserves_content(word):
    t = rs_p_tableau(word)
    assert Counter(x for row in t.rows for x in row) == Counter(word)


@given(st.lists(st.integers(1, 9), max_size=8, unique=True))
def test_sorted_words_insert_to_a_single_row_or_column(word):
    asc = sorted(word)
    assert rs_p_tableau(asc).rows == ((tuple(asc),) if asc else ())
    desc = sorted(word, reverse=True)
    assert rs_p_tableau(desc).columns() == ([tuple(asc)] if asc else [])


# -- reading words and the frank condition -------------------------------------------


def test_product_word():
    assert product_word(WORKED_FAMILY) == (4, 1, 5, 3, 2)
    assert product_word([{1, 2}]) == (2, 1)
    assert product_word([]) == ()


def test_frank_condition_pins():
    assert frank_condition(WORKED_FAMILY) is True
    assert frank_condition([{1}, {2}]) is False
    assert frank_condition([{2}, {1}]) is True
    assert frank_condition([{3, 4}, {1, 2}]) is True
    assert frank_condition([{1, 4}, {2, 3}]) is False


@given(st.sets(st.integers(1, 8), min_size=1, max_size=6))
def test_single_sets_are_frank(s):
    assert frank_condition([s]) is True


# -- dictionaries to multisegments ------------------------------------------------------


def test_n_pi_pins():
    assert n_pi(WORKED_FAMILY) == parse_multisegment("[1]+[2]+[3]+[2,4]")
    assert n_pi([{1, 3}]) == parse_multisegment("[2]")
    assert n_pi([{1}]) == Multisegment()
    assert n_pi([]) == Multisegment()


@given(st.sets(st.integers(1, 9), min_size=1, max_size=5))
def test_single_set_matches_the_minor_label(s):
    cols = tuple(sorted(s))
    rows = tuple(range(1, len(cols) + 1))
    assert n_pi([s]) == minor_multisegment(rows, cols)


def tableau_multisegment(t, n):
    """Dictionary from a tableau with entries in [1, n] to a multisegment.

    Columns are complemented inside [1, n] and reversed; the resulting
    tableau translates row by row like n_pi.
    """
    cols = t.columns()
    full = set(range(1, n + 1))
    for col in cols:
        if not set(col) <= full:
            raise ValueError(f"column {col} has entries outside [1, {n}]")
    comp = [tuple(sorted(full - set(col))) for col in reversed(cols)]
    return _row_multisegment(Tableau.from_columns(comp))


def test_tableau_multisegment_pins():
    assert (tableau_multisegment(Tableau([[3], [4], [5], [6]]), 7)
            == parse_multisegment("[3,6]"))
    assert (tableau_multisegment(WORKED_P, 5)
            == parse_multisegment("[1]+[2]+[3]+[2,4]"))
    assert tableau_multisegment(Tableau(()), 3) == Multisegment()


def test_tableau_multisegment_range_check():
    with pytest.raises(ValueError, match="outside"):
        tableau_multisegment(WORKED_P, 4)
    with pytest.raises(ValueError, match="outside"):
        tableau_multisegment(Tableau([[0, 1]]), 3)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
