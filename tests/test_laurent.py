"""Tests for exact Laurent polynomial arithmetic and its involutions."""

import re

import pytest
from hypothesis import given, strategies as st

from dcbasis.laurent import (
    ONE,
    V,
    ZERO,
    ExactDivisionError,
    LaurentPoly,
    _add_product,
    _decode,
    _finish,
    _pack,
    _repack,
    _width,
    quantum_integer,
)

# Raw coefficient dicts, zeros allowed.
raw_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                            max_size=6)

# Coefficients up to about 2^70: raw_dicts packs at the first width, 16,
# and these need it doubled two or three times.
wide_dicts = st.dictionaries(st.integers(-6, 6),
                             st.integers(-2**70, 2**70), max_size=6)

laurent_polys = raw_dicts.map(LaurentPoly)

nonzero_polys = laurent_polys.filter(bool)

V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})


def quantum_factorial(a: int) -> LaurentPoly:
    """Product of quantum integers 1..a; the empty product for a in {0, 1}."""
    if a < 0:
        raise ValueError(f"quantum factorial needs a >= 0, got {a}")
    result = ONE
    for k in range(2, a + 1):
        result = result * quantum_integer(k)
    return result


_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+)\s*(?:\*\s*(?P<var1>v(?:\^(?P<exp1>-?\d+))?))?
          | (?P<var2>v(?:\^(?P<exp2>-?\d+))?)
        )\s*""",
    re.VERBOSE,
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the rendering produced by str(): e.g. ``v^3 + 2*v - v^-1``.

    Whitespace-insensitive; accepts integer constants, ``v``, ``v^k`` with
    possibly negative k, and optional ``*`` between coefficient and power.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty Laurent polynomial literal")
    out = ZERO
    pos = 0
    first = True
    while pos < len(s):
        match = _TERM_RE.match(s, pos)
        if not match or match.end() == pos:
            raise ValueError(f"malformed Laurent polynomial at {s[pos:]!r}")
        sign = match.group("sign")
        if not first and not sign:
            raise ValueError(f"missing +/- before {s[pos:]!r}")
        coef = int(match.group("coef") or 1)
        if sign == "-":
            coef = -coef
        if match.group("var1") or match.group("var2"):
            exp_text = match.group("exp1") or match.group("exp2")
            exp = int(exp_text) if exp_text else 1
        else:
            exp = 0
        out = out + LaurentPoly.v_power(exp, coef)
        pos = match.end()
        first = False
    return out


# -- construction and basic queries -------------------------------------------


def test_zero_coefficients_are_dropped():
    assert LaurentPoly({3: 0, 1: 2}) == LaurentPoly({1: 2})
    assert LaurentPoly({3: 0}) == ZERO
    assert LaurentPoly(0).is_zero()


def test_int_constructor_and_constants():
    assert LaurentPoly(5) == LaurentPoly({0: 5})
    assert ONE.is_one()
    assert V == LaurentPoly.v_power(1)
    assert not ZERO
    assert ONE


def test_items_are_sorted_descending():
    p = LaurentPoly({-2: 1, 3: 4, 0: -1})
    assert p.items() == [(3, 4), (0, -1), (-2, 1)]


def test_coefficient_lookup():
    p = LaurentPoly({2: 7})
    assert p.coefficient(2) == 7
    assert p.coefficient(0) == 0


def test_exponent_bounds():
    p = LaurentPoly({-3: 1, 5: 2})
    assert p.min_exponent() == -3
    assert p.max_exponent() == 5
    with pytest.raises(ValueError):
        ZERO.min_exponent()
    with pytest.raises(ValueError):
        ZERO.max_exponent()


def test_single_power():
    assert LaurentPoly({4: 1}).single_power() == 4
    assert LaurentPoly({0: 1}).single_power() == 0
    assert LaurentPoly({4: 2}).single_power() is None
    assert LaurentPoly({4: 1, 0: 1}).single_power() is None
    assert ZERO.single_power() is None


def test_sign_and_support_predicates():
    assert LaurentPoly({1: 2, -1: 3}).has_nonnegative_coefficients()
    assert not LaurentPoly({1: 2, 0: -1}).has_nonnegative_coefficients()
    assert LaurentPoly({1: 1, 3: -2}).only_positive_exponents()
    assert not LaurentPoly({0: 1}).only_positive_exponents()
    assert LaurentPoly({-1: 1}).only_positive_exponents() is False


def test_at_one():
    assert LaurentPoly({3: 2, -1: 5}).at_one() == 7
    assert ZERO.at_one() == 0


# -- ring operations -----------------------------------------------------------


def test_docstring_square():
    p = LaurentPoly({1: 2, -1: 2})
    assert p * p == LaurentPoly({2: 4, 0: 8, -2: 4})


def test_integer_coercion():
    assert 1 + V == LaurentPoly({0: 1, 1: 1})
    assert V - 1 == LaurentPoly({1: 1, 0: -1})
    assert 1 - V == LaurentPoly({0: 1, 1: -1})
    assert 2 * V == LaurentPoly({1: 2})
    assert V * 0 == ZERO


@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO


@given(laurent_polys, laurent_polys)
def test_evaluation_at_one_is_a_ring_map(p, q):
    assert (p * q).at_one() == p.at_one() * q.at_one()
    assert (p + q).at_one() == p.at_one() + q.at_one()


# -- bar involution and symmetric part -----------------------------------------


@given(laurent_polys)
def test_bar_is_an_involution(p):
    assert p.bar().bar() == p


@given(laurent_polys, laurent_polys)
def test_bar_is_multiplicative(p, q):
    assert (p * q).bar() == p.bar() * q.bar()
    assert (p + q).bar() == p.bar() + q.bar()


def test_bar_symmetry_predicate():
    assert quantum_integer(4).is_bar_symmetric()
    assert ONE.is_bar_symmetric()
    assert ZERO.is_bar_symmetric()
    assert not V.is_bar_symmetric()
    assert not LaurentPoly({1: 1, -1: 2}).is_bar_symmetric()


def test_symmetric_part_pinned():
    assert LaurentPoly({-1: 2, 0: 5, 1: 7}).symmetric_part() == \
        LaurentPoly({1: 2, 0: 5, -1: 2})


@given(laurent_polys)
def test_symmetric_part_properties(p):
    g = p.symmetric_part()
    assert g.is_bar_symmetric()
    assert (p - g).only_positive_exponents() or (p - g).is_zero()


@given(laurent_polys)
def test_symmetric_part_fixes_bar_symmetric_input(p):
    g = (p + p.bar()).symmetric_part()
    assert g == p + p.bar()


# -- exact division --------------------------------------------------------------


@given(laurent_polys)
def test_exact_division_round_trip(q):
    assert (q * V_MINUS_VINV).divide_by_v_minus_vinv() == q


def test_exact_division_rejects_remainders():
    with pytest.raises(ExactDivisionError):
        ONE.divide_by_v_minus_vinv()
    with pytest.raises(ExactDivisionError):
        LaurentPoly({2: 1}).divide_by_v_minus_vinv()
    assert ZERO.divide_by_v_minus_vinv() == ZERO


@given(st.integers(-8, 8))
def test_quantum_integer_telescopes(a):
    assert quantum_integer(a) * V_MINUS_VINV == \
        LaurentPoly({a: 1}) - LaurentPoly({-a: 1})


def test_quantum_integer_pinned():
    assert quantum_integer(0) == ZERO
    assert quantum_integer(1) == ONE
    assert quantum_integer(3) == LaurentPoly({2: 1, 0: 1, -2: 1})
    assert quantum_integer(-2) == -quantum_integer(2)


def test_quantum_factorial():
    assert quantum_factorial(0) == ONE
    assert quantum_factorial(1) == ONE
    assert quantum_factorial(3) == LaurentPoly({3: 1, 1: 2, -1: 2, -3: 1})
    assert quantum_factorial(4).at_one() == 24
    assert quantum_factorial(4).is_bar_symmetric()
    with pytest.raises(ValueError):
        quantum_factorial(-1)


# -- the product helpers against the LaurentPoly arithmetic -------------------


def _product(p, q):
    """Reference product, one term pair at a time through addition."""
    out = ZERO
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = out + LaurentPoly.v_power(e1 + e2, c1 * c2)
    return out


@given(laurent_polys, laurent_polys)
def test_product_matches_the_term_by_term_product(p, q):
    assert p * q == _product(p, q)


@given(raw_dicts, laurent_polys, laurent_polys, st.integers(-4, 4))
def test_add_product_matches_the_ring_operations(acc, a, b, shift):
    expected = LaurentPoly(acc) + _product(
        LaurentPoly.v_power(shift), _product(a, b))
    swapped = dict(acc)
    _add_product(acc, a, b, shift)
    _add_product(swapped, b, a, shift)
    assert _finish(acc) == _finish(swapped) == expected


@given(laurent_polys, st.integers(-4, 4))
def test_add_product_cancels_to_zero(p, shift):
    acc = {}
    _add_product(acc, p, V, shift)
    _add_product(acc, -V, p, shift)
    assert all(c == 0 for c in acc.values())
    assert _finish(acc) == ZERO
    assert not _finish(acc)


@given(raw_dicts)
def test_finish_matches_the_constructor(acc):
    assert _finish(acc) == LaurentPoly(acc)
    assert _finish({e: 0 for e in acc}) == ZERO
    assert not _finish({e: 0 for e in acc})


def _symmetric_reference(coeffs):
    """The symmetric part of a plain exponent -> coefficient dict, read off
    its definition: bar-symmetric, and equal to coeffs at exponents <= 0."""
    out = {}
    for e, c in coeffs.items():
        if e <= 0 and c:
            out[e] = out[-e] = c
    return out


def _divide_reference(coeffs):
    """Long division of a plain dict by v - v^-1 from the top exponent
    down, or None when it leaves a remainder: a quotient lies strictly
    inside the span of the dividend."""
    rest = {e: c for e, c in coeffs.items() if c}
    low = min(rest, default=0)
    q = {}
    while rest:
        top = max(rest)
        if top < low + 2:
            return None
        c = q[top - 1] = rest.pop(top)
        below = rest.get(top - 2, 0) + c
        if below:
            rest[top - 2] = below
        else:
            del rest[top - 2]
    return q


any_dicts = st.one_of(raw_dicts, wide_dicts)


@given(any_dicts)
def test_raw_symmetric_part_matches_the_method(acc):
    assert LaurentPoly(acc).symmetric_part() == LaurentPoly(
        _symmetric_reference(acc))


@given(st.one_of(any_dicts, any_dicts.map(
    lambda acc: dict((LaurentPoly(acc) * V_MINUS_VINV).items()))))
def test_raw_division_matches_the_method(acc):
    expected = _divide_reference(acc)
    if expected is None:
        with pytest.raises(ExactDivisionError):
            LaurentPoly(acc).divide_by_v_minus_vinv()
    else:
        assert LaurentPoly(acc).divide_by_v_minus_vinv() == LaurentPoly(
            expected)


def test_the_width_rule():
    # Digits whose L1 norm is below 2^(k-2) fit width k.
    assert [_width(b) for b in (0, 2**14 - 1, 2**14, 2**30, 2**72)] == [
        16, 16, 32, 64, 128]


@given(st.sampled_from([2, 3, 8, 16, 64]), st.integers(-3, 3), st.data())
def test_repack_round_trip_doubles_the_width(k, base, data):
    # Every balanced digit of the width, the extremes included.
    half = 1 << (k - 1)
    p = LaurentPoly(data.draw(st.dictionaries(
        st.integers(base, base + 12), st.integers(-half, half - 1),
        max_size=8)))
    x = _repack(_pack(p, base, k)[0], k)
    assert x == _pack(p, base, 2 * k)[0]
    assert _decode(x, base, 2 * k) == p


def test_raw_division_error_message_pinned():
    with pytest.raises(ExactDivisionError,
                       match=r"^v\^2 is not divisible by v - v\^-1$"):
        LaurentPoly({2: 1}).divide_by_v_minus_vinv()


# -- rendering and parsing -------------------------------------------------------


def test_str_pinned():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(LaurentPoly({3: 1, 1: 2, -1: -1})) == "v^3 + 2*v - v^-1"
    assert str(LaurentPoly({0: -4})) == "-4"
    assert str(LaurentPoly({-2: 1})) == "v^-2"


def test_parse_pinned():
    assert parse_laurent("v^3 + 2*v - v^-1") == LaurentPoly({3: 1, 1: 2, -1: -1})
    assert parse_laurent("0") == ZERO
    assert parse_laurent("-v") == LaurentPoly({1: -1})
    assert parse_laurent("2*v^2") == LaurentPoly({2: 2})
    assert parse_laurent("  -3*v^-4+1 ") == LaurentPoly({-4: -3, 0: 1})
    with pytest.raises(ValueError):
        parse_laurent("")
    with pytest.raises(ValueError):
        parse_laurent("v +")
    with pytest.raises(ValueError):
        parse_laurent("v w")


@given(laurent_polys)
def test_parse_round_trip(p):
    assert parse_laurent(str(p)) == p


@given(laurent_polys, laurent_polys)
def test_hash_consistency(p, q):
    if p == q:
        assert hash(p) == hash(q)
    assert len({p, q}) == (1 if p == q else 2)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
