"""Exact Laurent polynomials in one variable ``v`` with integer coefficients.

Sparse representation: a dict mapping exponent to coefficient, with zero
coefficients never stored.  All arithmetic is exact (Python ints).  Besides
ring operations the class carries the involution ``bar`` (v -> 1/v), the
bar-symmetric truncation ``symmetric_part``, and exact division by
``v - v^-1``.

>>> p = LaurentPoly({1: 2, -1: 2})
>>> print(p * p)
4*v^2 + 8 + 4*v^-2
>>> print(quantum_integer(3))
v^2 + 1 + v^-2

A ``LaurentPoly`` is hashed and memoized, so the dict it owns is never
mutated.  A product of two polynomials adds into a plain dict that may
hold zeros and wraps it once it is finished.

The module owns the packed form that ``AlgebraElement`` and the basis cache
compute on, and every operation on it: ``_pack`` writes a polynomial as one
int, digit e at bits k(e - base), ``_digits`` and ``_decode`` read it back,
``_fits`` is the width rule, and ``_repack`` moves digits to a wider width.
``_width`` owns the start (16) and the growth of every width: a product or
a cache that outgrows its width goes at once to the first width that fits.
A sum, a product and a shift of packed ints are those of the polynomials,
so work may stay packed until one decode, provided every bound it carries
fits.
``_symmetric_part`` and ``_divide`` are the two Laurent operations the
basis is built from, and ``symmetric_part`` and ``divide_by_v_minus_vinv``
pack and call them.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ExactDivisionError",
    "LaurentPoly",
    "ZERO",
    "ONE",
    "V",
    "quantum_integer",
]


class ExactDivisionError(ArithmeticError):
    """Raised when an exact division leaves a remainder.

    Divisions by ``v - v^-1`` are only ever applied to quantities that are
    divisible by construction, so this signals an upstream bug rather than
    bad user input.
    """


class LaurentPoly:
    """An element of Z[v, v^-1]."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | int = 0):
        if isinstance(coeffs, int):
            coeffs = {0: coeffs} if coeffs else {}
        self._c = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def v_power(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    # -- basic queries ----------------------------------------------------

    def items(self):
        """Pairs (exponent, coefficient), descending exponent."""
        return sorted(self._c.items(), reverse=True)

    def coefficient(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def min_exponent(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no exponents")
        return min(self._c)

    def max_exponent(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no exponents")
        return max(self._c)

    def single_power(self) -> int | None:
        """The exponent k if self == v^k, else None."""
        if len(self._c) == 1:
            (e, c), = self._c.items()
            if c == 1:
                return e
        return None

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self._c.values())

    def only_positive_exponents(self) -> bool:
        """True iff self lies in v*Z[v]."""
        return not self._c or min(self._c) > 0

    def at_one(self) -> int:
        """Evaluate at v = 1."""
        return sum(self._c.values())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict[int, int] = {}
        _add_product(acc, self, other, 0)
        return _finish(acc)

    __rmul__ = __mul__

    # -- involution and truncation -----------------------------------------

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        return LaurentPoly({-e: c for e, c in self._c.items()})

    def is_bar_symmetric(self) -> bool:
        return all(self._c.get(-e, 0) == c for e, c in self._c.items())

    def symmetric_part(self) -> "LaurentPoly":
        """The unique bar-symmetric g with self - g supported in v*Z[v].

        Built from the constant term and the coefficients of the strictly
        negative exponents:

        >>> print(LaurentPoly({-1: 2, 0: 5, 1: 7}).symmetric_part())
        2*v + 5 + 2*v^-1
        """
        if not self._c:
            return ZERO
        base = min(min(self._c), 0)
        k = _width(sum(map(abs, self._c.values())))
        t = _symmetric_part(_pack(self, base, k)[0], base, k)[0]
        return _decode(t, base, k)

    def divide_by_v_minus_vinv(self) -> "LaurentPoly":
        """Exact division by (v - v^-1); raises ExactDivisionError otherwise.
        Packed at its least exponent and divided by _divide."""
        if not self._c:
            return ZERO
        base = min(self._c)
        k = _width(sum(map(abs, self._c.values())))
        quotient = _divide({0: _pack(self, base, k)[0]}, base, k)
        return _decode(quotient.get(0, 0), base + 1, k)

    # -- comparison, hashing, rendering --------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        # A constant equals its int, so it hashes as that int.
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._c!r})"

    def __str__(self) -> str:
        return _render_terms(self.items())


def _render_terms(terms: Iterable[tuple[int, int]]) -> str:
    """The text of the polynomial with the given nonzero (exponent,
    coefficient) pairs, in the order given (descending exponent, as
    ``LaurentPoly.items()`` lists them), like ``v^3 - 2*v + 1``."""
    pieces = []
    for e, c in terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "v" if e == 1 else f"v^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def _coerce(x) -> "LaurentPoly":
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly(x)
    return NotImplemented


def _wrap(coeffs: dict[int, int]) -> LaurentPoly:
    """The polynomial owning coeffs, which holds no zero coefficient and
    which no one else mutates: no filter, no copy."""
    p = object.__new__(LaurentPoly)
    p._c = coeffs
    return p


ZERO = LaurentPoly(0)
ONE = LaurentPoly(1)
V = LaurentPoly.v_power(1)


# -- products into a plain dict ------------------------------------------------


def _add_product(acc: dict[int, int], a: LaurentPoly, b: LaurentPoly,
                 shift: int) -> None:
    """acc += v^shift * a * b, in place; acc may keep zeros.  The dict
    kernel of ``LaurentPoly.__mul__``."""
    a, b = a._c, b._c
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        ea += shift
        for eb, cb in b.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + ca * cb


def _finish(acc: dict[int, int]) -> LaurentPoly:
    """The polynomial of a finished accumulator, zeros dropped."""
    return _wrap({e: c for e, c in acc.items() if c})


# -- the packed form -----------------------------------------------------------


def _pack(c: LaurentPoly, base: int, k: int) -> tuple[int, int]:
    """c as one int, digit e at bits k(e - base), and the L1 norm of c."""
    packed = l1 = 0
    for e, d in c._c.items():
        packed += d << k * (e - base)
        l1 += abs(d)
    return packed, l1


def _digits(x: int, base: int, k: int, stop: int | None = None
            ) -> tuple[dict[int, int], int]:
    """The nonzero digits of x by exponent, digit e read from bits
    k(e - base) into [-2^(k-1), 2^(k-1)), below exponent stop if given;
    and their L1 norm."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    out, l1, e = {}, 0, base
    while x and e != stop:
        if d := x & mask:
            if d >= half:
                d -= mask + 1
            out[e] = d
            l1 += abs(d)
            x -= d
        x >>= k
        e += 1
    return out, l1


def _fits(bound: int, k: int) -> bool:
    """Whether digits of L1 norm at most bound fit width k: bound < 2^(k-2).
    Then every sum of digits lies below 2^(k-2), so digits decode uniquely,
    low bits are zero exactly when their digits are, and _divide is sound."""
    return not bound >> (k - 2)


def _width(bound: int, k: int = 16) -> int:
    """The first width, from k doubling, that bound fits."""
    while not _fits(bound, k):
        k *= 2
    return k


def _decode(x: int, base: int, k: int) -> LaurentPoly:
    """The polynomial packed as x at base and width k."""
    return _wrap(_digits(x, base, k)[0])


def _repack(x: int, k: int, to: int) -> int:
    """x, its digits read at width k, packed at width to at the same base."""
    return sum(d << to * e for e, d in _digits(x, 0, k)[0].items())


def _symmetric_part(x: int, base: int, k: int) -> tuple[int, int]:
    """The symmetric part of a packed coefficient, packed at its base, and
    its L1 norm.  The base must be at most 0: the digits mirrored are those
    at exponents base..0."""
    low, l1 = _digits(x, base, k, 1)
    t = 0
    for e, c in low.items():
        t += c << k * (e - base)
        if e:
            t += c << k * (-e - base)
    return t, 2 * l1 - abs(low.get(0, 0))


def _divide(num: dict[int, int], base: int, k: int) -> dict[int, int]:
    """The nonzero quotients of packed numerators by v - v^-1, by key,
    packed at base + 1, or ExactDivisionError.

    With X = 2^k, v^e (v - v^-1) packs to X^(e-1-base) (X^2 - 1), so this
    is one divmod by X^2 - 1, sound when each numerator's L1 norm fits
    width k (_fits).  Modulo X^2 - 1 a numerator p is A + X B, A and B the
    sums of its digits at even and at odd places, each below 2^(k-2); so
    the remainder is 0 exactly when A = B = 0, that is p(1) = p(-1) = 0:
    when v - v^-1 divides p.  No carry can hide a remainder."""
    div, out = (1 << 2 * k) - 1, {}
    for q, x in num.items():
        quotient, remainder = divmod(x, div)
        if remainder:
            raise ExactDivisionError(f"{_decode(x, base, k)} "
                                     "is not divisible by v - v^-1")
        if quotient:
            out[q] = quotient
    return out


def quantum_integer(a: int) -> LaurentPoly:
    """(v^a - v^-a)/(v - v^-1): v^(a-1) + v^(a-3) + ... + v^(1-a)."""
    if a < 0:
        return -quantum_integer(-a)
    return LaurentPoly({a - 1 - 2 * k: 1 for k in range(a)})
