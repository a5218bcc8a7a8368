"""Exact Laurent polynomials in one variable ``v`` with integer coefficients.

Sparse representation: a dict mapping exponent to coefficient, with zero
coefficients never stored.  All arithmetic is exact (Python ints).  Besides
ring operations the class carries the involution ``bar`` (v -> 1/v), the
bar-symmetric truncation ``symmetric_part``, and exact division by
``v - v^-1``, which is what the basis-correction algorithms downstream need.

>>> p = LaurentPoly({1: 2, -1: 2})
>>> print(p * p)
4*v^2 + 8 + 4*v^-2
>>> print(quantum_integer(3))
v^2 + 1 + v^-2

``LaurentPoly`` and ``AlgebraElement`` arithmetic accumulate each
coefficient in a plain ``dict[int, int]`` (a *raw* dict, which may hold
zeros) through a small kernel, the oracle of the packed ints of
``canonical.BasisCache``, and make a ``LaurentPoly`` only when finished:

* ``add_product(acc, a, b, shift, sign)`` adds ``sign * v^shift * a * b``
  to ``acc`` in place; ``a`` and ``b`` are polynomials or raw dicts;
* ``finish(acc)`` drops the zeros and returns the ``LaurentPoly``;
* ``symmetric_part`` and ``divide_by_v_minus_vinv`` are the raw forms of
  the methods of the same names, which wrap them.

>>> acc = {}
>>> add_product(acc, V, {0: 1, -2: 1}, shift=1, sign=-1)
>>> add_product(acc, ONE, {2: 1})
>>> acc
{2: 0, 0: -1}
>>> print(finish(acc))
-1

A ``LaurentPoly`` is hashed and memoized, so the dict it owns is never
mutated: the kernel reads such dicts and writes only to dicts its caller
owns, and ``raw`` hands out a copy.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ExactDivisionError",
    "LaurentPoly",
    "ZERO",
    "ONE",
    "V",
    "add_product",
    "divide_by_v_minus_vinv",
    "finish",
    "quantum_integer",
    "raw",
    "symmetric_part",
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
        add_product(acc, self, other)
        return finish(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are only defined for monomials")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        return _wrap(symmetric_part(self._c))

    def divide_by_v_minus_vinv(self) -> "LaurentPoly":
        """Exact division by (v - v^-1); raises ExactDivisionError otherwise."""
        return _wrap(divide_by_v_minus_vinv(self._c))

    # -- comparison, hashing, rendering --------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
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


# -- the raw-coefficient kernel ----------------------------------------------


def add_product(acc: dict[int, int], a: LaurentPoly | dict[int, int],
                b: LaurentPoly | dict[int, int], shift: int = 0,
                sign: int = 1) -> None:
    """acc += sign * v^shift * a * b, in place; acc may keep zeros."""
    if isinstance(a, LaurentPoly):
        a = a._c
    if isinstance(b, LaurentPoly):
        b = b._c
    if len(a) > len(b):
        a, b = b, a
    for ea, ca in a.items():
        ea += shift
        ca *= sign
        for eb, cb in b.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + ca * cb


def finish(acc: dict[int, int]) -> LaurentPoly:
    """The polynomial of a finished accumulator, zeros dropped."""
    return _wrap({e: c for e, c in acc.items() if c})


def raw(p: LaurentPoly) -> dict[int, int]:
    """A copy of p's coefficients, free to accumulate into."""
    return dict(p._c)


def symmetric_part(coeffs: dict[int, int]) -> dict[int, int]:
    """The raw form of LaurentPoly.symmetric_part: the constant term, and
    each coefficient of a negative exponent at that exponent and its
    negation.  Keeps zeros of coeffs."""
    out: dict[int, int] = {}
    c0 = coeffs.get(0, 0)
    if c0:
        out[0] = c0
    for e, c in coeffs.items():
        if e < 0:
            out[e] = c
            out[-e] = c
    return out


def divide_by_v_minus_vinv(coeffs: dict[int, int]) -> dict[int, int]:
    """The raw form of LaurentPoly.divide_by_v_minus_vinv; the quotient
    holds no zeros, whether or not coeffs does.

    Solves the two-term recurrence q[k+1] = q[k-1] - p[k] upward from
    below the support; the quotient is finitely supported exactly when
    the top two recurrence values vanish.  Zeros stored at either end of
    coeffs only carry the recurrence values along, so they change neither
    the quotient nor the test.
    """
    if not coeffs:
        return {}
    lo = min(coeffs)
    hi = max(coeffs)
    q: dict[int, int] = {}
    below = at = 0  # q[k - 1] and q[k]
    for k in range(lo, hi + 1):
        below, at = at, below - coeffs.get(k, 0)
        if at:
            q[k + 1] = at
    # Now at is q[hi + 1] and below is q[hi].
    if below or at:
        raise ExactDivisionError(
            f"{finish(coeffs)} is not divisible by v - v^-1")
    return q


def quantum_integer(a: int) -> LaurentPoly:
    """(v^a - v^-a)/(v - v^-1): v^(a-1) + v^(a-3) + ... + v^(1-a)."""
    if a < 0:
        return -quantum_integer(-a)
    return LaurentPoly({a - 1 - 2 * k: 1 for k in range(a)})
