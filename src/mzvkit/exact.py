"""Exact scalar arithmetic: p-adic valuations, Bernoulli numbers, binomials.

Every quantity in this package is a ``fractions.Fraction`` or an int; nothing
here ever rounds.  The only non-rational value is the valuation of zero,
reported as ``INFINITY`` so that threshold comparisons work unchanged.
:class:`Immutable` is the base of every value class in the package.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb, inf
from operator import index

__all__ = [
    "INFINITY",
    "is_prime",
    "check_config",
    "check_word",
    "padic_valuation",
    "bernoulli",
    "binomial",
    "format_rational",
    "parse_rational",
]

INFINITY = inf


class Immutable:
    """Base of the value classes: ``_fields`` names the fields, which
    ``_assign`` sets once.  Instances of one class with equal fields are
    equal and hash alike (a dict field makes ``hash`` a TypeError), the repr
    is ``Name(field=value, ...)``, and assignment raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _new(cls, *values: object):
        """Trusted constructor: the fields as given, without ``__init__``'s checks."""
        instance = cls.__new__(cls)
        instance._assign(*values)
        return instance

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises ValueError at or above 3.3e24, where the fixed bases no longer
    decide primality.
    """
    if p < 2:
        return False
    for base in _MILLER_RABIN_BASES:
        if p % base == 0:
            return p == base
    if p < _MILLER_RABIN_BASES[-1] ** 2:
        return True
    if p >= _MILLER_RABIN_BOUND:
        raise ValueError(f"primality of {p} is not decided above {_MILLER_RABIN_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_config(p: int, n: int, r: int, max_cells: int | None = None,
                 bound: str = "the cap") -> int | None:
    """Reject a configuration (p, n, r) unless p is prime, n >= 0 and r >= 1.

    With ``max_cells``, the p^(n*r) cells are counted one factor of p at a
    time, stopping as soon as the count exceeds ``max_cells``, so no large
    power is built; the count is returned.  Primality is tested last, once
    everything cheaper has passed.  ``bound`` names ``max_cells`` in the
    error message.
    """
    if p < 2:  # checked first: the cell count below only grows for p >= 2
        raise ValueError(f"p must be prime, got {p}")
    if n < 0:
        raise ValueError(f"level must be non-negative, got {n}")
    if r < 1:
        raise ValueError(f"depth must be at least 1, got {r}")
    cells = None
    if max_cells is not None:
        cells = 1
        for _ in range(n * r):
            cells *= p
            if cells > max_cells:
                raise ValueError(f"configuration needs {p}^{n * r} cells, "
                                 f"above {bound} {max_cells}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return cells


_INT_TYPE = {int}


def check_word(exponents: Iterable[int], length: int | None = None) -> tuple[int, ...]:
    """An exponent word as a tuple of non-negative ints: ``length`` of them
    when given, else at least one.  A tuple of ints that passes every check is
    returned as it is, so a sweep holds each word once; its element types
    and its least entry are each read in one pass in C."""
    if type(exponents) is tuple and set(map(type, exponents)) <= _INT_TYPE:
        word = exponents
    else:
        word = tuple(map(index, exponents))
    if not word:
        raise ValueError("exponent word must be non-empty")
    if length is not None and len(word) != length:
        raise ValueError(f"exponent word must have length {length}, got {len(word)}")
    if min(word) < 0:
        raise ValueError("exponents must be non-negative")
    return word


@lru_cache(maxsize=64)
def _is_prime_base(p: int) -> bool:
    return is_prime(p)


def _int_valuation(k: int, p: int) -> int:
    # k must be nonzero
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def padic_valuation(q: Fraction | int, p: int) -> int | float:
    """p-adic valuation of a rational, with ``INFINITY`` for zero.

    Raises ValueError when p is not prime.
    """
    if not _is_prime_base(p):
        raise ValueError(f"valuation base must be prime, got {p}")
    if type(q) is int:
        return INFINITY if q == 0 else _int_valuation(q, p)
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return _int_valuation(q.numerator, p) - _int_valuation(q.denominator, p)


# B_0, B_1, ... (B_1 = +1/2) so far, and the Akiyama-Tanigawa row they end on
_BERNOULLI: list[Fraction] = []
_TRIANGLE_ROW: list[Fraction] = []


def bernoulli(k: int) -> Fraction:
    """k-th Bernoulli number in the B_1 = -1/2 convention.

    Computed by the Akiyama-Tanigawa triangle, which natively yields the
    B_1 = +1/2 convention; the two conventions differ only at index 1.  Step
    m of the triangle gives B_m, so one pass, kept between calls, gives
    every index up to the largest asked for.
    """
    if k < 0:
        raise ValueError("Bernoulli index must be non-negative")
    row = _TRIANGLE_ROW
    for m in range(len(_BERNOULLI), k + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        _BERNOULLI.append(row[0])
    return Fraction(-1, 2) if k == 1 else _BERNOULLI[k]


def binomial(a: int, b: int) -> int:
    """C(a, b) with the convention that out-of-range b gives 0."""
    if a < 0:
        raise ValueError("binomial row index must be non-negative")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def _exact(value: object) -> Fraction | int:
    """An int or Fraction value; a float, say, would be stored as its binary
    fraction, so anything else is a TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"coefficient must be an int or Fraction, not {type(value).__name__}")
    return value


def format_rational(q: Fraction | int) -> str:
    """Canonical string form: lowest terms, positive denominator, "n" or "n/d".

    An int or a Fraction is formatted as it is; anything else (a bool, say)
    is converted to a Fraction first.
    """
    if type(q) is int:
        return str(q)
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction | int:
    """Inverse of :func:`format_rational`: a string ``-?[0-9]+(/[0-9]+)?``,
    read as an int when it has no ``/``, else as a Fraction.

    Raises ValueError for a non-string, any other string (no spaces, signs
    but a leading minus, decimal points, exponents or underscores) and a
    zero denominator.  The grammar is matched before any digit is read, so
    ``"1e10000000"`` is refused without building its value.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {text!r}")
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(f'rational must be "n" or "n/d" in decimal digits, got {text[:40]!r}')
    numerator, _, denominator = text.partition("/")
    if not denominator:
        return int(numerator)
    try:
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
