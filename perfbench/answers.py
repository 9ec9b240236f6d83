"""Known answers computed without mzvkit.

Everything here is written from the definitions, so that a verdict the
program prints can be checked against something the program did not compute:

* the four-term combination mu(j) - mu(-j) + mu(1-j) - mu(j-1), evaluated
  coordinate-wise on row-major tables over (Z/qZ)^r, q = p^n;
* the kernel dimension in closed form.  The operator factors as
  T = (1 - tau)(1 - sigma) with sigma: x -> -x and tau: x -> x - 1 acting
  diagonally, so mu is in the kernel exactly when mu - sigma(mu) is constant
  on tau-orbits.  That gives
  dim = #(sigma-orbits on cells) + #(sigma-pairs {O, sigma O} of tau-orbits
  with O != sigma O);
* seeded integer kernel measures built from the same factorization;
* moments, coset sums and p-adic valuations with plain integers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial, gcd


def cells(q: int, r: int) -> list[tuple[int, ...]]:
    """Residue tuples in row-major order (first coordinate most significant)."""
    return list(product(range(q), repeat=r))


def _index(point: tuple[int, ...], q: int) -> int:
    index = 0
    for c in point:
        index = index * q + c % q
    return index


def four_term_maps(q: int, r: int) -> tuple[list[int], list[int], list[int]]:
    """Row-major indices of -j, 1-j and j-1 for every cell j."""
    points = cells(q, r)
    return (
        [_index(tuple(-c for c in point), q) for point in points],
        [_index(tuple(1 - c for c in point), q) for point in points],
        [_index(tuple(c - 1 for c in point), q) for point in points],
    )


def in_kernel(values: list[int], maps: tuple[list[int], list[int], list[int]]) -> bool:
    """Whether mu(j) - mu(-j) + mu(1-j) - mu(j-1) vanishes in every cell."""
    neg, one_minus, minus_one = maps
    return all(
        values[i] - values[neg[i]] + values[one_minus[i]] - values[minus_one[i]] == 0
        for i in range(len(values))
    )


def _tau_orbit_key(point: tuple[int, ...], q: int) -> tuple[int, ...]:
    # the tau-orbit of x is x + Z(1, ..., 1); its member with first coordinate 0
    # names it
    return tuple((c - point[0]) % q for c in point)


def kernel_dimension(p: int, n: int, r: int) -> int:
    """Closed-form dimension of the four-term kernel on (Z/p^n Z)^r."""
    q = p**n
    sigma_orbits = set()
    for point in cells(q, r):
        sigma_orbits.add(min(point, tuple(-c % q for c in point)))
    keys = {_tau_orbit_key(point, q) for point in cells(q, r)}
    paired = 0
    for key in keys:
        image = tuple(-c % q for c in key)
        if image != key:
            paired += 1
    return len(sigma_orbits) + paired // 2


def random_kernel_values(p: int, n: int, r: int, rng: random.Random, magnitude: int = 9) -> list[int]:
    """A seeded integer measure in the four-term kernel.

    It is s + h with s sigma-invariant and h(x) = g(x) on one point of each
    free sigma-orbit {x, -x}, 0 on the other, where g is constant on tau-orbits
    and g(sigma O) = -g(O).  Then mu - sigma(mu) = g, which tau fixes.
    """
    q = p**n
    points = cells(q, r)
    values = [0] * len(points)
    for point in points:
        mirror = tuple(-c % q for c in point)
        if point <= mirror:
            value = rng.randint(-magnitude, magnitude)
            values[_index(point, q)] = value
            values[_index(mirror, q)] = value
    g: dict[tuple[int, ...], int] = {}
    for key in sorted({_tau_orbit_key(point, q) for point in points}):
        mirror = _tau_orbit_key(tuple(-c % q for c in key), q)
        if key < mirror:
            g[key] = rng.randint(-magnitude, magnitude)
            g[mirror] = -g[key]
        elif key == mirror:
            g[key] = 0
    for point in points:
        mirror = tuple(-c % q for c in point)
        if point < mirror:
            values[_index(point, q)] += g[_tau_orbit_key(point, q)]
    return values


def exponent_words(length: int, cap: int, odd_only: bool) -> list[tuple[int, ...]]:
    """Words of non-negative exponents with sum at most cap, in product order."""
    return [
        word
        for word in product(range(cap + 1), repeat=length)
        if sum(word) <= cap and not (odd_only and sum(word) % 2 == 0)
    ]


def coset_count(p: int, n: int, r: int) -> int:
    """Cosets swept by check-cosets: all bases at modulus exponents {1, n}."""
    exponents = sorted({1, n}) if n >= 1 else [0]
    return sum(p ** (e * r) for e in exponents)


def valuation(value: Fraction | int, p: int) -> int | None:
    """p-adic valuation, None for zero."""
    value = Fraction(value)
    if value == 0:
        return None
    v = 0
    num, den = value.numerator, value.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _integrand(point: tuple[int, ...], word: tuple[int, ...], final_offset: int = 0) -> int:
    # (-x_1)^{e_0} (x_1 - x_2)^{e_1} ... (x_{r-1} - x_r)^{e_{r-1}} (x_r + offset)^{e_r}
    value = (-point[0]) ** word[0]
    for k in range(1, len(point)):
        value *= (point[k - 1] - point[k]) ** word[k]
    return value * (point[-1] + final_offset) ** word[-1]


def moment(values: list[int], q: int, r: int, word: tuple[int, ...]) -> int:
    return sum(v * _integrand(point, word) for point, v in zip(cells(q, r), values) if v)


def lambda_value(moment_value: int, word: tuple[int, ...]) -> Fraction:
    norm = 1
    for e in word:
        norm *= factorial(e)
    return Fraction(moment_value, norm)


def coset_identity(values: list[int], p: int, n: int, r: int,
                   base: tuple[int, ...], modulus_exponent: int, exponents: tuple[int, ...]) -> int:
    """Signed four-coset sum: cosets at b, -b, 1-b, b-1 with final factors
    x^e, x^e, (x-1)^e, (x+1)^e and signs +1, (-1)^(m+1), (-1)^m, -1."""
    q = p**n
    stride = p**modulus_exponent
    word = (0, *exponents)
    m_sign = -1 if sum(exponents) % 2 else 1

    def coset_sum(coset_base: tuple[int, ...], offset: int) -> int:
        axes = [range(b % stride, q, stride) for b in coset_base]
        total = 0
        for point in product(*axes):
            v = values[_index(point, q)]
            if v:
                total += v * _integrand(point, word, offset)
        return total

    return (
        coset_sum(base, 0)
        - m_sign * coset_sum(tuple(-b for b in base), 0)
        + m_sign * coset_sum(tuple(1 - b for b in base), -1)
        - coset_sum(tuple(b - 1 for b in base), 1)
    )


def is_primitive(vector: list[int]) -> bool:
    """Content 1 and first nonzero entry positive."""
    content = 0
    for v in vector:
        content = gcd(content, v)
    first = next((v for v in vector if v), 0)
    return content == 1 and first > 0


def has_private_cells(vectors: list[list[int]]) -> bool:
    """Each vector is nonzero on a cell where every other vector is zero,
    which is enough for the vectors to be linearly independent."""
    if not vectors:
        return True
    support_count = [0] * len(vectors[0])
    for vector in vectors:
        for i, v in enumerate(vector):
            if v:
                support_count[i] += 1
    return all(any(v and support_count[i] == 1 for i, v in enumerate(vector)) for vector in vectors)
