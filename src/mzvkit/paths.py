"""Symbolic path words and the cocycle calculus on series-valued assignments.

Base paths are opaque names carrying no topology; what is modeled is the
composition rule for cocycle values, the letter substitutions the paths induce
on the cyclic alphabet, and the eight-factor closure product together with its
depth-graded four-factor reduction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import Mapping

from .exact import Immutable
from .measures import FOUR_TERM
from .series import (
    Alphabet,
    LambdaTable,
    NCSeries,
    Word,
    X,
    inverse,
    series_from_json_dict,
    series_to_json_dict,
    substitute,
)

__all__ = [
    "OCTAGON_FACTORS",
    "PathWord",
    "PathCocycle",
    "octagon_relation",
    "octagon_conjugators",
    "rotate_letters",
    "invert_letters",
    "compose_cocycle",
    "inverse_cocycle",
    "octagon_product",
    "rhombus_product",
]

# Factor order of the closure product, leftmost first.
OCTAGON_FACTORS = ("s", "c", "e", "d", "eta", "q", "t", "pi")


class PathWord(Immutable):
    """Freely reduced word in named path generators with exponents +-1."""

    _fields = ("syllables",)

    def __init__(self, syllables: tuple[tuple[str, int], ...] = ()) -> None:
        for name, exponent in syllables:
            if exponent not in (1, -1):
                raise ValueError("syllable exponents must be +1 or -1")
            if not name:
                raise ValueError("empty generator name")
        if any(
            a[0] == b[0] and a[1] == -b[1]
            for a, b in zip(syllables, syllables[1:])
        ):
            raise ValueError("word is not freely reduced")
        self._assign(syllables)

    @classmethod
    def identity(cls) -> "PathWord":
        return cls(())

    @classmethod
    def generator(cls, name: str, exponent: int = 1) -> "PathWord":
        return cls(((name, exponent),))

    def __mul__(self, other: "PathWord") -> "PathWord":
        stack = list(self.syllables)
        for syllable in other.syllables:
            if stack and stack[-1][0] == syllable[0] and stack[-1][1] == -syllable[1]:
                stack.pop()
            else:
                stack.append(syllable)
        return PathWord(tuple(stack))

    def inverse(self) -> "PathWord":
        return PathWord(tuple((name, -exp) for name, exp in reversed(self.syllables)))

    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return len(self.syllables)


def octagon_relation() -> PathWord:
    """The closure word s c e d eta q t pi whose cocycle product collapses to 1."""
    word = PathWord.identity()
    for name in OCTAGON_FACTORS:
        word = word * PathWord.generator(name)
    return word


def octagon_conjugators() -> dict[str, PathWord]:
    """The nested prefix paths conjugating each closure factor into place."""
    pi = PathWord.generator("pi")
    a1 = PathWord.generator("t") * pi
    a2 = PathWord.generator("q") * a1
    a3 = PathWord.generator("eta") * a2
    a4 = PathWord.generator("d") * a3
    a5 = PathWord.generator("e") * a4
    a6 = PathWord.generator("c") * a5
    return {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5, "a6": a6}


def rotate_letters(alphabet: Alphabet, degree_cap: int, step: int = 1) -> dict[int, NCSeries]:
    """Letter map Y_i -> Y_{i+step mod p^n}, X -> X, as substitution images."""
    images = {X: NCSeries.letter(alphabet, degree_cap, X)}
    modulus = alphabet.modulus
    for i in range(modulus):
        images[i] = NCSeries.letter(alphabet, degree_cap, (i + step) % modulus)
    return images


def invert_letters(
    alphabet: Alphabet, degree_cap: int, x_image: NCSeries | None = None
) -> dict[int, NCSeries]:
    """Letter map Y_i -> Y_{-i mod p^n}; the image of X must be supplied if X occurs.

    The index map fixes Y_0 and pairs the remaining letters with their negatives.
    """
    images: dict[int, NCSeries] = {}
    if x_image is not None:
        images[X] = x_image
    modulus = alphabet.modulus
    for i in range(modulus):
        images[i] = NCSeries.letter(alphabet, degree_cap, (-i) % modulus)
    return images


def _require_group_like_head(series: NCSeries, role: str) -> None:
    if series.constant_term != 1:
        raise ValueError(f"{role} must have constant term 1")


def compose_cocycle(
    f_beta: NCSeries,
    f_alpha: NCSeries,
    alpha_conj: Mapping[int, NCSeries] | None = None,
) -> NCSeries:
    """Cocycle value of a composite path: conjugate the left factor, then multiply.

    ``alpha_conj`` is the letter substitution realizing conjugation by the
    right-hand path; None means that conjugation acts trivially here.
    """
    _require_group_like_head(f_beta, "left cocycle factor")
    _require_group_like_head(f_alpha, "right cocycle factor")
    left = substitute(f_beta, alpha_conj) if alpha_conj is not None else f_beta
    return left * f_alpha


def inverse_cocycle(
    f_alpha: NCSeries,
    alpha_conj: Mapping[int, NCSeries] | None = None,
) -> NCSeries:
    """Cocycle value of the reversed path: series inverse, then conjugation.

    ``alpha_conj`` realizes conjugation by the reversed path as a letter
    substitution; None means it acts trivially here.
    """
    _require_group_like_head(f_alpha, "cocycle factor")
    inv = inverse(f_alpha)
    return substitute(inv, alpha_conj) if alpha_conj is not None else inv


class PathCocycle(Immutable):
    """Assignment of a constant-term-1 series to each named path."""

    _fields = ("assignments",)

    def __init__(self, assignments: Mapping[str, NCSeries]) -> None:
        frozen = dict(assignments)
        for name, series in frozen.items():
            if series.constant_term != 1:
                raise ValueError(f"cocycle value for {name!r} must have constant term 1")
        self._assign(frozen)

    def series(self, name: str) -> NCSeries:
        try:
            return self.assignments[name]
        except KeyError:
            raise ValueError(f"cocycle has no value for path {name!r}") from None

    def to_json_dict(self) -> dict:
        return {name: series_to_json_dict(s) for name, s in sorted(self.assignments.items())}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PathCocycle":
        return cls({name: series_from_json_dict(entry) for name, entry in data.items()})


def octagon_product(
    cocycle: PathCocycle,
    conjugators: Mapping[str, Mapping[int, NCSeries] | None] | None = None,
) -> NCSeries:
    """Eight-factor closure product, each factor conjugated into place.

    ``conjugators`` maps a factor name to the letter substitution realizing its
    conjugator (None or absent means the conjugation acts trivially).  All
    eight factors must be assigned.
    """
    conjugators = dict(conjugators or {})
    result: NCSeries | None = None
    for name in OCTAGON_FACTORS:
        factor = cocycle.series(name)
        conj = conjugators.get(name)
        if conj is not None:
            factor = substitute(factor, conj)
        result = factor if result is None else result * factor
    assert result is not None
    return result


def rhombus_product(table: LambdaTable) -> NCSeries:
    """Four-factor depth-graded product of the table's series, one factor per
    ``FOUR_TERM`` entry in reverse order, truncated at depth r.

    The factor for (sign, scale, offset) carries sign * coeff on each index
    pushed along the inverse map i -> scale*i - scale*offset, so the factors
    reindex by i+1, 1-i, -i, i with signs -, +, -, +.  The product's deviation
    from 1 is exactly the signed four-term combination of the table, which is
    what the measure-side operator computes cell-wise.
    """
    alphabet = Alphabet(table.p, table.n)
    modulus = alphabet.modulus

    def factor(sign: int, scale: int, offset: int) -> NCSeries:
        terms: dict[Word, Fraction] = {(): Fraction(1)}
        for idx, coeff in table.coeffs.items():
            word = tuple((scale * (i - offset)) % modulus for i in idx)
            terms[word] = sign * coeff
        return NCSeries(alphabet, table.r, terms)

    return reduce(mul, (factor(*term) for term in reversed(FOUR_TERM)))
