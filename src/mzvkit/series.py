"""Truncated non-commutative power series over the letters X, Y_0, ..., Y_{p^n - 1}.

Words are tuples of letter codes: X is the sentinel -1, the cyclic letters are
their residues 0 <= i < p^n.  A series holds a map word -> Fraction up to a
fixed truncation degree; all operations are exact and return new objects.

Products, exp, log, inverse and substitution run on integer numerators over
one common denominator (``_numerators``, ``_product``), and build one
``Fraction`` per output word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .exact import check_config, format_rational, parse_rational

__all__ = [
    "X",
    "Word",
    "Alphabet",
    "NCSeries",
    "LambdaTable",
    "exp",
    "log",
    "inverse",
    "substitute",
    "depth_truncate",
    "y_pure_part",
    "from_lambda_table",
    "to_lambda_table",
    "series_to_json_dict",
    "series_from_json_dict",
]

X = -1

Word = tuple[int, ...]
EMPTY_WORD: Word = ()
IntBuckets = dict[int, dict[Word, int]]  # degree -> word -> integer numerator


@dataclass(frozen=True)
class Alphabet:
    """Letter set selector: X plus one cyclic letter per residue mod p^n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        check_config(self.p, self.n, 1)  # an alphabet has no depth: r = 1 checks p and n

    @property
    def modulus(self) -> int:
        return self.p**self.n

    @property
    def size(self) -> int:
        return self.modulus + 1

    def letters(self) -> tuple[int, ...]:
        return (X, *range(self.modulus))

    def check_letter(self, letter: int) -> None:
        if letter != X and not 0 <= letter < self.modulus:
            raise ValueError(f"letter code {letter} outside alphabet mod {self.modulus}")

    def letter_name(self, letter: int) -> str:
        self.check_letter(letter)
        return "X" if letter == X else f"Y{letter}"

    def parse_letter(self, name: str) -> int:
        if name == "X":
            return X
        if name.startswith("Y"):
            try:
                code = int(name[1:])
            except ValueError:
                raise ValueError(f"bad letter name {name!r}") from None
            self.check_letter(code)
            return code
        raise ValueError(f"bad letter name {name!r}")

    def word_name(self, word: Word) -> str:
        return ".".join(self.letter_name(letter) for letter in word)

    def parse_word(self, text: str) -> Word:
        if not text:
            return EMPTY_WORD
        return tuple(self.parse_letter(part) for part in text.split("."))


class NCSeries:
    """Exact series truncated at a fixed total degree.

    Binary operations require both operands to carry the same alphabet and the
    same truncation degree; nothing is coerced silently.
    """

    __slots__ = ("alphabet", "degree_cap", "_terms", "_buckets")

    def __init__(
        self,
        alphabet: Alphabet,
        degree_cap: int,
        terms: Mapping[Word, Fraction] | Iterable[tuple[Word, Fraction]] = (),
    ) -> None:
        if degree_cap < 0:
            raise ValueError("truncation degree must be non-negative")
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: dict[Word, Fraction] = {}
        for word, coeff in items:
            word = tuple(word)
            if len(word) > degree_cap:
                raise ValueError(
                    f"word of degree {len(word)} above truncation degree {degree_cap}"
                )
            for letter in word:
                alphabet.check_letter(letter)
            coeff = Fraction(coeff)
            if word in collected:
                coeff = collected[word] + coeff
            if coeff:
                collected[word] = coeff
            else:
                collected.pop(word, None)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "_terms", collected)
        object.__setattr__(self, "_buckets", _bucket_by_degree(collected))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("NCSeries is immutable")

    @classmethod
    def _raw(cls, alphabet: Alphabet, degree_cap: int, terms: dict[Word, Fraction]) -> "NCSeries":
        # trusted constructor: words already validated, zeros possibly present
        series = cls.__new__(cls)
        cleaned = {word: coeff for word, coeff in terms.items() if coeff}
        object.__setattr__(series, "alphabet", alphabet)
        object.__setattr__(series, "degree_cap", degree_cap)
        object.__setattr__(series, "_terms", cleaned)
        object.__setattr__(series, "_buckets", _bucket_by_degree(cleaned))
        return series

    @classmethod
    def _from_numerators(
        cls,
        alphabet: Alphabet,
        degree_cap: int,
        numerators: IntBuckets,
        scale: int,
        denominator: int,
    ) -> "NCSeries":
        # trusted constructor: coefficient of each word is scale * numerator / denominator
        terms: dict[Word, Fraction] = {}
        buckets: dict[int, dict[Word, Fraction]] = {}
        for degree, bucket in numerators.items():
            kept = {word: Fraction(v * scale, denominator) for word, v in bucket.items() if v}
            if kept:
                buckets[degree] = kept
                terms.update(kept)
        series = cls.__new__(cls)
        object.__setattr__(series, "alphabet", alphabet)
        object.__setattr__(series, "degree_cap", degree_cap)
        object.__setattr__(series, "_terms", terms)
        object.__setattr__(series, "_buckets", buckets)
        return series

    @classmethod
    def zero(cls, alphabet: Alphabet, degree_cap: int) -> "NCSeries":
        return cls(alphabet, degree_cap)

    @classmethod
    def one(cls, alphabet: Alphabet, degree_cap: int) -> "NCSeries":
        return cls(alphabet, degree_cap, {EMPTY_WORD: Fraction(1)})

    @classmethod
    def letter(
        cls, alphabet: Alphabet, degree_cap: int, letter: int, coeff: Fraction | int = 1
    ) -> "NCSeries":
        return cls(alphabet, degree_cap, {(letter,): Fraction(coeff)})

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get(EMPTY_WORD, Fraction(0))

    def coeff(self, word: Word) -> Fraction:
        """Coefficient of a word; asking beyond the truncation degree is an error."""
        word = tuple(word)
        if len(word) > self.degree_cap:
            raise ValueError(
                f"word of degree {len(word)} is not tracked at truncation degree {self.degree_cap}"
            )
        for letter in word:
            self.alphabet.check_letter(letter)
        return self._terms.get(word, Fraction(0))

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        """Deterministic iteration: by degree, then lexicographically."""
        for word in sorted(self._terms, key=lambda w: (len(w), w)):
            yield word, self._terms[word]

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _compatible(self, other: "NCSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("series over different alphabets")
        if self.degree_cap != other.degree_cap:
            raise ValueError("series with different truncation degrees")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.degree_cap == other.degree_cap
            and self._terms == other._terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "NCSeries") -> "NCSeries":
        self._compatible(other)
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            if word in out:
                out[word] += coeff
            else:
                out[word] = coeff
        return NCSeries._raw(self.alphabet, self.degree_cap, out)

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        self._compatible(other)
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            if word in out:
                out[word] -= coeff
            else:
                out[word] = -coeff
        return NCSeries._raw(self.alphabet, self.degree_cap, out)

    def __neg__(self) -> "NCSeries":
        return NCSeries._raw(
            self.alphabet, self.degree_cap, {w: -c for w, c in self._terms.items()}
        )

    def _scaled(self, scalar: Fraction | int) -> "NCSeries":
        scalar = Fraction(scalar)
        if not scalar:
            return NCSeries.zero(self.alphabet, self.degree_cap)
        numerators, denominator = _numerators(self._buckets)
        return NCSeries._from_numerators(
            self.alphabet, self.degree_cap, numerators, scalar.numerator,
            denominator * scalar.denominator,
        )

    def __mul__(self, other: "NCSeries | Fraction | int") -> "NCSeries":
        if not isinstance(other, NCSeries):
            return self._scaled(other)
        self._compatible(other)
        left, left_den = _numerators(self._buckets)
        right, right_den = _numerators(other._buckets)
        return NCSeries._from_numerators(
            self.alphabet, self.degree_cap, _product(left, right, self.degree_cap), 1,
            left_den * right_den,
        )

    def __rmul__(self, scalar: Fraction | int) -> "NCSeries":
        return self._scaled(scalar)

    def __repr__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for word, coeff in self.terms():
                name = self.alphabet.word_name(word) or "1"
                parts.append(f"{format_rational(coeff)}*{name}")
            body = " + ".join(parts)
        return f"NCSeries(p={self.alphabet.p}, n={self.alphabet.n}, D={self.degree_cap}: {body})"


def _bucket_by_degree(terms: dict[Word, Fraction]) -> dict[int, dict[Word, Fraction]]:
    buckets: dict[int, dict[Word, Fraction]] = {}
    for word, coeff in terms.items():
        buckets.setdefault(len(word), {})[word] = coeff
    return buckets


def _numerators(buckets: dict[int, dict[Word, Fraction]]) -> tuple[IntBuckets, int]:
    """Integer numerators over the lcm of the coefficients' denominators, and that lcm."""
    denominator = lcm(*{c.denominator for bucket in buckets.values() for c in bucket.values()})
    return {
        degree: {word: c.numerator * (denominator // c.denominator) for word, c in bucket.items()}
        for degree, bucket in buckets.items()
    }, denominator


def _product(left: IntBuckets, right: IntBuckets, cap: int) -> IntBuckets:
    """Truncated product of two degree-bucketed integer series without zero entries.

    Within one pair of degrees every concatenation is a distinct word, so the
    first pair reaching an output degree fills its bucket directly; later pairs
    add into it, and only those buckets can cancel to zero.
    """
    out: IntBuckets = {}
    merged: set[int] = set()
    for deg_a, bucket_a in left.items():
        for deg_b, bucket_b in right.items():
            degree = deg_a + deg_b
            if degree > cap:
                continue
            target = out.get(degree)
            if target is None:
                out[degree] = {
                    word_a + word_b: coeff_a * coeff_b
                    for word_a, coeff_a in bucket_a.items()
                    for word_b, coeff_b in bucket_b.items()
                }
                continue
            merged.add(degree)
            for word_a, coeff_a in bucket_a.items():
                for word_b, coeff_b in bucket_b.items():
                    word = word_a + word_b
                    target[word] = target.get(word, 0) + coeff_a * coeff_b
    for degree in merged:
        kept = {word: v for word, v in out[degree].items() if v}
        if kept:
            out[degree] = kept
        else:
            del out[degree]
    return out


def _add_into(acc: IntBuckets, buckets: IntBuckets, factor: int) -> None:
    """acc += factor * buckets, entrywise (zeros may remain in acc)."""
    for degree, bucket in buckets.items():
        target = acc.get(degree)
        if target is None:
            acc[degree] = {word: factor * v for word, v in bucket.items()}
        else:
            for word, v in bucket.items():
                target[word] = target.get(word, 0) + factor * v


def _power_sum(u: NCSeries, weights: Sequence[Fraction], scale: Fraction) -> NCSeries:
    """scale * sum of weights[k] * u^k over k < len(weights), for u without a
    constant term.

    With u = U/c (U integral), every term has numerators over
    C = lcm_k(den(weights[k]) * c^k), fixed before the loop; each power U^k is
    added into one integer accumulator as soon as it is built, and the loop
    stops at the first zero power.
    """
    cap = u.degree_cap
    numerators, c = _numerators(u._buckets)
    common = lcm(*(w.denominator * c**k for k, w in enumerate(weights) if w))
    acc: IntBuckets = {}
    power: IntBuckets = {0: {EMPTY_WORD: 1}}
    for k, weight in enumerate(weights):
        if k:
            power = _product(power, numerators, cap)
            if not power:
                break
        if weight:
            factor = weight.numerator * (common // (weight.denominator * c**k))
            _add_into(acc, power, factor)
    return NCSeries._from_numerators(
        u.alphabet, cap, acc, scale.numerator, common * scale.denominator
    )


def exp(series: NCSeries) -> NCSeries:
    """Truncated exponential; the argument must have zero constant term."""
    if series.constant_term:
        raise ValueError("exp requires zero constant term")
    weights = [Fraction(1, factorial(k)) for k in range(series.degree_cap + 1)]
    return _power_sum(series, weights, Fraction(1))


def log(series: NCSeries) -> NCSeries:
    """Truncated logarithm; the argument must have constant term 1."""
    if series.constant_term != 1:
        raise ValueError("log requires constant term 1")
    u = series - NCSeries.one(series.alphabet, series.degree_cap)
    weights = [Fraction(0)] + [
        Fraction((-1) ** (k + 1), k) for k in range(1, series.degree_cap + 1)
    ]
    return _power_sum(u, weights, Fraction(1))


def inverse(series: NCSeries) -> NCSeries:
    """Multiplicative inverse mod the truncation degree (constant term nonzero):
    (1/c) * sum of u^k with u = 1 - series/c."""
    c = series.constant_term
    if not c:
        raise ValueError("series with zero constant term is not invertible")
    u = NCSeries.one(series.alphabet, series.degree_cap) - series * (1 / c)
    return _power_sum(u, [Fraction(1)] * (series.degree_cap + 1), 1 / c)


def substitute(series: NCSeries, images: Mapping[int, NCSeries]) -> NCSeries:
    """Apply the multiplicative extension of a letter -> series map.

    Every letter that actually occurs in ``series`` must have an image; images
    must share the alphabet and truncation degree of ``series``.  The image of
    each word is built on integer numerators from the image of its prefix.
    """
    used = {letter for word in series._terms for letter in word}
    missing = sorted(used - set(images))
    if missing:
        names = ", ".join(series.alphabet.letter_name(letter) for letter in missing)
        raise ValueError(f"substitution is missing images for: {names}")
    for letter in used:
        series._compatible(images[letter])

    cap = series.degree_cap
    letter_images = {letter: _numerators(images[letter]._buckets) for letter in used}
    cache: dict[Word, tuple[IntBuckets, int]] = {EMPTY_WORD: ({0: {EMPTY_WORD: 1}}, 1)}

    def image_of(word: Word) -> tuple[IntBuckets, int]:
        found = cache.get(word)
        if found is None:
            prefix, prefix_den = image_of(word[:-1])
            last, last_den = letter_images[word[-1]]
            found = (_product(prefix, last, cap), prefix_den * last_den)
            cache[word] = found
        return found

    parts = [(coeff, *image_of(word)) for word, coeff in series._terms.items()]
    common = lcm(*(coeff.denominator * den for coeff, _, den in parts))
    acc: IntBuckets = {}
    for coeff, numerators, den in parts:
        _add_into(acc, numerators, coeff.numerator * (common // (coeff.denominator * den)))
    return NCSeries._from_numerators(series.alphabet, cap, acc, 1, common)


def depth_truncate(series: NCSeries, r: int) -> NCSeries:
    """Discard all words of degree above r (the truncation degree is kept)."""
    if r < 0:
        raise ValueError("depth bound must be non-negative")
    kept = {word: coeff for word, coeff in series._terms.items() if len(word) <= r}
    return NCSeries._raw(series.alphabet, series.degree_cap, kept)


def y_pure_part(series: NCSeries, r: int) -> NCSeries:
    """Keep only X-free words of degree at most r (the constant term qualifies)."""
    if r < 0:
        raise ValueError("depth bound must be non-negative")
    kept = {
        word: coeff
        for word, coeff in series._terms.items()
        if len(word) <= r and all(letter != X for letter in word)
    }
    return NCSeries._raw(series.alphabet, series.degree_cap, kept)


@dataclass(frozen=True)
class LambdaTable:
    """Depth-r coefficient table indexed by residue tuples mod p^n.

    Entries absent from the map are zero; stored zeros are dropped on
    construction so tables compare structurally.
    """

    p: int
    n: int
    r: int
    coeffs: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_config(self.p, self.n, self.r)
        modulus = self.p**self.n
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for idx, coeff in self.coeffs.items():
            idx = tuple(idx)
            if len(idx) != self.r:
                raise ValueError(f"index {idx} does not have depth {self.r}")
            if any(not 0 <= i < modulus for i in idx):
                raise ValueError(f"index {idx} outside range mod {modulus}")
            coeff = Fraction(coeff)
            if coeff:
                cleaned[idx] = coeff
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def modulus(self) -> int:
        return self.p**self.n

    def value(self, idx: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(idx), Fraction(0))

    def items(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for idx in sorted(self.coeffs):
            yield idx, self.coeffs[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LambdaTable):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and self.r == other.r
            and dict(self.coeffs) == dict(other.coeffs)
        )


def from_lambda_table(table: LambdaTable, degree_cap: int | None = None) -> NCSeries:
    """1 plus the depth-r pure-letter layer encoded by the table.

    The default truncation degree is r, matching the depth-graded quotient.
    """
    cap = table.r if degree_cap is None else degree_cap
    if cap < table.r:
        raise ValueError("truncation degree below table depth")
    alphabet = Alphabet(table.p, table.n)
    terms: dict[Word, Fraction] = {EMPTY_WORD: Fraction(1)}
    for idx, coeff in table.coeffs.items():
        terms[idx] = coeff
    return NCSeries(alphabet, cap, terms)


def to_lambda_table(series: NCSeries, r: int) -> LambdaTable:
    """Extract the X-free degree-r coefficients as a table."""
    if r < 1:
        raise ValueError("table depth must be at least 1")
    if r > series.degree_cap:
        raise ValueError("depth above the series truncation degree")
    coeffs = {
        word: coeff
        for word, coeff in series._terms.items()
        if len(word) == r and all(letter != X for letter in word)
    }
    return LambdaTable(series.alphabet.p, series.alphabet.n, r, coeffs)


def series_to_json_dict(series: NCSeries) -> dict:
    """JSON form: {"p", "n", "D", "terms": [{"word": "X.Y0", "coeff": "1/2"}, ...]}."""
    return {
        "p": series.alphabet.p,
        "n": series.alphabet.n,
        "D": series.degree_cap,
        "terms": [
            {"word": series.alphabet.word_name(word), "coeff": format_rational(coeff)}
            for word, coeff in series.terms()
        ],
    }


def series_from_json_dict(data: Mapping) -> NCSeries:
    alphabet = Alphabet(int(data["p"]), int(data["n"]))
    cap = int(data["D"])
    terms: list[tuple[Word, Fraction]] = []
    for entry in data["terms"]:
        terms.append((alphabet.parse_word(entry["word"]), parse_rational(entry["coeff"])))
    return NCSeries(alphabet, cap, terms)
