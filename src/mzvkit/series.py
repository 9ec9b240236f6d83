"""Truncated non-commutative power series over the letters X, Y_0, ..., Y_{p^n - 1}.

At the public boundary words are tuples of letter codes: X is the sentinel -1,
the cyclic letters are their residues 0 <= i < p^n.  A series is exact up to a
fixed truncation degree, and every operation returns a new object.

Inside, a series is ``{degree: (codes, nums)}`` over one positive ``int``
denominator: ``codes`` is an ``array('q')`` of the degree's word codes in
ascending order and ``nums`` the list of their int numerators, aligned with it.
The form is canonical: no zero numerators, no empty degrees, and gcd 1 between
the denominator and all numerators, so equal series hold equal buckets.
A degree-d word is coded as the int whose base-(p^n + 1) digits are its letters,
first letter most significant, with X -> 0 and Y_i -> i + 1.  Concatenation is
``code_a * base**deg_b + code_b``, and within one degree code order is tuple
order.  A code is an int64, so a series whose largest code
``base**degree_cap - 1`` needs more than 63 bits is a ValueError.  Tuples and
``Fraction``s are built only by ``coeff``, ``terms``, ``repr`` and the JSON
form.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import groupby
from math import factorial, gcd, lcm
from operator import itemgetter

from .exact import Immutable, _exact, check_config, format_rational
from .measures import LevelMeasure

__all__ = [
    "X",
    "Word",
    "Alphabet",
    "NCSeries",
    "exp",
    "log",
    "from_measure",
    "series_to_json_dict",
]

X = -1

Word = tuple[int, ...]
EMPTY_WORD: Word = ()
Bucket = tuple[array, list[int]]  # ascending word codes, their nonzero numerators
IntBuckets = dict[int, Bucket]  # by degree
MAX_CODE = 2**63 - 1  # the largest code an array('q') holds


class Alphabet(Immutable):
    """Letter set selector: X plus one cyclic letter per residue mod p^n."""

    _fields = ("p", "n")

    def __init__(self, p: int, n: int) -> None:
        check_config(p, n, 1)  # an alphabet has no depth: r = 1 checks p and n
        self._assign(p, n)

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

    def word_name(self, word: Word) -> str:
        return ".".join(self.letter_name(letter) for letter in word)


_code = itemgetter(0)  # the code of a (code, value) pair


def _encode(word: Word, base: int) -> int:
    code = 0
    for letter in word:
        code = code * base + letter + 1
    return code


def _decode(code: int, degree: int, base: int) -> Word:
    letters = []
    for _ in range(degree):
        code, digit = divmod(code, base)
        letters.append(digit - 1)
    return tuple(reversed(letters))


class NCSeries(Immutable):
    """Exact series truncated at a fixed total degree.

    Binary operations require both operands to carry the same alphabet and the
    same truncation degree; nothing is coerced silently.  Coefficients and
    scalars are ints or Fractions.
    """

    __slots__ = _fields = ("alphabet", "degree_cap", "_num", "_den")

    def __init__(
        self,
        alphabet: Alphabet,
        degree_cap: int,
        terms: Mapping[Word, Fraction | int] | Iterable[tuple[Word, Fraction | int]] = (),
    ) -> None:
        if degree_cap < 0:
            raise ValueError("truncation degree must be non-negative")
        base = alphabet.size
        # base >= 2, so no truncation degree above 63 has int64 codes
        if degree_cap > 63 or base**degree_cap - 1 > MAX_CODE:
            raise ValueError(f"truncation degree {degree_cap} needs word codes above 63 bits "
                             f"in base {base}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        collected: dict[int, list[tuple[int, Fraction | int]]] = {}
        for word, coeff in items:
            word = tuple(word)
            if len(word) > degree_cap:
                raise ValueError(
                    f"word of degree {len(word)} above truncation degree {degree_cap}"
                )
            for letter in word:
                alphabet.check_letter(letter)
            collected.setdefault(len(word), []).append((_encode(word, base), _exact(coeff)))
        summed = {
            degree: [(code, sum(c for _, c in group))
                     for code, group in groupby(sorted(pairs, key=_code), _code)]
            for degree, pairs in collected.items()
        }
        # over the lcm of the reduced denominators the numerators are coprime to it
        den = lcm(*(c.denominator for pairs in summed.values() for _, c in pairs))
        num: IntBuckets = {}
        for degree, pairs in summed.items():
            kept = [(code, c.numerator * (den // c.denominator)) for code, c in pairs if c]
            if kept:
                num[degree] = (array("q", map(_code, kept)), [v for _, v in kept])
        self._assign(alphabet, degree_cap, num, den)

    @classmethod
    def _reduced(cls, alphabet: Alphabet, degree_cap: int, num: IntBuckets, den: int) -> "NCSeries":
        # trusted constructor: valid codes, no zero entries or empty buckets,
        # den > 0.  It takes ownership of ``num``: the gcd of den and the
        # numerators is divided out in place, so ``num`` and its lists must be
        # fresh ones that no series holds.
        g = den
        for _, nums in num.values():
            if g == 1:
                break
            g = gcd(g, *nums)
        if g > 1:
            for _, nums in num.values():
                for i, v in enumerate(nums):
                    nums[i] = v // g
            den //= g
        return cls._new(alphabet, degree_cap, num, den)

    @classmethod
    def zero(cls, alphabet: Alphabet, degree_cap: int) -> "NCSeries":
        return cls(alphabet, degree_cap)

    @classmethod
    def one(cls, alphabet: Alphabet, degree_cap: int) -> "NCSeries":
        return cls(alphabet, degree_cap, {EMPTY_WORD: 1})

    @classmethod
    def letter(
        cls, alphabet: Alphabet, degree_cap: int, letter: int, coeff: Fraction | int = 1
    ) -> "NCSeries":
        return cls(alphabet, degree_cap, {(letter,): coeff})

    @property
    def constant_term(self) -> Fraction:
        return self.coeff(EMPTY_WORD)

    def coeff(self, word: Word) -> Fraction:
        """Coefficient of a word; asking beyond the truncation degree is an error."""
        word = tuple(word)
        if len(word) > self.degree_cap:
            raise ValueError(
                f"word of degree {len(word)} is not tracked at truncation degree {self.degree_cap}"
            )
        for letter in word:
            self.alphabet.check_letter(letter)
        codes, nums = self._num.get(len(word), ((), ()))
        code = _encode(word, self.alphabet.size)
        i = bisect_left(codes, code)
        value = nums[i] if i < len(codes) and codes[i] == code else 0
        return Fraction(value, self._den)

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        """Deterministic iteration: by degree, then lexicographically."""
        base = self.alphabet.size
        for degree in sorted(self._num):
            codes, nums = self._num[degree]
            for code, v in zip(codes, nums):
                yield _decode(code, degree, base), Fraction(v, self._den)

    def term_count(self) -> int:
        return sum(len(codes) for codes, _ in self._num.values())

    def is_zero(self) -> bool:
        return not self._num

    def _compatible(self, other: "NCSeries") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("series over different alphabets")
        if self.degree_cap != other.degree_cap:
            raise ValueError("series with different truncation degrees")

    __hash__ = None  # type: ignore[assignment]

    def _combined(self, other: "NCSeries", sign: int) -> "NCSeries":
        # self + sign * other
        self._compatible(other)
        den = lcm(self._den, other._den)
        num = _linear_sum([(self._num, den // self._den), (other._num, sign * (den // other._den))])
        return NCSeries._reduced(self.alphabet, self.degree_cap, num, den)

    def __add__(self, other: "NCSeries") -> "NCSeries":
        return self._combined(other, 1)

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        return self._combined(other, -1)

    def __neg__(self) -> "NCSeries":
        return self._scaled(-1)

    def _scaled(self, scalar: Fraction | int) -> "NCSeries":
        scalar = _exact(scalar)
        if not scalar:
            return NCSeries.zero(self.alphabet, self.degree_cap)
        num = _linear_sum([(self._num, scalar.numerator)])
        return NCSeries._reduced(self.alphabet, self.degree_cap, num,
                                 self._den * scalar.denominator)

    def __mul__(self, other: "NCSeries | Fraction | int") -> "NCSeries":
        if not isinstance(other, NCSeries):
            return self._scaled(other)
        self._compatible(other)
        product = _product(self._num, other._num, self.degree_cap, self.alphabet.size)
        return NCSeries._reduced(self.alphabet, self.degree_cap, product,
                                 self._den * other._den)

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


def _linear_sum(parts: Sequence[tuple[IntBuckets, int]]) -> IntBuckets:
    """The sum of ``factor * buckets`` over one or two parts, each factor
    nonzero, without zero entries, in fresh arrays and lists.  A degree held
    by one part is scaled, a degree held by both is merged."""
    out: IntBuckets = {}
    for degree in sorted({degree for buckets, _ in parts for degree in buckets}):
        held = [(buckets[degree], factor) for buckets, factor in parts if degree in buckets]
        if len(held) == 1:
            [((codes, nums), factor)] = held
            out[degree] = (codes[:], [factor * v for v in nums])
            continue
        [(a, factor_a), (b, factor_b)] = held
        bucket = _merge(a, factor_a, b, factor_b)
        if bucket[1]:
            out[degree] = bucket
    return out


def _merge(a: Bucket, factor_a: int, b: Bucket, factor_b: int) -> Bucket:
    """factor_a * a + factor_b * b on one degree, as one sorted merge of the
    two code arrays that keeps only the nonzero sums."""
    (codes_a, nums_a), (codes_b, nums_b) = a, b
    codes, nums = array("q"), []
    i = j = 0
    len_a, len_b = len(codes_a), len(codes_b)
    while i < len_a and j < len_b:
        code_a, code_b = codes_a[i], codes_b[j]
        if code_a < code_b:
            codes.append(code_a)
            nums.append(factor_a * nums_a[i])
            i += 1
        elif code_b < code_a:
            codes.append(code_b)
            nums.append(factor_b * nums_b[j])
            j += 1
        else:
            v = factor_a * nums_a[i] + factor_b * nums_b[j]
            if v:
                codes.append(code_a)
                nums.append(v)
            i += 1
            j += 1
    codes.extend(codes_a[i:])
    nums.extend([factor_a * v for v in nums_a[i:]])
    codes.extend(codes_b[j:])
    nums.extend([factor_b * v for v in nums_b[j:]])
    return codes, nums


def _product(left: IntBuckets, right: IntBuckets, cap: int, base: int) -> IntBuckets:
    """Product of two integer series without zero entries, truncated at degree
    ``cap``, on word codes in ``base``.

    Within one pair of degrees every concatenation is a distinct word with a
    nonzero numerator, and the codes come out in ascending order, since
    ``code_b < base**deg_b``: an output degree reached by one pair is filled
    directly.  A degree reached by several pairs can cancel, and is summed one
    slice of words at a time: the words that share their first two letters,
    or their first letter when a pair's lead factor has one letter (X, digit
    0, is one of the letters).  A slice's words come from one range of each
    pair's sorted lead codes, found by bisection; the first pair with words in
    the slice fills its dict, the others add into it, and only its nonzero
    entries are appended, in order, before the next slice is built.  So the
    transient is one slice, not the whole bucket.  A word starts with its left
    factor; a constant left factor only scales, so such a pair leads with the
    right factor and takes the constant as its other factor.
    """
    reaching: dict[int, list[tuple[int, int]]] = {}
    for deg_a in left:
        for deg_b in right:
            if deg_a + deg_b <= cap:
                reaching.setdefault(deg_a + deg_b, []).append((deg_a, deg_b))
    out: IntBuckets = {}
    for degree, pairs in reaching.items():
        if len(pairs) == 1:
            [(deg_a, deg_b)] = pairs
            (codes_a, nums_a), (codes_b, nums_b), shift = left[deg_a], right[deg_b], base**deg_b
            codes_b = codes_b.tolist()  # boxed once, not once per row
            out[degree] = (
                array("q", (offset + code_b for code_a in codes_a
                            for offset in [code_a * shift] for code_b in codes_b)),
                [coeff_a * coeff_b for coeff_a in nums_a for coeff_b in nums_b],
            )
            continue
        lead_degrees = [deg_a or deg_b for deg_a, deg_b in pairs]
        width = min(2, *lead_degrees)  # the letters that the words of one slice share
        factors = []
        for (deg_a, deg_b), lead_degree in zip(pairs, lead_degrees):
            (codes_a, nums_a), (codes_b, nums_b), shift = (
                (left[deg_a], right[deg_b], base**deg_b) if deg_a else (right[deg_b], left[0], 1))
            # the other factor's entries are boxed once, not once per row; a
            # slice takes the lead codes from prefix * step up to (prefix + 1) * step
            others = list(zip(codes_b.tolist(), nums_b))
            factors.append((codes_a, nums_a, others, shift, base ** (lead_degree - width)))
        prefixes = sorted({code_a // step for codes_a, *_, step in factors for code_a in codes_a})
        codes, nums = array("q"), []
        for prefix in prefixes:
            acc: dict[int, int] = {}
            for codes_a, nums_a, others, shift, step in factors:
                lo = bisect_left(codes_a, prefix * step)
                hi = bisect_left(codes_a, (prefix + 1) * step, lo)
                if lo == hi:
                    continue
                rows = zip(codes_a[lo:hi], nums_a[lo:hi])
                if not acc:
                    acc = {offset + code_b: coeff_a * coeff_b
                           for code_a, coeff_a in rows for offset in [code_a * shift]
                           for code_b, coeff_b in others}
                    continue
                for code_a, coeff_a in rows:
                    offset = code_a * shift
                    for code_b, coeff_b in others:
                        code = offset + code_b
                        acc[code] = acc.get(code, 0) + coeff_a * coeff_b
            kept = [code for code in sorted(acc) if acc[code]]
            codes.extend(kept)
            nums.extend(map(acc.__getitem__, kept))
        if nums:
            out[degree] = (codes, nums)
    return out


def _power_sum(series: NCSeries, u: IntBuckets, weights: Sequence[tuple[int, int]]) -> NCSeries:
    """The sum over k of w_k * (u/c)^k, with u integral without a constant
    term, c the denominator of ``series`` and w_k = num_k/den_k given as
    ``weights[k] = (num_k, den_k)``; ``series`` also gives the alphabet and
    truncation degree.

    With m the lowest degree in u, only k <= K = cap // m contribute.  Over
    C = lcm_k(den_k * c^k) each weight becomes the integer
    W_k = num_k * C / (den_k * c^k), and Horner's rule h_K = W_K,
    h_k = W_k + u * h_{k+1} yields h_0 = sum of W_k * u^k.  As u^k lifts h_k by
    at least k*m degrees, h_k is kept only up to degree cap - k*m.
    """
    cap, base, c = series.degree_cap, series.alphabet.size, series._den
    low = min(u, default=0)
    weights = weights[: cap // low + 1 if low else 1]
    common = lcm(*(den * c**k for k, (num, den) in enumerate(weights) if num))
    horner: IntBuckets = {}
    for k in reversed(range(len(weights))):
        horner = _product(u, horner, cap - k * low, base)
        num, den = weights[k]
        if num:
            # u has no constant term
            horner[0] = (array("q", [0]), [num * (common // (den * c**k))])
    return NCSeries._reduced(series.alphabet, cap, horner, common)


def exp(series: NCSeries) -> NCSeries:
    """Truncated exponential; the argument must have zero constant term."""
    if 0 in series._num:
        raise ValueError("exp requires zero constant term")
    weights = [(1, factorial(k)) for k in range(series.degree_cap + 1)]
    return _power_sum(series, series._num, weights)


def log(series: NCSeries) -> NCSeries:
    """Truncated logarithm; the argument must have constant term 1."""
    constant = series._num.get(0)
    if constant is None or constant[1] != [series._den]:
        raise ValueError("log requires constant term 1")
    u = {degree: bucket for degree, bucket in series._num.items() if degree}
    weights = [(0, 1)] + [((-1) ** (k + 1), k) for k in range(1, series.degree_cap + 1)]
    return _power_sum(series, u, weights)


def from_measure(mu: LevelMeasure, degree_cap: int) -> NCSeries:
    """1 plus the depth-r layer of the table ``mu``: the word (i_1, ..., i_r)
    of cyclic letters carries the value at the point (i_1, ..., i_r), and a
    zero cell adds no term.  The truncation degree is at least r."""
    if degree_cap < mu.r:
        raise ValueError("truncation degree below table depth")
    terms = [(point, value) for point, value in zip(mu.points(), mu.values) if value]
    return NCSeries(Alphabet(mu.p, mu.n), degree_cap, [(EMPTY_WORD, 1), *terms])


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
