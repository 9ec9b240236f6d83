"""Truncated non-commutative power series over the letters X, Y_0, ..., Y_{p^n - 1}.

At the public boundary words are tuples of letter codes: X is the sentinel -1,
the cyclic letters are their residues 0 <= i < p^n.  A series is exact up to a
fixed truncation degree, and every operation returns a new object.

Inside, a series is ``{degree: (codes, nums)}`` over one positive ``int``
denominator: ``codes`` is an array of the degree's word codes in ascending
order and ``nums`` their int numerators, aligned with it.  Both are held in the
narrowest signed array that fits them, by one ladder of typecodes: ``'b'``,
``'h'``, ``'i'``, ``'q'`` (1, 2, 4 and 8 bytes).  ``codes`` takes the narrowest
that holds ``base**degree - 1``, so its typecode is fixed by the degree.
``nums`` takes the narrowest that holds every numerator of the degree, and is a
list when one does not fit in int64; ``_extended`` applies that rule wherever a
bucket is built, and a bucket that must change container moves into the new
one a slice at a time (``_moved``).  So a degree-8 word over X, Y_0..Y_3 costs
6 bytes while its numerator fits in 16 bits.  The form
is canonical: no zero numerators, no empty degrees, gcd 1 between the
denominator and all numerators, and the containers the rule gives, so equal
series hold equal buckets.
A degree-d word is coded as the int whose base-(p^n + 1) digits are its letters,
first letter most significant, with X -> 0 and Y_i -> i + 1.  Concatenation is
``code_a * base**deg_b + code_b``, and within one degree code order is tuple
order.  A series whose largest code ``base**degree_cap - 1`` exceeds int64 is a
ValueError.  Tuples and ``Fraction``s are built only by the constructor and
``from_measure``, which take them, and by ``coeff``, ``terms`` and ``repr``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import compress, groupby, islice, repeat
from math import factorial, gcd, lcm
from operator import floordiv, itemgetter, mul

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
]

X = -1

Word = tuple[int, ...]
EMPTY_WORD: Word = ()
# the narrowest array('b'/'h'/'i'/'q') that holds every numerator, else a list
Nums = array | list[int]
# ascending word codes in the typecode their degree gives, their nonzero numerators
Bucket = tuple[array, Nums]
IntBuckets = dict[int, Bucket]  # by degree
MAX_CODE = 2**63 - 1  # the largest code an array('q') holds
# Each typecode of the ladder, narrowest first, with 2**(its bits - 1).
TYPECODES = tuple((typecode, 2 ** (8 * array(typecode).itemsize - 1)) for typecode in "bhiq")
# Buckets are built, reduced and widened a slice of at most this many codes at
# a time (one letter's worth when a letter spans more), so that no transient
# list is as large as a bucket.
SLICE = 4096
# Numerators a gcd scan unpacks into one call: few, so that it boxes few at a
# time beside the bucket and stops soon after the gcd reaches 1.
GCD_CHUNK = 256


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


_code = itemgetter(0)  # the code of a (code, value) pair


def _typecode(low: int, high: int) -> str | None:
    """The narrowest typecode of the ladder whose arrays hold every int in
    [low, high], or None when int64 does not."""
    for typecode, limit in TYPECODES:
        if -limit <= low and high < limit:
            return typecode
    return None


def _codes(base: int, degree: int) -> array:
    """An empty array for the codes of a degree: the narrowest that holds
    ``base**degree - 1``."""
    return array(_typecode(0, base**degree - 1))


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
                codes = _codes(base, degree)
                codes.fromlist(list(map(_code, kept)))
                num[degree] = codes, _extended(array("b"), [v for _, v in kept])
        self._assign(alphabet, degree_cap, num, den)

    @classmethod
    def _reduced(cls, alphabet: Alphabet, degree_cap: int, num: IntBuckets, den: int) -> "NCSeries":
        # trusted constructor: valid codes, no zero entries or empty buckets,
        # numerators held by the container rule, den > 0.  It takes ownership
        # of ``num``: the gcd of den and the numerators is divided out, each
        # bucket moving into the container its quotients take, so ``num`` and
        # its arrays and lists must be fresh ones that no series holds.  Only
        # exp and log end here: a Horner sum's gcd falls in several steps as
        # its degrees come, and dividing it out while building (as sums and
        # products do) made report's round trip 2-12 % slower.
        g = _gcd(den, num)
        if g > 1:
            for degree, (codes, nums) in num.items():
                # v -> v // g is monotone: the quotients span [min // g, max // g]
                typecode = _typecode(min(nums) // g, max(nums) // g)
                num[degree] = codes, _moved(nums, typecode, floordiv, g)
            den //= g
        return cls._new(alphabet, degree_cap, num, den)

    @classmethod
    def zero(cls, alphabet: Alphabet, degree_cap: int) -> "NCSeries":
        return cls(alphabet, degree_cap)

    @classmethod
    def one(cls, alphabet: Alphabet, degree_cap: int) -> "NCSeries":
        return cls(alphabet, degree_cap, {EMPTY_WORD: 1})

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
        num, g = _linear_sum([(self._num, den // self._den),
                              (other._num, sign * (den // other._den))], self.alphabet.size, den)
        return NCSeries._new(self.alphabet, self.degree_cap, num, den // g)

    def __add__(self, other: "NCSeries") -> "NCSeries":
        return self._combined(other, 1)

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        return self._combined(other, -1)

    def __neg__(self) -> "NCSeries":
        return self._scaled(-1)

    def _scaled(self, scalar: Fraction | int) -> "NCSeries":
        # k/m times n_i/den: with g = gcd(k, den) the result is (k/g) n_i over
        # (den/g) m.  k/g is coprime to den/g and to m, and the n_i have gcd 1
        # with den, so the gcd left is that of m and the (k/g) n_i: only a
        # fractional scalar makes the sum look for one
        scalar = _exact(scalar)
        if not scalar:
            return NCSeries.zero(self.alphabet, self.degree_cap)
        k, m = scalar.numerator, scalar.denominator
        g = gcd(k, self._den)
        num, left = _linear_sum([(self._num, k // g)], self.alphabet.size, m)
        return NCSeries._new(self.alphabet, self.degree_cap, num, self._den // g * (m // left))

    def __mul__(self, other: "NCSeries | Fraction | int") -> "NCSeries":
        if not isinstance(other, NCSeries):
            return self._scaled(other)
        self._compatible(other)
        den = self._den * other._den
        product, g = _product(self._num, other._num, self.degree_cap, self.alphabet.size, den)
        return NCSeries._new(self.alphabet, self.degree_cap, product, den // g)

    def __rmul__(self, scalar: Fraction | int) -> "NCSeries":
        return self._scaled(scalar)

    def __repr__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for word, coeff in self.terms():
                name = ".".join("X" if letter == X else f"Y{letter}" for letter in word) or "1"
                parts.append(f"{format_rational(coeff)}*{name}")
            body = " + ".join(parts)
        return f"NCSeries(p={self.alphabet.p}, n={self.alphabet.n}, D={self.degree_cap}: {body})"


def _extended(nums: Nums, values: list[int]) -> Nums:
    """``nums``, held by the container rule, followed by ``values``, held by
    it too: the narrowest of ``array('b')``, ``'h'``, ``'i'`` and ``'q'``
    that holds every numerator, and a list when one does not fit in int64.
    A bucket that must widen moves into the wider container a slice at a
    time (``_moved``), so it is never held whole in two widths.  ``values``
    must be a fresh list: it becomes the bucket when ``nums`` is empty and
    something does not fit in int64."""
    if type(nums) is array:
        try:
            nums.fromlist(values)  # appends all of values or none
            return nums
        except OverflowError:
            # nums holds its entries in the narrowest typecode, and values
            # did not fit in it, so the values' own typecode is the wider one
            typecode = _typecode(min(values), max(values))
            if typecode is None and not nums:
                return values
            nums = _moved(nums, typecode, mul, 1)
    nums.extend(values)
    return nums


def _moved(nums: Nums, typecode: str | None, op: Callable[[int, int], int], operand: int) -> Nums:
    """``op(v, operand)`` for the entries v of ``nums``, in a new array of
    ``typecode``, or a list when it is None, which must hold them all.  The
    entries leave ``nums`` a slice at a time from the front, so the two
    never both hold all of them, and are boxed one at a time."""
    into = [] if typecode is None else array(typecode)
    while nums:
        into.extend(map(op, islice(nums, SLICE), repeat(operand)))
        del nums[:SLICE]
    return into


def _rescaled(nums: Nums, factor: int) -> Nums:
    """``nums`` times ``factor`` > 0, in the container the rule gives them."""
    return _moved(nums, _typecode(min(nums) * factor, max(nums) * factor), mul, factor)


def _gcd(g: int, num: IntBuckets) -> int:
    """The gcd of ``g`` and every numerator of ``num``, given up at 1."""
    for _, nums in num.values():
        for lo in range(0, len(nums), GCD_CHUNK):
            if g == 1:
                return 1
            g = gcd(g, *nums[lo:lo + GCD_CHUNK])
    return g


def _linear_sum(parts: Sequence[tuple[IntBuckets, int]], base: int,
                den: int) -> tuple[IntBuckets, int]:
    """The sum of ``factor * buckets`` over the parts, each factor nonzero,
    as ``_sum_of_products`` gives it over ``den``: a degree is the sum of the
    products of its buckets with constants."""
    reaching: dict[int, list[Pair]] = {}
    for buckets, factor in parts:
        for degree, (codes, nums) in buckets.items():
            reaching.setdefault(degree, []).append((codes, nums, *_constant(factor), 1))
    return _sum_of_products(reaching, base, den)


def _constant(value: int) -> Bucket:
    return array(_typecode(0, 0), [0]), _extended(array("b"), [value])


def _product(left: IntBuckets, right: IntBuckets, cap: int, base: int,
             den: int) -> tuple[IntBuckets, int]:
    """Product of two integer series without zero entries, truncated at degree
    ``cap``, on word codes in ``base``, as ``_sum_of_products`` gives it over
    ``den``: a degree is the sum of the products of the pairs of buckets whose
    degrees add up to it."""
    reaching: dict[int, list[Pair]] = {}
    for deg_a, (codes_a, nums_a) in left.items():
        for deg_b, (codes_b, nums_b) in right.items():
            if deg_a + deg_b <= cap:
                reaching.setdefault(deg_a + deg_b, []).append(
                    (codes_a, nums_a, codes_b, nums_b, base**deg_b))
    return _sum_of_products(reaching, base, den)


# Two buckets whose product adds into a degree: the left one's codes and
# numerators, the right one's, and the shift base**(the right one's degree).
Pair = tuple[array, Nums, array, Nums, int]
Rows = tuple[int, int, int, int]  # rows i0..i1 of the left bucket, entries j0..j1 of the right
# the words offset + codes[k] with numerators coeff * nums[k], in ascending order
Piece = tuple[int, int, Sequence[int], Sequence[int]]


def _sum_of_products(reaching: dict[int, list[Pair]], base: int,
                     den: int) -> tuple[IntBuckets, int]:
    """For each degree, the sum of the products of the pairs that reach it,
    without zero entries, in fresh arrays and lists, divided by g, the gcd
    of ``den`` and every numerator of the sum; returns the buckets and g.

    A degree is filled one slice at a time: the words whose codes lie in one
    range [lo, lo + span), where span is base**k for the largest k <= degree
    with base**k <= SLICE, but at least one letter.  So a slice is the words
    that share their first degree - k letters.  A pair's words are
    ``code_a * shift + code_b`` with ``code_b < shift``, so a slice takes
    from each pair either whole rows of its left bucket or part of one row,
    found by bisection (``_slice``).  Within one pair every word is distinct,
    with a nonzero numerator, and the words come out in ascending order: a
    slice that one pair reaches is appended as it comes.  A slice that
    several pairs reach can cancel, and only its nonzero sums are appended
    (``_append_sums``).  The next slice starts at the least code above this
    one over all pairs.  So the transient is one slice, not the whole degree,
    and the buckets' entries are boxed a slice at a time.

    g is found as the slices come.  Each slice is stored divided by the gcd
    of den and the numerators so far, and when a slice lowers it, what is
    stored already is multiplied up to the new one (``_over_gcd``).  So a sum
    that reduces is never held in a wider container than its reduced form.
    Degrees are built in ascending order: the low ones hold few words and
    mostly settle g before the large ones are stored, where the top degree of
    a ``log`` shares every factor of its denominator.
    """
    out: IntBuckets = {}
    g = den
    for degree in sorted(reaching):
        pairs = reaching[degree]
        span = 1
        for k in range(degree):
            if k and span * base > SLICE:
                break
            span *= base
        codes, nums = _codes(base, degree), array("b")
        start = min(codes_a[0] * shift + codes_b[0] for codes_a, _, codes_b, _, shift in pairs)
        while start is not None:
            lo = start - start % span
            sliced = [(pair, *_slice(pair, lo, lo + span)) for pair in pairs]
            start = min((after for *_, after in sliced if after is not None), default=None)
            groups = [_pieces(pair, rows) for pair, rows, _ in sliced if rows]
            if len(groups) > 1:
                values = _append_sums(codes, groups, lo, span)
            else:
                values = []
                for offset, coeff, piece_codes, piece_nums in groups[0]:
                    # extend takes only arrays of its own typecode, which a
                    # piece of X...X times a lower degree's codes does not have
                    if offset or type(piece_codes) is list or piece_codes.typecode != codes.typecode:
                        codes.fromlist([offset + code for code in piece_codes])
                    else:
                        codes.extend(piece_codes)
                    values += [coeff * v for v in piece_nums]
            if g > 1:
                nums, values, g = _over_gcd(out, nums, values, g)
            nums = _extended(nums, values)
        if codes:
            out[degree] = (codes, nums)
    return out, g


def _over_gcd(out: IntBuckets, nums: Nums, values: list[int], g: int) -> tuple[Nums, list[int], int]:
    """The numerators stored so far, ``out``'s (in place) and ``nums``, are
    over g; with h the gcd of g and ``values``, returns ``nums`` over h, the
    values over h and h, having moved ``out``'s buckets over h too."""
    h = gcd(g, *values)
    if h < g:
        for degree, (codes, stored) in out.items():
            out[degree] = codes, _rescaled(stored, g // h)
        if nums:
            nums = _rescaled(nums, g // h)
    return nums, [v // h for v in values] if h > 1 else values, h


def _slice(pair: Pair, lo: int, hi: int) -> tuple[Rows | None, int | None]:
    """Where one pair's product has words with codes in [lo, hi), or None,
    and the least code of that product at or above ``hi``, or None.
    ``hi - lo`` is a power of the base and ``lo`` a multiple of it, so the
    range holds whole rows of the left bucket or part of one row."""
    codes_a, _, codes_b, _, shift = pair
    if shift <= hi - lo:
        i0 = bisect_left(codes_a, lo // shift)
        i1 = bisect_left(codes_a, hi // shift, i0)
        rows = (i0, i1, 0, len(codes_b)) if i0 < i1 else None
    else:
        row = lo // shift
        i0 = i1 = bisect_left(codes_a, row)
        rows = None
        if i0 < len(codes_a) and codes_a[i0] == row:
            offset = row * shift
            j0 = bisect_left(codes_b, lo - offset)
            j1 = bisect_left(codes_b, hi - offset, j0)
            rows = (i0, i0 + 1, j0, j1) if j0 < j1 else None
            if j1 < len(codes_b):
                return rows, offset + codes_b[j1]
            i1 = i0 + 1
    return rows, codes_a[i1] * shift + codes_b[0] if i1 < len(codes_a) else None


def _pieces(pair: Pair, rows: Rows) -> list[Piece]:
    """The words of rows i0..i1 of the left bucket times entries j0..j1 of
    the right, in ascending order: a piece a row, or one piece in all when
    the right bucket gives one entry.  The right bucket's entries are boxed
    once for all the rows when there are several."""
    codes_a, nums_a, codes_b, nums_b, shift = pair
    i0, i1, j0, j1 = rows
    if j1 - j0 == 1:
        lead_codes = codes_a[i0:i1]
        if shift > 1:
            lead_codes = [shift * code for code in lead_codes]
        return [(codes_b[j0], nums_b[j0], lead_codes, nums_a[i0:i1])]
    row_codes, row_nums = codes_b[j0:j1], nums_b[j0:j1]
    if i1 - i0 > 1:
        row_codes = row_codes.tolist()
        row_nums = row_nums.tolist() if type(row_nums) is array else row_nums
    return [(code_a * shift, coeff_a, row_codes, row_nums)
            for code_a, coeff_a in zip(codes_a[i0:i1], nums_a[i0:i1])]


def _append_sums(codes: array, groups: list[list[Piece]], lo: int, span: int) -> list[int]:
    """The nonzero sums by code of the pieces' entries, whose codes lie in
    [lo, lo + span), in ascending order of code; their codes are appended to
    ``codes``.  The sums are taken in a list indexed by code - lo, whose
    nonzero entries are read off in one pass."""
    dense = [0] * span
    for group in groups:
        for offset, coeff, piece_codes, piece_nums in group:
            offset -= lo
            for code, v in zip(piece_codes, piece_nums):
                dense[offset + code] += coeff * v
    codes.fromlist(list(compress(range(lo, lo + span), dense)))
    return list(filter(None, dense))


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
        horner, _ = _product(u, horner, cap - k * low, base, 1)
        num, den = weights[k]
        if num:
            # u has no constant term
            horner[0] = _constant(num * (common // (den * c**k)))
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
    if constant is None or constant[1][0] != series._den:
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
