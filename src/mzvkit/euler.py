"""Parity-vanishing machinery: antisymmetrized test polynomials, certificates
expressing power moments in terms of them, and the p-adic congruence checks
those certificates justify on four-term-kernel measures.

Polynomials in the single variable x are dense coefficient tuples (index =
power) with exact Fraction entries and no trailing zeros.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .exact import (INFINITY, Immutable, binomial, bernoulli, check_word, format_rational,
                    padic_valuation)
from .measures import (FOUR_TERM, Coset, LevelMeasure, _four_term_maps, _points, _sweep, _word,
                       coset_moment, factorial_norm, four_term_is_zero, moment)

__all__ = [
    "Poly",
    "four_term_poly",
    "four_term_poly_coeffs",
    "MAX_CERTIFICATE_EXPONENT",
    "VanishingCertificate",
    "make_certificate",
    "CongruenceVerdict",
    "CheckFamily",
    "vanishing_check",
    "coset_four_term_check",
    "coset_identity_sweep",
    "coset_family",
    "coset_lambda_tables",
    "coefficient_four_term_check",
    "depth_one_bernoulli_value",
    "certificate_to_json_dict",
]

Poly = tuple[Fraction, ...]

# Largest certificate target exponent.  A certificate reads B_0 .. B_a from
# one Akiyama-Tanigawa pass of about a^2 Fraction operations, kept between
# calls: at a = 200 the first takes about 0.18 s (Python 3.11), later ones 1 ms.
MAX_CERTIFICATE_EXPONENT = 200


def _parity_is_odd(m_parity: str) -> bool:
    if m_parity == "even":
        return False
    if m_parity == "odd":
        return True
    raise ValueError(f"parity must be 'even' or 'odd', got {m_parity!r}")


def _trim(coeffs: Sequence[Fraction]) -> Poly:
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return tuple(coeffs[:end])


def _poly_add(a: Poly, b: Poly, scale: Fraction = Fraction(1)) -> Poly:
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for k, coeff in enumerate(b):
        out[k] += scale * coeff
    return _trim(out)


def _shifted_power(offset: int, q: int) -> Poly:
    """(x + offset)^q expanded."""
    return tuple(Fraction(binomial(q, k) * offset ** (q - k)) for k in range(q + 1))


def four_term_poly(q: int, m_parity: str) -> Poly:
    """x^q - (-1)^(m+q) x^q + (-1)^(m+q) (x-1)^q - (x+1)^q for the parity of m,
    "even" or "odd".

    This is the one-variable shadow of the signed four-term combination after
    the three affine changes of variables: per ``FOUR_TERM`` entry, the coset
    identity's sign for exponent sum m + q times (x - offset)^q.
    """
    if q < 0:
        raise ValueError("exponent must be non-negative")
    out: Poly = ()
    signs = _identity_signs(_parity_is_odd(m_parity) + q)
    for sign, (_, _, offset) in zip(signs, FOUR_TERM):
        out = _poly_add(out, _shifted_power(-offset, q), Fraction(sign))
    return out


def four_term_poly_coeffs(a: int, m_parity: str) -> Poly:
    """Binomial expansion of :func:`four_term_poly`: the coefficient of x^{a-i}
    is C(a, a-i) ((-1)^{m-(a-i)} - 1) for i = 1..a."""
    if a < 1:
        raise ValueError("expansion requires exponent at least 1")
    m_odd = _parity_is_odd(m_parity)
    return _trim([Fraction(-2 * binomial(a, k) if (m_odd + k) % 2 else 0) for k in range(a)])


class VanishingCertificate(Immutable):
    """Exact combination sum_q coeff_q * P_q(x) = x^a for a target exponent word.

    ``target`` is (n_1, ..., n_{r-1}, a); the relevant parity is that of
    m = n_1 + ... + n_{r-1}, and the combination exists exactly when m + a is odd.
    """

    _fields = ("target", "combination")

    def __init__(self, target: tuple[int, ...],
                 combination: tuple[tuple[int, Fraction], ...]) -> None:
        self._assign(target, combination)

    @property
    def prefix_sum(self) -> int:
        return sum(self.target[:-1])

    @property
    def m_parity(self) -> str:
        return "odd" if self.prefix_sum % 2 else "even"

    def slack(self, p: int) -> int:
        """Worst denominator contribution: max(0, max_q -v_p(coeff_q))."""
        return max([0, *(-padic_valuation(coeff, p) for _, coeff in self.combination)])

    def replay(self) -> Poly:
        """Re-expand the combination; soundness means this equals x^a exactly."""
        out: Poly = ()
        for q, coeff in self.combination:
            out = _poly_add(out, four_term_poly(q, self.m_parity), coeff)
        return out


@lru_cache(maxsize=64)
def _combination(a: int) -> tuple[tuple[int, Fraction], ...]:
    """The combination x^a = sum_k c_k P_(a+1-2k)(x), over a + 1 - 2k >= 1, with
    c_k = (2^(2k-1) - 1) B_2k C(a+1, 2k) / (a+1) = (4^k - 2) B_2k C(a+1, 2k) / (2a + 2).

    With m + q even, P_q = (x - 1)^q - (x + 1)^q = -2 sinh(D) x^q for D = d/dx,
    x^a = D x^(a+1) / (a+1) and D / sinh(D) = sum_k (2 - 2^(2k)) B_2k D^(2k) / (2k)!.
    The q = 1 term (a even) is filed under q = 2, as P_1 = P_2 = -2 for that
    parity.  Cached for ``vanishing_check``, which builds a certificate per
    call in the test oracles and the acceptance tests; ``vanish`` builds one
    per final exponent.
    """
    q = a + 1
    return tuple((max(q - 2 * k, 2),
                  Fraction((4**k - 2) * binomial(q, 2 * k), 2 * q) * bernoulli(2 * k))
                 for k in range(a // 2, -1, -1))


def make_certificate(exponents: Sequence[int]) -> VanishingCertificate:
    """Certificate for the exponent word (n_1, ..., n_{r-1}, a); m + a must be odd
    and a at most ``MAX_CERTIFICATE_EXPONENT``."""
    target = check_word(exponents)
    a = target[-1]
    if sum(target) % 2 == 0:
        raise ValueError("certificate requires the prefix sum and the target exponent "
                         "to have opposite parity")
    if a > MAX_CERTIFICATE_EXPONENT:
        raise ValueError(f"certificate exponent {a} is above the limit {MAX_CERTIFICATE_EXPONENT}")
    return VanishingCertificate(target, _combination(a))


def certificate_to_json_dict(cert: VanishingCertificate, p: int) -> dict:
    """JSON form: {"target", "combination", "slack"}; slack is evaluated at p."""
    return {
        "target": list(cert.target),
        "combination": [
            {"q": q, "coeff": format_rational(coeff)} for q, coeff in cert.combination
        ],
        "slack": cert.slack(p),
    }


class CongruenceVerdict(Immutable):
    # slots: a list of verdicts, as the sweep oracles make, holds one per word
    __slots__ = _fields = ("valuation", "threshold")

    def __init__(self, valuation: int | float, threshold: int) -> None:
        self._assign(valuation, threshold)

    @property
    def passed(self) -> bool:
        return self.valuation >= self.threshold

    def to_json_dict(self) -> dict:
        return {"valuation": _valuation_json(self.valuation), "threshold": self.threshold,
                "pass": self.passed}


class CheckFamily(Immutable):
    """One family of checks as every report reads it: how many ran, the
    failing ones in report order, and the worst valuation (``INFINITY`` when
    every checked value is 0 or none ran).  It passes when none failed."""

    _fields = ("total", "failures", "worst")

    def __init__(self, total: int, failures: tuple, worst: int | float) -> None:
        self._assign(total, failures, worst)

    @property
    def passed(self) -> bool:
        return not self.failures


def _valuation_json(value: int | float) -> int | str:
    """A valuation as a report holds it: an int, or "inf" for a zero value."""
    return "inf" if value == INFINITY else int(value)


def _require_kernel_integer(mu: LevelMeasure) -> None:
    if not four_term_is_zero(mu):
        raise ValueError("measure is not in the four-term kernel")
    if not mu.is_integer_valued():
        raise ValueError("measure must be integer-valued (rescale first)")


def _odd_word(mu: LevelMeasure, exponents: Sequence[int]) -> tuple[int, ...]:
    exponents = check_word(exponents, mu.r)
    if sum(exponents) % 2 == 0:
        raise ValueError("the exponent sum must be odd")
    return exponents


def vanishing_check(
    mu: LevelMeasure,
    exponents: Sequence[int],
    validate: bool = True,
) -> CongruenceVerdict:
    """Odd-sum moment congruence for a four-term-kernel integer measure.

    The moment with exponent word (0, n_1, ..., n_r) must have p-adic valuation
    at least n minus the certificate slack for the final exponent.  Callers
    sweeping many exponent words over one measure may pass ``validate=False``
    after checking the kernel and integrality hypotheses themselves.
    """
    exponents = _odd_word(mu, exponents)
    if validate:
        _require_kernel_integer(mu)
    threshold = mu.n - make_certificate(exponents).slack(mu.p)
    return CongruenceVerdict(padic_valuation(moment(mu, (0, *exponents)), mu.p), threshold)


def _vanishing_family(mu: LevelMeasure, sums: Iterable[Sequence[int]]
                      ) -> tuple[CheckFamily, list[int | float], dict[int, int]]:
    """:func:`vanishing_check` at every odd word of ``sums``, partial sums
    that one engine sweep at modulus 1 yields back with each word's table:
    the family, each word's valuation in order, and the threshold per final
    exponent.  A failure is a (word, valuation, threshold) tuple.

    The kernel and integrality hypotheses are checked once, first.  The slack
    depends only on the final exponent, so one certificate is built per final
    exponent, at its first word.  No word is made but for a certificate or a
    failure.
    """
    _require_kernel_integer(mu)
    thresholds: dict[int, int] = {}
    valuations: list[int | float] = []
    failures = []
    for word_sums, (table,) in _sweep(mu, sums, 0, (0,)):
        final = word_sums[-1] - (word_sums[-2] if mu.r > 1 else 0)
        if final not in thresholds:
            thresholds[final] = mu.n - make_certificate(_word(word_sums)).slack(mu.p)
        valuation = padic_valuation(table[0], mu.p)
        valuations.append(valuation)
        if valuation < thresholds[final]:
            failures.append((_word(word_sums), valuation, thresholds[final]))
    family = CheckFamily(len(valuations), tuple(failures), min(valuations, default=INFINITY))
    return family, valuations, thresholds


def _identity_signs(m: int) -> list[int]:
    """Signs of the coset identity's four sums for exponent sum m, in ``FOUR_TERM`` order."""
    return [sign * scale**m for sign, scale, _ in FOUR_TERM]


def _identity_sums(mu: LevelMeasure, base: Sequence[int], modulus_exponent: int,
                   word: tuple[int, ...]) -> list[Fraction]:
    """The coset identity's four unsigned sums, in ``FOUR_TERM`` order."""
    stride = mu.p**modulus_exponent
    return [
        coset_moment(mu, Coset(tuple((scale * b + offset) % stride for b in base),
                               modulus_exponent), word, -offset)
        for _, scale, offset in FOUR_TERM
    ]


def coset_four_term_check(
    mu: LevelMeasure,
    coset: Coset,
    exponents: Sequence[int],
    validate: bool = True,
) -> CongruenceVerdict:
    """Signed four-coset moment identity at the measure's level.

    The four sums run over the cosets based at i, -i, -i+1, i-1 with final
    factors x^{n_r}, x^{n_r}, (x-1)^{n_r}, (x+1)^{n_r} and signs
    +1, (-1)^{m+1}, (-1)^m, -1, where m is the sum of all the exponents; all
    three are derived from ``FOUR_TERM``.
    """
    exponents = check_word(exponents, mu.r)
    if validate:
        _require_kernel_integer(mu)
    sums = _identity_sums(mu, coset.base, coset.modulus_exponent, (0, *exponents))
    total = Fraction(0)
    for sign, value in zip(_identity_signs(sum(exponents)), sums):
        total += value if sign > 0 else -value  # negation is cheaper than int * Fraction
    return CongruenceVerdict(padic_valuation(total, mu.p), mu.n)


def _identity_totals(mu: LevelMeasure, sums: Iterable[Sequence[int]], modulus_exponent: int
                     ) -> Iterator[tuple[Sequence[int], list[int]]]:
    """Per word, given by its partial sums in ``sums``, those sums and the
    coset identity's signed totals at the bases in row-major order, times
    ``mu.denominator``."""
    maps = tuple(_four_term_maps(mu.p**modulus_exponent, mu.r))
    offsets = sorted({-offset for _, _, offset in FOUR_TERM})
    # per parity of the exponent sum, the entries with sign + first (two of
    # each sign, so one pattern a + b - c - d serves both), each read from its
    # final offset's coset sums at the index its map sends the base to
    orders = [sorted(range(len(FOUR_TERM)), key=lambda entry: -_identity_signs(m)[entry])
              for m in (0, 1)]
    slots = [[offsets.index(-FOUR_TERM[entry][2]) for entry in order] for order in orders]
    ordered_maps = [[maps[entry] for entry in order] for order in orders]
    for word_sums, tables in _sweep(mu, sums, modulus_exponent, offsets):
        odd = word_sums[-1] % 2  # the exponent sum is the last partial sum
        a, b, c, d = (tables[slot] for slot in slots[odd])
        yield word_sums, [a[i] + b[j] - c[k] - d[l] for i, j, k, l in zip(*ordered_maps[odd])]


def _screened_failures(totals: list[int], p: int,
                       n: int) -> tuple[int | float, list[tuple[int, int]]]:
    """The worst valuation of integer totals and the (index, valuation) of
    each total below the threshold n, from one gcd: v_p of the gcd is the
    worst valuation, and only when p^n does not divide it is any total's own
    valuation taken."""
    common = gcd(*totals)
    if not common:
        return INFINITY, []
    modulus = p**n
    failures = [] if common % modulus == 0 else [
        (index, padic_valuation(total, p)) for index, total in enumerate(totals) if total % modulus
    ]
    return padic_valuation(common, p), failures


def coset_identity_sweep(
    mu: LevelMeasure,
    sums: Iterable[Sequence[int]],
    modulus_exponent: int,
) -> Iterator[tuple[Sequence[int], int | float, list[tuple[int, int]]]]:
    """:func:`coset_four_term_check` at every coset of one modulus, per word.

    The words come as partial sums (``measures._word_sums`` makes them from
    explicit words, checking each).  Yields, per word in order, its partial
    sums, the worst valuation of the signed totals over the bases of
    (Z/p^modulus_exponent)^r and the failing checks, as (row-major base
    index, valuation) pairs in base order; a check fails when its valuation
    is below the measure's level.  The hypotheses are not checked here, so
    that a measure outside the kernel can be shown to fail.
    """
    # the totals T are numerators over d = mu.denominator and v_p(T/d) = v_p(T) - v_p(d)
    shift = padic_valuation(mu.denominator, mu.p)
    for word_sums, totals in _identity_totals(mu, sums, modulus_exponent):
        worst, failures = _screened_failures(totals, mu.p, mu.n + shift)
        yield word_sums, worst - shift, [(index, v - shift) for index, v in failures]


def coset_family(mu: LevelMeasure, sums: Collection[Sequence[int]]) -> CheckFamily:
    """Every signed coset identity at modulus exponents {1, n} (only 0 at
    level 0) and every word, the words given by their partial sums: a sized
    collection, walked once by each sweep.  A failure is a (modulus
    exponent, base point, word, valuation) tuple, in (modulus exponent, base,
    word) order; a failing valuation is below n, so a finite int.

    On an integer measure every signed total is congruent mod p^n to the sum
    of the word's integrand times the four-term combination over its coset
    (README, "How checks are computed").  So on an integer kernel measure no
    check fails and no total lies below n, and the sweep stops at the first
    total of valuation n: the worst is then n, whatever the rest hold.  Any
    other measure is swept in full."""
    # the worst valuation at which the sweep may stop, below any it can reach
    # unless the congruence applies
    settled = mu.n if mu.is_integer_valued() and four_term_is_zero(mu) else -INFINITY
    total = 0
    failures = []
    worst: int | float = INFINITY
    for modulus_exponent in sorted({1, mu.n}) if mu.n >= 1 else [0]:
        total += len(sums) * mu.p ** (modulus_exponent * mu.r)
        if worst <= settled:
            continue
        failed = []
        sweep = enumerate(coset_identity_sweep(mu, sums, modulus_exponent))
        for word_index, (word_sums, word_worst, word_failures) in sweep:
            worst = min(worst, word_worst)
            failed += [(base, word_index, _word(word_sums), v) for base, v in word_failures]
            if worst <= settled:
                break
        failures += [(modulus_exponent, _points(mu.p**modulus_exponent, mu.r)[base], word, v)
                     for base, _, word, v in sorted(failed)]
    return CheckFamily(total, tuple(failures), worst)


def coset_lambda_tables(
    mu: LevelMeasure,
    exponents: Sequence[int],
    modulus_exponent: int,
) -> tuple[dict, dict, dict, dict]:
    """Factorial-normalized coset-moment tables for the four index patterns
    i, -i, -i+1, i-1 (with the matching shifted final factors), indexed by the
    base tuple.  These are the four summands of the signed coset identity in
    normalized-coefficient form, each read from the one-coset oracle."""
    exponents = check_word(exponents, mu.r)
    if not 0 <= modulus_exponent <= mu.n:
        raise ValueError("coset modulus exponent must lie between 0 and the measure level")
    norm = factorial_norm(exponents)
    bases = _points(mu.p**modulus_exponent, mu.r)
    sums = [_identity_sums(mu, base, modulus_exponent, (0, *exponents)) for base in bases]
    return tuple({base: row[entry] / norm for base, row in zip(bases, sums)}
                 for entry in range(len(FOUR_TERM)))


def coefficient_four_term_check(
    tables: Sequence[Mapping],
    exponent_sum: int,
    p: int,
    threshold: int,
) -> CongruenceVerdict:
    """Signed combination of the four normalized tables against a valuation bound.

    The combination is t0 + (-1)^{m+1} t1 + (-1)^m t2 - t3 per index, with m the
    exponent sum and the signs those of the coset identity; the verdict passes
    when every index clears the threshold.
    """
    t0, t1, t2, t3 = tables
    if not (t0.keys() == t1.keys() == t2.keys() == t3.keys()):
        raise ValueError("the four tables must share one index set")
    signs = _identity_signs(exponent_sum)
    worst: int | float = INFINITY
    for idx in t0:
        combo = sum(sign * table[idx] for sign, table in zip(signs, tables))
        worst = min(worst, padic_valuation(combo, p))
    return CongruenceVerdict(worst, threshold)


def depth_one_bernoulli_value(scaling: Fraction | int, n: int) -> Fraction:
    """Closed form -B_{2n} / (2 (2n)!) * (c^{2n} - 1) for the depth-one
    coefficient at letter exponent 2n-1, as a function of the scaling value c.

    At c = 1 the value vanishes for every n.
    """
    if n < 1:
        raise ValueError("index must be at least 1")
    c = Fraction(scaling)
    return -bernoulli(2 * n) / (2 * factorial(2 * n)) * (c ** (2 * n) - 1)
