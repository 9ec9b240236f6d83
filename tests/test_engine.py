"""The elimination sweeps against their one-cell-at-a-time oracles.

``moment_sweep`` and ``coset_sums`` multiply the integrand's factors into a
table over the nonzero cells and sum each coordinate out after the last factor
that reads it, keeping it mod p^e for coset sums.  ``moment``,
``coset_moment``, ``coset_four_term_check`` and ``vanishing_check`` evaluate
one cell (or one coset) at a time; the sweeps, and the check families built
from them, must agree with them for integer kernel measures, single sparse
kernel basis vectors, perturbed measures outside the kernel and
Fraction-valued measures, at every modulus exponent 0..n, and for word lists
in any order, with repeats, or with the gaps of a ``vanish`` sweep.  The
coset sweep's gcd screen must agree with every total's own valuation, and
``moment_table``, which makes each word with a first exponent above 0 from
the level below it, must agree with ``moment_sweep`` on every word.
"""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from mzvkit.euler import (
    CheckFamily,
    _identity_totals,
    _screened_failures,
    coset_family,
    coset_four_term_check,
    coset_identity_sweep,
    coset_lambda_tables,
    vanishing_check,
    vanishing_sweep,
    verdict_family,
)
from mzvkit.exact import INFINITY, padic_valuation
from mzvkit.measures import (
    FOUR_TERM,
    Coset,
    LevelMeasure,
    coset_moment,
    coset_sums,
    exponent_words,
    factorial_norm,
    moment,
    moment_sweep,
    moment_table,
    point_to_index,
)
from mzvkit.synth import four_term_kernel, random_kernel_measure

# level 3 at p = 2 leaves 8, 4, 2 or 1 residues of a coordinate in a coset
CONFIGS = [(p, n, r) for p in (2, 3, 5) for n in (0, 1, 2) for r in (1, 2, 3)
           if p ** (n * r) <= 125] + [(2, 3, 1), (2, 3, 2)]
KINDS = ("kernel", "perturbed", "fraction", "sparse", "sparse perturbed")


def build_measure(p, n, r, kind, seed):
    """A measure of the given kind; a sparse one is a single four-term kernel
    basis vector, chosen by the seed."""
    if kind == "fraction":
        values = [Fraction((seed * 7 + 13 * i) % 11 - 5, 1 + (seed + i) % 4)
                  for i in range(p ** (n * r))]
        return LevelMeasure(p, n, r, tuple(values))
    if kind.startswith("sparse"):
        basis = four_term_kernel(p, n, r)
        vector = basis.vectors[seed % basis.dimension]
        mu = LevelMeasure(p, n, r, tuple(vector.get(cell, 0) for cell in range(p ** (n * r))))
    else:
        mu = random_kernel_measure(p, n, r, seed=seed)
    if kind.endswith("perturbed"):
        mu = mu + LevelMeasure.point_mass(p, n, r, (1,) * r)
    return mu


def _per_total_failures(totals, p, n):
    """What ``_screened_failures`` returns, from every total's own valuation."""
    valuations = [padic_valuation(total, p) for total in totals]
    return min(valuations), [(index, v) for index, v in enumerate(valuations) if v < n]


@st.composite
def measures_and_words(draw, extra=0, max_words=12):
    """A measure and an unsorted list of words (repeats allowed) of length r + extra."""
    p, n, r = draw(st.sampled_from(CONFIGS))
    mu = build_measure(p, n, r, draw(st.sampled_from(KINDS)), draw(st.integers(0, 1000)))
    word = st.tuples(*[st.integers(0, 4)] * (r + extra))
    return mu, draw(st.lists(word, max_size=max_words))


@settings(max_examples=60, deadline=None)
@given(measures_and_words(extra=1, max_words=30), st.fractions(max_denominator=50))
def test_moment_sweep_matches_moment_in_any_order(case, c):
    mu, words = case
    words = words + words[:3]  # repeated words, also out of order
    swept = list(moment_sweep(mu, words))
    assert swept == [moment(mu, word) for word in words]
    assert list(moment_sweep(mu, sorted(words))) == [moment(mu, word) for word in sorted(words)]
    # ints exactly when the measure is integral
    assert {type(value) for value in swept} <= {int if mu.is_integer_valued() else Fraction}
    assert list(moment_sweep(c * mu, words)) == [c * value for value in swept]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("config", CONFIGS + [(2, 1, 5), (3, 1, 4)], ids=str)
def test_moment_table_matches_moment_sweep(config, kind):
    """The first-exponent recurrence against the engine on every word, for
    each kind of measure and every cap up to 6 (up to 4 at depths 4 and 5,
    where the recurrence walks prefixes of up to four entries)."""
    p, n, r = config
    mu = build_measure(p, n, r, kind, seed=5)
    for cap in range(7 if r <= 3 else 5):
        words = list(exponent_words(r + 1, cap))
        table = list(moment_table(mu, cap))
        assert table == list(zip(words, moment_sweep(mu, words)))
        assert {type(value) for _, value in table} == {
            int if mu.is_integer_valued() else Fraction}
    assert list(moment_table(mu, -1)) == []


@settings(max_examples=30, deadline=None)
@given(measures_and_words(extra=1, max_words=6),
       st.lists(st.integers(-2, 2), max_size=2))
def test_coset_sums_match_coset_moment(case, extra_offsets):
    mu, words = case
    offsets = (0, -1, 1, *extra_offsets)
    for e in range(mu.n + 1):
        bases = [tuple(b) for b in LevelMeasure.zero(mu.p, e, mu.r).points()]
        swept = list(coset_sums(mu, words, e, offsets))
        assert len(swept) == len(words)
        for word, sums in zip(words, swept):
            assert len(sums) == len(offsets)
            for offset, vector in zip(offsets, sums):
                assert vector == [coset_moment(mu, Coset(base, e), word, offset) * mu.denominator
                                  for base in bases]
    # modulus 1 with final offset 0 is the moment sweep
    assert [vector for (vector,) in coset_sums(mu, words, 0, (0,))] == [
        [value * mu.denominator] for value in moment_sweep(mu, words)]


@settings(max_examples=30, deadline=None)
@given(measures_and_words(extra=0, max_words=8))
def test_coset_sweep_matches_coset_four_term_check(case):
    mu, words = case
    for e in range(mu.n + 1):
        bases = LevelMeasure.zero(mu.p, e, mu.r).points()
        swept = list(coset_identity_sweep(mu, words, e))
        assert len(swept) == len(words)
        for word, (worst, failures) in zip(words, swept):
            valuations = [
                coset_four_term_check(mu, Coset(base, e), word, validate=False).valuation
                for base in bases
            ]
            assert worst == min(valuations)
            assert failures == [(i, v) for i, v in enumerate(valuations) if v < mu.n]
    # the family: modulus exponents {1, n} (0 at level 0), in (exponent, base, word) order
    checks = [(e, base, word,
               coset_four_term_check(mu, Coset(base, e), word, validate=False).valuation)
              for e in (sorted({1, mu.n}) if mu.n else [0])
              for base in LevelMeasure.zero(mu.p, e, mu.r).points() for word in words]
    assert coset_family(mu, words) == CheckFamily(
        len(checks), tuple(check for check in checks if check[3] < mu.n),
        min((check[3] for check in checks), default=INFINITY))


@settings(max_examples=40, deadline=None)
@given(measures_and_words(extra=0, max_words=30), st.data())
def test_sweeps_match_oracles_on_vanish_word_lists(case, data):
    """Sorted odd words behind a zero exponent, as ``vanish`` builds them: the
    first factor never changes and later exponents jump over the gaps."""
    mu, raw = case
    words = [(0, *word) for word in sorted(set(raw)) if sum(word) % 2]
    assert list(moment_sweep(mu, words)) == [moment(mu, word) for word in words]
    e = data.draw(st.integers(0, mu.n))
    bases = [tuple(b) for b in LevelMeasure.zero(mu.p, e, mu.r).points()]
    for word, (vector,) in zip(words, coset_sums(mu, words, e, (-1,))):
        assert vector == [coset_moment(mu, Coset(base, e), word, -1) * mu.denominator
                          for base in bases]


@settings(max_examples=40, deadline=None)
@given(measures_and_words(extra=0, max_words=6), st.data(), st.integers(0, 3))
def test_gcd_screen_matches_per_total_valuations(case, data, k):
    """The screen against each total's own valuation, on the measure and on
    the measure divided by p^k, whose valuations are all k lower."""
    mu, words = case
    e = data.draw(st.integers(0, mu.n))
    swept = list(coset_identity_sweep(mu, words, e))
    scaled = list(coset_identity_sweep(mu * Fraction(1, mu.p**k), words, e))
    for totals, result, scaled_result in zip(_identity_totals(mu, words, e), swept, scaled):
        assert all(type(total) is int for total in totals)
        rationals = [Fraction(total, mu.denominator) for total in totals]
        valuations = [padic_valuation(total, mu.p) for total in rationals]
        expected = (min(valuations), [(i, v) for i, v in enumerate(valuations) if v < mu.n])
        assert result == expected
        assert _per_total_failures(rationals, mu.p, mu.n) == expected
        lowered = [v - k for v in valuations]
        assert scaled_result == (result[0] - k,
                                 [(i, v) for i, v in enumerate(lowered) if v < mu.n])


@settings(max_examples=20, deadline=None)
@given(measures_and_words(extra=0, max_words=4))
def test_identity_totals_match_signed_coset_moments(case):
    """Each total, sign included, against the four coset moments of
    ``FOUR_TERM`` with signs sign * scale^m, m the exponent sum, one base at
    a time; valuations alone would not see a total of the wrong sign."""
    mu, words = case
    for e in range(mu.n + 1):
        stride = mu.p**e
        bases = LevelMeasure.zero(mu.p, e, mu.r).points()
        for word, totals in zip(words, _identity_totals(mu, words, e)):
            m = sum(word)
            assert totals == [
                mu.denominator * sum(
                    sign * scale**m * coset_moment(
                        mu, Coset(tuple((scale * b + offset) % stride for b in base), e),
                        (0, *word), -offset)
                    for sign, scale, offset in FOUR_TERM)
                for base in bases
            ]


@st.composite
def integer_totals(draw):
    """A prime, a level and integer totals that are multiples of p^0..p^(n+1), or zero."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 3))
    power = st.integers(0, n + 1).map(lambda k: p**k)
    return p, n, draw(st.lists(st.builds(mul, st.integers(-50, 50), power), min_size=1))


@given(integer_totals())
def test_gcd_screen_on_integer_totals(case):
    p, n, totals = case
    assert _screened_failures(totals, p, n) == _per_total_failures(totals, p, n)
    scaled = [total * p**n for total in totals]
    assert _screened_failures(scaled, p, n) == _per_total_failures(scaled, p, n)
    assert _screened_failures([0] * len(totals), p, n) == (INFINITY, [])


@settings(max_examples=20, deadline=None)
@given(measures_and_words(extra=0, max_words=4))
def test_coset_lambda_tables_match_coset_sums(case):
    """Each table entry, read from the one-coset oracle, against the engine's
    coset sum at its final offset and its mapped base."""
    mu, words = case
    offsets = sorted({-offset for _, _, offset in FOUR_TERM})
    for word in words:
        norm = factorial_norm(word)
        for e in range(mu.n + 1):
            stride = mu.p**e
            (sums,) = coset_sums(mu, [(0, *word)], e, offsets)
            tables = coset_lambda_tables(mu, word, e)
            for table, (_, scale, offset) in zip(tables, FOUR_TERM):
                vector = sums[offsets.index(-offset)]
                for base, value in table.items():
                    cell = point_to_index(tuple((scale * b + offset) % stride for b in base),
                                          stride)
                    assert value == Fraction(vector[cell], mu.denominator * norm)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CONFIGS), st.integers(0, 1000),
       st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3), max_size=10))
def test_vanishing_sweep_matches_vanishing_check(config, seed, raw):
    p, n, r = config
    mu = build_measure(p, n, r, ("kernel", "sparse")[seed % 2], seed)
    words = [tuple(w[:r]) for w in raw if sum(w[:r]) % 2]
    verdicts = [vanishing_check(mu, word) for word in words]
    swept = vanishing_sweep(mu, words)
    assert swept == verdicts
    assert verdict_family(swept) == CheckFamily(
        len(verdicts), tuple(v for v in verdicts if v.valuation < v.threshold),
        min((v.valuation for v in verdicts), default=INFINITY))


def test_sweeps_validate_like_their_oracles():
    mu = random_kernel_measure(3, 1, 2, seed=1)
    with pytest.raises(ValueError):
        moment_sweep(mu, [(0, 1)])
    with pytest.raises(ValueError):
        coset_sums(mu, [(0, 0, 1)], 2, (0,))
    for e in (-1, 2):
        with pytest.raises(ValueError, match="between 0 and the measure level"):
            coset_lambda_tables(mu, (0, 1), e)
    with pytest.raises(ValueError):
        coset_identity_sweep(mu, [(1, -1)], 1)
    with pytest.raises(ValueError):
        vanishing_sweep(mu, [(1, 1)])
    with pytest.raises(ValueError, match="kernel"):
        vanishing_sweep(LevelMeasure.point_mass(3, 1, 1, (1,)), [(1,)])
