"""The elimination sweeps against their one-cell-at-a-time oracles.

``coset_sums`` takes r-words: (e_1, ..., e_r) stands for the integrand of the
(r+1)-word (0, e_1, ..., e_r).  It multiplies the integrand's factors into a
table over the nonzero cells and sums each coordinate out after the last
factor that reads it, keeping it mod p^e for coset sums.  ``moment``,
``coset_moment``, ``coset_four_term_check`` and ``vanishing_check`` evaluate
one cell (or one coset) at a time, on (r+1)-words; the sweeps, and the check
families built from them, must agree with them for integer kernel measures,
single sparse kernel basis vectors, perturbed measures outside the kernel and
Fraction-valued measures, at every modulus exponent 0..n, and for word lists
in any order, with repeats, or with the gaps of a ``vanish`` sweep.  The
coset sweep's gcd screen must agree with every total's own valuation.
``coset_family`` stops its sweep on an integer kernel measure at the first
total of valuation n; the full sweep it ran before stays here as its oracle.
``moment_table``, which makes each word with a first exponent above 0 from
the level below it, must agree on every word with :func:`moment_sweep`, a
test-side oracle that reads every (r+1)-word from the engine on its own.
"""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from mzvkit import euler, measures
from mzvkit.euler import (
    CheckFamily,
    CongruenceVerdict,
    _identity_totals,
    _odd_word,
    _require_kernel_integer,
    _screened_failures,
    _vanishing_family,
    coset_family,
    coset_four_term_check,
    coset_identity_sweep,
    coset_lambda_tables,
    make_certificate,
    vanishing_check,
)
from mzvkit.exact import INFINITY, padic_valuation
from mzvkit.measures import (
    FOUR_TERM,
    Coset,
    LevelMeasure,
    _word_sums,
    _WordSums,
    coset_moment,
    coset_sums,
    exponent_words,
    factorial_norm,
    moment,
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


def engine_moments(mu, words):
    """``moment(mu, (0, *w))`` for every r-word w, from the engine's sums at
    modulus 1 with final offset 0, each an int over the denominator."""
    sums = [table[0] for (table,) in coset_sums(mu, words, 0, (0,))]
    assert all(type(value) is int for value in sums)
    return [Fraction(value, mu.denominator) for value in sums]


def moment_sweep(mu, words):
    """``moment(mu, w)`` for every (r+1)-word w, in order, from the engine
    alone: the first factor (-x_1)^e_0 moves into the measure, whose cell x
    it weighs, and the rest of the word is an r-word of the weighed measure.
    The values are ints when the measure is integral, else Fractions, as
    ``moment_table`` gives them."""
    words = list(words)
    value_of = {}
    for head in {word[0] for word in words}:
        tails = [word[1:] for word in words if word[0] == head]
        weighed = LevelMeasure._reduced(
            mu.p, mu.n, mu.r,
            [v * (-x[0]) ** head for x, v in zip(mu.points(), mu.numerators)], mu.denominator)
        value_of.update(((head, *tail), value)
                        for tail, value in zip(tails, engine_moments(weighed, tails)))
    convert = int if mu.is_integer_valued() else Fraction
    return [convert(value_of[tuple(word)]) for word in words]


def vanishing_sweep(mu, words):
    """:func:`vanishing_check` for every word, in order, as one verdict per
    word from one engine sweep at modulus 1: what ``vanish`` held before it
    kept one valuation per word, now the oracle of ``_vanishing_family``.
    The kernel and integrality hypotheses are checked once, after the words;
    one certificate is built per final exponent."""
    words = [_odd_word(mu, word) for word in words]
    _require_kernel_integer(mu)
    slack = {word[-1]: make_certificate(word).slack(mu.p) for word in words}
    sums = coset_sums(mu, words, 0, (0,))
    return [CongruenceVerdict(padic_valuation(table[0], mu.p), mu.n - slack[word[-1]])
            for word, (table,) in zip(words, sums)]


def verdict_family(verdicts):
    """The family of ``verdicts``: the failures are the failing verdicts, in order."""
    return CheckFamily(len(verdicts), tuple(verdict for verdict in verdicts if not verdict.passed),
                       min((verdict.valuation for verdict in verdicts), default=INFINITY))


def full_sweep_coset_family(mu, words):
    """``coset_family`` as it was before it could stop: every coset identity
    at modulus exponents {1, n} (only 0 at level 0) and every word swept."""
    total = 0
    failures = []
    worst = INFINITY
    for modulus_exponent in sorted({1, mu.n}) if mu.n >= 1 else [0]:
        total += len(words) * mu.p ** (modulus_exponent * mu.r)
        failed = []
        sweep = coset_identity_sweep(mu, _word_sums(words, mu.r), modulus_exponent)
        for word_index, (word_worst, word_failures) in enumerate(sweep):
            worst = min(worst, word_worst)
            failed += [(base, word_index, v) for base, v in word_failures]
        bases = LevelMeasure.zero(mu.p, modulus_exponent, mu.r).points()
        failures += [(modulus_exponent, bases[base], words[word_index], v)
                     for base, word_index, v in sorted(failed)]
    return CheckFamily(total, tuple(failures), worst)


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
    swept = moment_sweep(mu, words)
    assert swept == [moment(mu, word) for word in words]
    assert moment_sweep(mu, sorted(words)) == [moment(mu, word) for word in sorted(words)]
    # ints exactly when the measure is integral
    assert {type(value) for value in swept} <= {int if mu.is_integer_valued() else Fraction}
    assert moment_sweep(c * mu, words) == [c * value for value in swept]


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
@given(measures_and_words(max_words=6), st.lists(st.integers(-2, 2), max_size=2))
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
                assert vector == [
                    coset_moment(mu, Coset(base, e), (0, *word), offset) * mu.denominator
                    for base in bases]
    # modulus 1 with final offset 0 is the moment
    assert [vector for (vector,) in coset_sums(mu, words, 0, (0,))] == [
        [moment(mu, (0, *word)) * mu.denominator] for word in words]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 0, 6), (3, 0, 5), (2, 1, 5), (3, 1, 3)]), st.sampled_from(KINDS),
       st.integers(0, 1000), st.data())
def test_coset_sums_pass_tables_through_in_any_word_order(config, kind, seed, data):
    """Deeper words, mostly of zeros, in any order: at level 0 (and for sparse
    tables) stages pass their tables through, and a word may restart below,
    at or above the stages the word before it ran."""
    p, n, r = config
    mu = build_measure(p, n, r, kind, seed)
    words = data.draw(st.lists(st.tuples(*[st.sampled_from([0, 0, 0, 1, 2])] * r), max_size=12))
    offsets = (0, -1, 1)
    for e in range(n + 1):
        bases = LevelMeasure.zero(p, e, r).points()
        for word, sums in zip(words, coset_sums(mu, words, e, offsets), strict=True):
            assert list(sums) == [
                [coset_moment(mu, Coset(base, e), (0, *word), offset) * mu.denominator
                 for base in bases]
                for offset in offsets]


@settings(max_examples=30, deadline=None)
@given(measures_and_words(extra=0, max_words=8))
def test_coset_sweep_matches_coset_four_term_check(case):
    mu, words = case
    for e in range(mu.n + 1):
        bases = LevelMeasure.zero(mu.p, e, mu.r).points()
        swept = list(coset_identity_sweep(mu, _word_sums(words, mu.r), e))
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
    assert coset_family(mu, _word_sums(words, mu.r)) == CheckFamily(
        len(checks), tuple(check for check in checks if check[3] < mu.n),
        min((check[3] for check in checks), default=INFINITY))


FAMILY_KINDS = ("kernel", "p times kernel", "zero", "perturbed", "rational kernel", "sparse")


def family_measure(p, n, r, kind):
    if kind == "zero":
        return LevelMeasure.zero(p, n, r)
    mu = build_measure(p, n, r, "sparse" if kind == "sparse" else "kernel", seed=11)
    if kind == "p times kernel":
        return p * mu
    if kind == "rational kernel":
        return mu * Fraction(1, 3)
    if kind == "perturbed":
        return mu + LevelMeasure.point_mass(p, n, r, (1,) * r)
    return mu


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("config", CONFIGS, ids=str)
def test_coset_family_matches_the_full_sweep(config, kind):
    """The family that may stop early against the full sweep, on kernel
    measures (integer, p times one, a basis vector, and over 3) and outside
    the kernel, at every level including 0, in word order and reversed."""
    mu = family_measure(*config, kind)
    words = list(exponent_words(mu.r, 4))
    for order in (words, words[::-1]):
        assert coset_family(mu, _word_sums(order, mu.r)) == full_sweep_coset_family(mu, order)
    if kind == "p times kernel":
        # every total gains one unit, so none has valuation n and none fails
        unscaled = full_sweep_coset_family(mu * Fraction(1, mu.p), words)
        assert coset_family(mu, _word_sums(words, mu.r)).worst == unscaled.worst + 1
    if kind == "zero":
        assert coset_family(mu, _word_sums(words, mu.r)).worst == INFINITY


def drained_words(monkeypatch):
    """A list that collects, in order, the modulus exponent of each word that
    ``coset_family`` draws from its sweeps."""
    drawn = []
    sweep = euler.coset_identity_sweep

    def counted(mu, sums, modulus_exponent):
        for result in sweep(mu, sums, modulus_exponent):
            drawn.append(modulus_exponent)
            yield result

    monkeypatch.setattr(euler, "coset_identity_sweep", counted)
    return drawn


@pytest.mark.parametrize("config", [(5, 2, 2), (2, 3, 2), (3, 1, 3), (7, 1, 2)], ids=str)
def test_coset_family_stops_at_the_first_total_of_valuation_n(config, monkeypatch):
    """On an integer kernel measure the sweep ends at the first word whose
    worst total has valuation n, and a modulus exponent after it is never
    swept; on p times the measure, whose totals all lie above n, and on the
    perturbed measure outside the kernel, every word at every modulus
    exponent is swept."""
    p, n, r = config
    mu = random_kernel_measure(p, n, r, seed=0)
    words = list(exponent_words(r, 6))
    exponents = sorted({1, n})
    sums = _word_sums(words, r)
    drawn = drained_words(monkeypatch)
    family = coset_family(mu, sums)
    assert family == full_sweep_coset_family(mu, words)
    assert family.worst == n
    stop = drawn.copy()
    assert stop and set(stop) == {exponents[0]} and len(stop) < len(words)
    (worst, _), = coset_identity_sweep(mu, [sums[len(stop) - 1]], exponents[0])
    assert worst == n
    assert all(w > n for w, _ in coset_identity_sweep(mu, sums[:len(stop) - 1], exponents[0]))
    for measure in (p * mu, mu + LevelMeasure.point_mass(p, n, r, (1,) * r)):
        drawn.clear()
        coset_family(measure, sums)
        assert drawn == [e for e in exponents for _ in words]


@settings(max_examples=40, deadline=None)
@given(measures_and_words(extra=0, max_words=30), st.data())
def test_sweeps_match_oracles_on_vanish_word_lists(case, data):
    """Sorted odd r-words, as ``vanish`` builds them: later exponents jump
    over the gaps."""
    mu, raw = case
    words = [word for word in sorted(set(raw)) if sum(word) % 2]
    assert engine_moments(mu, words) == [moment(mu, (0, *word)) for word in words]
    e = data.draw(st.integers(0, mu.n))
    bases = [tuple(b) for b in LevelMeasure.zero(mu.p, e, mu.r).points()]
    for word, (vector,) in zip(words, coset_sums(mu, words, e, (-1,))):
        assert vector == [coset_moment(mu, Coset(base, e), (0, *word), -1) * mu.denominator
                          for base in bases]


@settings(max_examples=40, deadline=None)
@given(measures_and_words(extra=0, max_words=6), st.data(), st.integers(0, 3))
def test_gcd_screen_matches_per_total_valuations(case, data, k):
    """The screen against each total's own valuation, on the measure and on
    the measure divided by p^k, whose valuations are all k lower."""
    mu, words = case
    e = data.draw(st.integers(0, mu.n))
    sums = _word_sums(words, mu.r)
    swept = list(coset_identity_sweep(mu, sums, e))
    scaled = list(coset_identity_sweep(mu * Fraction(1, mu.p**k), sums, e))
    for totals, result, scaled_result in zip(_identity_totals(mu, sums, e), swept, scaled):
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
        for word, totals in zip(words, _identity_totals(mu, _word_sums(words, mu.r), e)):
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
            (sums,) = coset_sums(mu, [word], e, offsets)
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
    # one valuation per word, one threshold per final exponent, in any word order
    family, valuations, thresholds = _vanishing_family(mu, _word_sums(words, r))
    assert valuations == [v.valuation for v in verdicts]
    assert [thresholds[word[-1]] for word in words] == [v.threshold for v in verdicts]
    assert family == CheckFamily(
        len(verdicts), tuple((word, v.valuation, v.threshold)
                             for word, v in zip(words, verdicts) if not v.passed),
        min((v.valuation for v in verdicts), default=INFINITY))


@pytest.mark.parametrize("config", [(3, 1, 2), (5, 1, 1), (2, 3, 2), (3, 1, 3)], ids=str)
def test_vanishing_family_records_each_failure(config, monkeypatch):
    """No integer kernel measure fails a congruence, so with the kernel test
    lifted a measure outside the kernel shows the failures: the family's are
    the words that fail ``vanishing_check``, as (word, valuation, threshold)
    in word order, beside every word's valuation."""
    p, n, r = config
    mu = build_measure(p, n, r, "perturbed", seed=3)
    monkeypatch.setattr(euler, "_require_kernel_integer", lambda mu: None)
    words = [word for word in exponent_words(r, 6) if sum(word) % 2]
    verdicts = [vanishing_check(mu, word, validate=False) for word in words]
    family, valuations, _ = _vanishing_family(mu, _word_sums(words, r))
    failures = tuple((word, v.valuation, v.threshold)
                     for word, v in zip(words, verdicts) if not v.passed)
    assert failures and family.failures == failures
    assert valuations == [v.valuation for v in verdicts]
    assert family == CheckFamily(len(words), failures, min(valuations))


def test_level_zero_restart_is_linear_in_depth(monkeypatch):
    """At level 0 no stage sums or copies its table, so each word of one 1
    runs the one stage it changes and every later stage passes its table
    through: at cap 1 the multiplies of ``moments``' first level and of the
    ``vanish`` sweep grow linearly in the depth.  A restart that recomputed
    every stage after the first change made r(r + 1)/2 of them."""
    calls = []
    times_power = measures._times_power
    monkeypatch.setattr(measures, "_times_power",
                        lambda *args: calls.append(args[2]) or times_power(*args))
    counts = {}
    for r in (200, 400):
        mu = random_kernel_measure(2, 0, r, seed=0)
        calls.clear()
        assert len(list(moment_table(mu, 1))) == r + 2
        counts["moments", r] = len(calls)
        calls.clear()
        family, valuations, _ = _vanishing_family(mu, _WordSums(r, 1, odd=True))
        assert family.passed and len(valuations) == r
        counts["vanish", r] = len(calls)
    assert counts == {("moments", 200): 200, ("vanish", 200): 200,
                      ("moments", 400): 400, ("vanish", 400): 400}


def test_sweeps_validate_like_their_oracles():
    mu = random_kernel_measure(3, 1, 2, seed=1)
    for e in (-1, 2):
        with pytest.raises(ValueError, match="between 0 and the measure level"):
            coset_sums(mu, [(0, 1)], e, (0,))
    # r-words only: the (r+1)-word of the oracles is refused
    with pytest.raises(ValueError):
        coset_sums(mu, [(0, 0, 1)], 0, (0,))
    for e in (-1, 2):
        with pytest.raises(ValueError, match="between 0 and the measure level"):
            coset_lambda_tables(mu, (0, 1), e)
    # the coset sweeps take partial sums, checked where explicit words enter
    with pytest.raises(ValueError):
        _word_sums([(1, -1)], 2)
    with pytest.raises(ValueError):
        coset_sums(mu, [(1, -1)], 1, (0,))
    with pytest.raises(ValueError):
        vanishing_sweep(mu, [(1, 1)])
    with pytest.raises(ValueError, match="kernel"):
        vanishing_sweep(LevelMeasure.point_mass(3, 1, 1, (1,)), [(1,)])
    with pytest.raises(ValueError, match="kernel"):
        _vanishing_family(LevelMeasure.point_mass(3, 1, 1, (1,)), [(1,)])
