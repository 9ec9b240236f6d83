import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from mzvkit import exact
from mzvkit.euler import (
    MAX_CERTIFICATE_EXPONENT,
    certificate_to_json_dict,
    coefficient_four_term_check,
    coset_four_term_check,
    coset_lambda_tables,
    depth_one_bernoulli_value,
    four_term_poly,
    four_term_poly_coeffs,
    make_certificate,
    vanishing_check,
)
from mzvkit.exact import INFINITY, binomial, padic_valuation
from mzvkit.measures import (FOUR_TERM, Coset, LevelMeasure, coset_moment, exponent_words, four_term,
                             moment)
from mzvkit.synth import four_term_kernel, random_kernel_measure, random_lambda_table


def frac_poly(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def test_four_term_poly_ground_truths():
    assert four_term_poly(0, "even") == ()
    assert four_term_poly(0, "odd") == ()
    assert four_term_poly(1, "even") == ()
    assert four_term_poly(1, "odd") == frac_poly(-2)
    assert four_term_poly(2, "even") == frac_poly(0, -4)
    assert four_term_poly(2, "odd") == frac_poly(-2)
    assert four_term_poly(3, "odd") == frac_poly(-2, 0, -6)


def test_four_term_poly_rejects_bad_input():
    with pytest.raises(ValueError):
        four_term_poly(-1, "even")
    with pytest.raises(ValueError):
        four_term_poly(2, "weird")


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("a", range(1, 13))
def test_expansion_matches_direct_polynomial(a, parity):
    assert four_term_poly_coeffs(a, parity) == four_term_poly(a, parity)


def test_certificate_base_cases():
    odd_prefix = make_certificate((1, 0))
    assert odd_prefix.combination == ((2, Fraction(-1, 2)),)
    assert odd_prefix.m_parity == "odd"
    even_prefix = make_certificate((1,))
    assert even_prefix.combination == ((2, Fraction(-1, 4)),)
    assert even_prefix.m_parity == "even"
    assert even_prefix.slack(2) == 2
    assert even_prefix.slack(3) == 0


def test_certificate_recursion_step():
    cert = make_certificate((2, 2, 3))
    assert cert.target[-1] == 3
    assert cert.prefix_sum == 4
    assert dict(cert.combination) == {2: Fraction(1, 4), 4: Fraction(-1, 8)}
    assert cert.slack(2) == 3


@pytest.mark.parametrize("a", range(8))
def test_certificate_replay_recovers_monomial(a):
    # the prefix fixes the parity; pick the one that makes m + a odd
    prefix = (1,) if a % 2 == 0 else (2,)
    cert = make_certificate((*prefix, a))
    expected = tuple(Fraction(0) for _ in range(a)) + (Fraction(1),)
    assert cert.replay() == expected


@lru_cache(maxsize=None)
def recursive_combination(a, m_odd):
    # the top-down recursion: x^a = P_{a+1} / (-2(a+1)) minus the lower terms;
    # exponential in a without the memo (the returned dicts are only read)
    if a < 2:
        return {2: Fraction(-1, 2) if a == 0 else Fraction(-1, 4)}
    q = a + 1
    combo = {q: Fraction(-1, 2 * q)}
    for k in range(a - 2, -1, -2):
        for q2, c2 in recursive_combination(k, m_odd).items():
            combo[q2] = combo.get(q2, Fraction(0)) - Fraction(binomial(q, k), q) * c2
    return {q2: c2 for q2, c2 in combo.items() if c2}


@pytest.mark.parametrize("a", range(MAX_CERTIFICATE_EXPONENT + 1))
def test_certificate_matches_recursive_oracle(a):
    prefix = (1,) if a % 2 == 0 else (2,)
    cert = make_certificate((*prefix, a))
    assert cert.combination == tuple(sorted(recursive_combination(a, a % 2 == 0).items()))


def test_certificate_exponent_bound_checked_first(monkeypatch):
    # from an empty Bernoulli triangle, B_0 .. B_201 take about 0.2 s and
    # B_0 .. B_100000 hours: the limit must be checked before any is built
    monkeypatch.setattr(exact, "_BERNOULLI", [])
    monkeypatch.setattr(exact, "_TRIANGLE_ROW", [])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limit"):
        make_certificate((MAX_CERTIFICATE_EXPONENT + 1,))
    assert time.perf_counter() - start < 0.1
    assert exact._BERNOULLI == []
    with pytest.raises(ValueError, match="limit"):
        make_certificate((1, 100_000))
    assert exact._BERNOULLI == []


def test_certificate_parity_rejection():
    with pytest.raises(ValueError):
        make_certificate((1, 1))
    with pytest.raises(ValueError):
        make_certificate((2,))
    with pytest.raises(ValueError):
        make_certificate(())
    with pytest.raises(ValueError):
        make_certificate((-1, 2))


def test_certificate_json_form():
    cert = make_certificate((2, 2, 3))
    data = certificate_to_json_dict(cert, 2)
    assert data["target"] == [2, 2, 3]
    assert data["slack"] == 3
    assert {entry["q"] for entry in data["combination"]} == {2, 4}


def test_vanishing_check_constant_measure():
    verdict = vanishing_check(LevelMeasure.constant(3, 1, 1), (1,))
    assert verdict.valuation == 1
    assert verdict.threshold == 1
    assert verdict.passed


def test_vanishing_check_zero_measure():
    # the a = 2 combination carries a coefficient 1/6, so slack at p = 3 is 1
    verdict = vanishing_check(LevelMeasure.zero(3, 2, 2), (1, 2))
    assert verdict.valuation == INFINITY
    assert verdict.passed
    assert verdict.to_json_dict() == {"valuation": "inf", "threshold": 1, "pass": True}


def test_vanishing_check_slack_lowers_threshold():
    # at p = 2 the base certificate carries denominator 4, so the bound drops by 2
    verdict = vanishing_check(LevelMeasure.constant(2, 2, 1), (1,))
    assert verdict.valuation == 1
    assert verdict.threshold == 0
    assert verdict.passed


def test_vanishing_check_validation():
    mu = LevelMeasure.constant(3, 1, 1)
    with pytest.raises(ValueError):
        vanishing_check(mu, (2,))
    with pytest.raises(ValueError):
        vanishing_check(mu, (1, 1))
    with pytest.raises(ValueError):
        vanishing_check(LevelMeasure.point_mass(3, 1, 1, (1,)), (1,))
    with pytest.raises(ValueError):
        vanishing_check(LevelMeasure.constant(3, 1, 1, Fraction(1, 2)), (1,))


def test_even_exponent_sum_has_no_congruence():
    # the parity hypothesis is sharp: an even word can land at valuation 0
    mu = LevelMeasure.constant(3, 1, 1)
    value = moment(mu, (0, 2))
    assert value == 5
    assert padic_valuation(value, 3) == 0


def test_validate_flag_does_not_change_verdicts():
    mu = random_kernel_measure(3, 2, 1, seed=11)
    for exponents in [(1,), (3,), (5,)]:
        assert vanishing_check(mu, exponents) == vanishing_check(
            mu, exponents, validate=False
        )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponents=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda e: sum(e) % 2
    ),
)
def test_vanishing_holds_on_random_kernel_measures(seed, exponents):
    mu = random_kernel_measure(3, 1, 2, seed=seed)
    assert vanishing_check(mu, exponents).passed


def test_coset_check_zero_measure():
    verdict = coset_four_term_check(
        LevelMeasure.zero(3, 2, 1), Coset((0,), 1), (1,)
    )
    assert verdict.valuation == INFINITY
    assert verdict.threshold == 2
    assert verdict.passed


def test_coset_check_point_mass_mod_two():
    mu = LevelMeasure.point_mass(2, 1, 1, (0,))
    verdict = coset_four_term_check(mu, Coset((0,), 1), (1,))
    assert verdict.valuation == INFINITY
    assert verdict.passed


def test_coset_check_full_level_coset():
    mu = random_kernel_measure(3, 2, 1, seed=5)
    verdict = coset_four_term_check(mu, Coset((1,), 2), (2,))
    assert verdict.threshold == 2
    assert verdict.passed


def test_coset_check_all_bases_and_parities():
    mu = random_kernel_measure(3, 1, 1, seed=9)
    for base in range(3):
        for exponents in [(0,), (1,), (2,), (3,)]:
            assert coset_four_term_check(mu, Coset((base,), 1), exponents).passed


def test_coset_check_validation():
    mu = LevelMeasure.constant(3, 1, 1)
    with pytest.raises(ValueError):
        coset_four_term_check(mu, Coset((0,), 1), (1, 1))
    with pytest.raises(ValueError):
        coset_four_term_check(mu, Coset((0,), 1), (-1,))
    with pytest.raises(ValueError):
        coset_four_term_check(
            LevelMeasure.point_mass(3, 1, 1, (1,)), Coset((0,), 1), (1,)
        )


@pytest.mark.parametrize("config", [(2, 0, 2), (3, 0, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2),
                                    (3, 2, 1), (5, 1, 2), (2, 3, 1), (2, 1, 3), (7, 1, 2)],
                         ids=str)
def test_coset_totals_are_the_four_term_operator_mod_p_to_the_n(config):
    """The four-term congruence, on integer measures outside the kernel: at
    every modulus exponent e in 0..n, every base b and every word w up to
    sum 3, the signed coset total is congruent mod p^n to the sum over the
    coset of b of g_w * T(mu), g_w the integrand of (0, *w) and T the
    four-term operator.  Only ``coset_moment`` and ``four_term`` are read.
    Each ``FOUR_TERM`` entry (sign, scale, offset) maps the coset of b onto
    the one it sums by z = scale*y + offset mod p^n, and g_w(z) is then
    congruent to scale^m g_w(y), m the exponent sum, which the sign scale^m
    cancels.  So a kernel measure passes every coset check, which is what
    lets ``coset_family`` stop its sweep on one."""
    p, n, r = config
    mu = random_lambda_table(p, n, r, seed=sum(config))
    image = four_term(mu)
    modulus = p**n
    off_floor = 0
    for e in range(n + 1):
        stride = p**e
        for base in LevelMeasure.zero(p, e, r).points():
            for word in ((0, *w) for w in exponent_words(r, 3)):
                total = sum(
                    sign * scale ** sum(word) * coset_moment(
                        mu, Coset(tuple((scale * b + offset) % stride for b in base), e),
                        word, -offset)
                    for sign, scale, offset in FOUR_TERM)
                predicted = coset_moment(image, Coset(base, e), word)
                assert total.denominator == predicted.denominator == 1
                assert (total - predicted) % modulus == 0
                off_floor += total % modulus != 0
    # the measures are outside the kernel, so above modulus 2 some totals
    # are not 0 mod p^n; at modulus 2 the operator itself is 0 mod 2
    assert image.is_zero() == (modulus <= 2)
    assert (off_floor > 0) == (modulus > 2)


def test_coset_tables_pass_combination_check():
    mu = random_kernel_measure(3, 2, 1, seed=3)
    for exponents in [(1,), (2,)]:
        tables = coset_lambda_tables(mu, exponents, 1)
        verdict = coefficient_four_term_check(tables, sum(exponents), 3, 1)
        assert verdict.passed


def test_coset_tables_expose_perturbation():
    # adding one unit of mass at (1,) leaves the kernel, and the normalized
    # combination picks it up at valuation 0
    mu = random_kernel_measure(3, 1, 1, seed=3)
    broken = mu + LevelMeasure.point_mass(3, 1, 1, (1,))
    tables = coset_lambda_tables(broken, (1,), 1)
    verdict = coefficient_four_term_check(tables, 1, 3, 1)
    assert not verdict.passed
    assert verdict.valuation == 0


def test_coset_tables_zero_measure_pass():
    tables = coset_lambda_tables(LevelMeasure.zero(3, 1, 1), (1,), 1)
    verdict = coefficient_four_term_check(tables, 1, 3, 5)
    assert verdict.valuation == INFINITY
    assert verdict.passed


def test_coefficient_check_rejects_mismatched_tables():
    shared = {(0,): Fraction(0)}
    with pytest.raises(ValueError):
        coefficient_four_term_check(
            (shared, shared, shared, {(1,): Fraction(0)}), 1, 3, 1
        )


def test_coset_tables_normalize_by_factorials():
    mu = LevelMeasure.point_mass(3, 1, 1, (2,))
    tables = coset_lambda_tables(mu, (3,), 1)
    # identity pattern at base 2: integrand 2^3 over factorial 3!
    assert tables[0][(2,)] == Fraction(8, 6)


def test_depth_one_bernoulli_value_examples():
    for n in range(1, 11):
        assert depth_one_bernoulli_value(1, n) == 0
    assert depth_one_bernoulli_value(2, 1) == Fraction(-1, 8)
    assert depth_one_bernoulli_value(2, 2) == Fraction(1, 96)
    with pytest.raises(ValueError):
        depth_one_bernoulli_value(2, 0)


def test_kernel_basis_elements_satisfy_vanishing():
    basis = four_term_kernel(3, 1, 2)
    for vector in basis.measures():
        for exponents in [(0, 1), (1, 2), (3, 0)]:
            assert vanishing_check(vector, exponents).passed
