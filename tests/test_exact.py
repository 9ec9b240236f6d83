from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from mzvkit.exact import (
    INFINITY,
    bernoulli,
    binomial,
    check_config,
    check_word,
    format_rational,
    is_prime,
    padic_valuation,
    parse_rational,
)


def bernoulli_oracle(k: int) -> Fraction:
    # sum_{j<=k} C(k+1, j) B_j = 0 solved bottom-up, B_1 = -1/2
    values = [Fraction(1)]
    for m in range(1, k + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += binomial(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return values[k]


rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=720
)


def test_is_prime_small_cases():
    assert [k for k in range(20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(121)
    assert is_prime(97)


def trial_division_is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def test_is_prime_matches_trial_division_oracle():
    for k in range(-5, 20_000):
        assert is_prime(k) == trial_division_is_prime(k), k


@given(st.integers(0, 10**9))
def test_is_prime_matches_trial_division_on_large_values(k):
    assert is_prime(k) == trial_division_is_prime(k)


def test_is_prime_large_cases():
    assert is_prime(2**61 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) * 1_000_000_007)
    # strong pseudoprimes to every base up to 23 and up to 37
    assert not is_prime(3_825_123_056_546_413_051)
    assert not is_prime(318_665_857_834_031_151_167_461)
    # the first strong pseudoprime to every base up to 41 is where the test stops deciding
    with pytest.raises(ValueError, match="not decided"):
        is_prime(3_317_044_064_679_887_385_961_981)


def test_valuation_examples():
    assert padic_valuation(0, 3) == INFINITY
    assert padic_valuation(Fraction(1, 6), 2) == -1
    assert padic_valuation(Fraction(28, 9), 3) == -2
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(Fraction(-9, 4), 3) == 2


def test_valuation_rejects_non_prime():
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1, 2), 1)


@given(k=st.integers(-10**30, 10**30), p=st.sampled_from([2, 3, 5, 7]))
def test_integer_valuation_matches_fraction_path(k, p):
    assert padic_valuation(k, p) == padic_valuation(Fraction(k), p)
    with pytest.raises(ValueError):
        padic_valuation(k, 9)


@given(q=rationals, s=rationals, p=st.sampled_from([2, 3, 5, 7]))
def test_valuation_is_multiplicative_and_ultrametric(q, s, p):
    vq = padic_valuation(q, p)
    vs = padic_valuation(s, p)
    assert padic_valuation(q * s, p) == vq + vs
    assert padic_valuation(q + s, p) >= min(vq, vs)


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_matches_recurrence_oracle():
    for k in range(31):
        assert bernoulli(k) == bernoulli_oracle(k)


def test_bernoulli_satisfies_recurrence_through_certificate_range():
    # sum_{j<=k} C(k+1, j) B_j = 0 for k >= 1 fixes each B_k from the lower ones;
    # certificates read B_0 .. B_200
    values = [bernoulli(k) for k in range(201)]
    assert values[0] == 1
    for k in range(1, 201):
        assert sum(binomial(k + 1, j) * values[j] for j in range(k + 1)) == 0, k


def test_bernoulli_vanishes_at_odd_indices():
    for k in range(3, 31, 2):
        assert bernoulli(k) == 0


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(5, 0) == 1
    assert binomial(6, 7) == 0
    assert binomial(6, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal_identity():
    for a in range(1, 31):
        for b in range(1, a):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


def test_rational_formatting():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 30)) == "-1/30"
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert parse_rational("28/9") == Fraction(28, 9)
    assert parse_rational("-5") == Fraction(-5)


def test_rational_formatting_of_ints_and_bools():
    assert format_rational(0) == "0"
    assert format_rational(-12) == "-12"
    assert format_rational(True) == "1"
    assert format_rational(False) == "0"
    assert format_rational(Fraction(-7, 1)) == "-7"


@given(q=rationals)
def test_rational_formatting_agrees_with_fraction_str(q):
    assert format_rational(q) == str(Fraction(q))
    if q.denominator == 1:
        assert format_rational(q.numerator) == str(q.numerator)


@given(q=rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("text", ["0.5", "1e2", "1_0", " 1 ", "1 ", "+1", "1/-2", "1/+2", "-1/2/3",
                                  "", "/2", "1/", "--1", "inf", "nan", "\uff11", "\u0661",
                                  "1\n", "1e10000000"])
def test_parse_rational_accepts_only_its_grammar(text):
    # -?[0-9]+(/[0-9]+)?, matched before any int() is built
    with pytest.raises(ValueError, match="n/d"):
        parse_rational(text)


def test_parse_rational_reads_leading_zeros_and_negative_zero():
    assert parse_rational("007/21") == Fraction(1, 3)
    assert parse_rational("-0") == 0
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("3/00")


def test_parse_rational_reads_an_integer_as_an_int():
    # an integer needs no Fraction; a value with "/" is one even when it is whole
    for text, value in (("0", 0), ("-0", 0), ("007", 7), ("-12", -12), ("9" * 40, int("9" * 40))):
        assert type(parse_rational(text)) is int and parse_rational(text) == value
    for text, value in (("1/3", Fraction(1, 3)), ("-4/6", Fraction(-2, 3)), ("5/1", 5)):
        assert type(parse_rational(text)) is Fraction and parse_rational(text) == value


def test_check_config_runs_cheap_guards_first():
    assert check_config(3, 2, 2, 81) == 81
    assert check_config(3, 2, 2) is None
    with pytest.raises(ValueError, match="above the cap 80"):
        check_config(3, 2, 2, 80)
    # the count stops past the bound, long before 2^(10^18) would be built
    with pytest.raises(ValueError, match="cells"):
        check_config(2, 10**9, 10**9, 1)
    # primality comes last: a composite base over the bound reports the bound
    with pytest.raises(ValueError, match="cells"):
        check_config(4, 1, 2, 10)
    with pytest.raises(ValueError, match="prime"):
        check_config(4, 1, 2, 100)
    for config, message in (((1, 10**9, 10**9), "prime"), ((3, -1, 1), "level"),
                            ((3, 1, 0), "depth")):
        with pytest.raises(ValueError, match=message):
            check_config(*config, 10)


def test_check_word_rules():
    assert check_word([0, 3], 2) == (0, 3)
    assert type(check_word([0, 3], 2)) is tuple
    # a valid tuple of ints is the word itself, so a sweep holds it once;
    # a bool is converted as any other index
    word = (0, 3)
    assert check_word(word, 2) is word and check_word(word) is word
    flagged = (True, 3)
    assert check_word(flagged, 2) == (1, 3) and type(check_word(flagged, 2)[0]) is int
    assert check_word((5,)) == (5,)
    for word, length in (((), None), ((), 2), ((1, 2), 3), ((1, -1), 2)):
        with pytest.raises(ValueError):
            check_word(word, length)
    with pytest.raises(TypeError):
        check_word((1.5, 2), 2)


@pytest.mark.parametrize("word,length,message", [
    ((), 2, "non-empty"),
    ([], None, "non-empty"),
    ((1, -1, 3), 2, "length 2, got 3"),
    ((True, -1), 3, "length 3, got 2"),
    ((1, -1), 2, "non-negative"),
    ([-2], None, "non-negative"),
])
def test_check_word_reports_the_first_rule_broken(word, length, message):
    # emptiness, then the length, then the signs, on tuples of ints and on
    # anything else alike
    with pytest.raises(ValueError, match=message):
        check_word(word, length)

