import gc
import hashlib
import json
import tracemalloc
from array import array
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from mzvkit.exact import format_rational
from mzvkit.measures import LevelMeasure
from mzvkit.paths import rhombus_product
from mzvkit.series import (
    Alphabet,
    NCSeries,
    X,
    exp,
    from_measure,
    log,
)
from mzvkit.synth import random_lambda_table

AB2 = Alphabet(2, 1)  # letters X, Y0, Y1
AB3 = Alphabet(3, 1)  # letters X, Y0, Y1, Y2


def series_to_json_dict(s):
    """The JSON form the digests below were recorded from:
    {"p", "n", "D", "terms": [{"word": "X.Y0", "coeff": "1/2"}, ...]}."""
    return {
        "p": s.alphabet.p,
        "n": s.alphabet.n,
        "D": s.degree_cap,
        "terms": [
            {"word": ".".join("X" if letter == X else f"Y{letter}" for letter in word),
             "coeff": format_rational(coeff)}
            for word, coeff in s.terms()
        ],
    }


def series(alphabet, cap, terms):
    return NCSeries(alphabet, cap, {tuple(w): Fraction(c) for w, c in terms.items()})


def series_terms(alphabet, cap, max_terms):
    words = st.lists(st.sampled_from(alphabet.letters()), max_size=cap).map(tuple)
    coeffs = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    )
    return st.lists(st.tuples(words, coeffs), max_size=max_terms).map(
        lambda pairs: NCSeries(alphabet, cap, pairs)
    )


def augmentation_series(alphabet, cap, max_terms=4):
    def strip_constant(s):
        return s - NCSeries(alphabet, cap, {(): s.coeff(())})

    return series_terms(alphabet, cap, max_terms).map(strip_constant)


# Oracles: the Fraction loops the series arithmetic ran on before it moved to
# integer numerators; the product pairs every two terms of Fraction coefficients.
# The inverse and the substitution homomorphism exist only here: no command
# needs them, and the octagon test in test_paths.py builds on them.
def fraction_mul(a, b):
    out = {}
    for word_a, coeff_a in a.terms():
        for word_b, coeff_b in b.terms():
            if len(word_a) + len(word_b) <= a.degree_cap:
                word = word_a + word_b
                out[word] = out.get(word, 0) + coeff_a * coeff_b
    return NCSeries(a.alphabet, a.degree_cap, out)


def fraction_scale(a, scalar):
    return NCSeries(a.alphabet, a.degree_cap, {word: c * scalar for word, c in a.terms()})


def fraction_sum(a, b, sign):
    out = dict(a.terms())
    for word, coeff in b.terms():
        out[word] = out.get(word, 0) + sign * coeff
    return NCSeries(a.alphabet, a.degree_cap, out)


def fraction_exp(u):
    acc = power = NCSeries.one(u.alphabet, u.degree_cap)
    for k in range(1, u.degree_cap + 1):
        power = fraction_scale(fraction_mul(power, u), Fraction(1, k))
        if power.is_zero():
            break
        acc = acc + power
    return acc


def fraction_log(s):
    u = s - NCSeries.one(s.alphabet, s.degree_cap)
    acc = NCSeries.zero(s.alphabet, s.degree_cap)
    power = None
    for k in range(1, s.degree_cap + 1):
        power = u if power is None else fraction_mul(power, u)
        if power.is_zero():
            break
        acc = acc + fraction_scale(power, Fraction((-1) ** (k + 1), k))
    return acc


def fraction_inverse(s):
    c = s.coeff(())
    one = NCSeries.one(s.alphabet, s.degree_cap)
    u = one - fraction_scale(s, 1 / c)
    acc = power = one
    for _ in range(s.degree_cap):
        power = fraction_mul(power, u)
        if power.is_zero():
            break
        acc = acc + power
    return fraction_scale(acc, 1 / c)


def fraction_substitute(s, images):
    out = NCSeries.zero(s.alphabet, s.degree_cap)
    for word, coeff in s.terms():
        image = NCSeries.one(s.alphabet, s.degree_cap)
        for letter in word:
            image = fraction_mul(image, images[letter])
        out = out + fraction_scale(image, coeff)
    return out


SMALL_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
SHAPES = st.tuples(st.sampled_from([AB2, AB3]), st.integers(0, 7))


def series_of_shape(alphabet, cap, min_degree=1, constant=None, max_degree=None):
    """Up to 3 words of degree min_degree..max_degree (default cap) with
    Fraction coefficients of denominator 1..9, plus the given constant term."""
    max_degree = cap if max_degree is None else max_degree
    pairs = st.just([])
    if min_degree <= max_degree:
        word = st.lists(st.sampled_from(alphabet.letters()), min_size=min_degree,
                        max_size=max_degree)
        pairs = st.lists(st.tuples(word.map(tuple), SMALL_FRACTIONS), max_size=3)
    extra = [] if constant is None else [((), constant)]
    return pairs.map(lambda terms: NCSeries(alphabet, cap, terms + extra))


def oracle_series(min_degree=1, constant=None):
    """A series on AB2 or AB3 with degree cap 0..7 (see series_of_shape)."""
    return SHAPES.flatmap(lambda shape: series_of_shape(*shape, min_degree, constant))


def nilpotent_series():
    """A series on AB2 or AB3 whose words all have degree above cap/2."""
    return SHAPES.flatmap(lambda shape: series_of_shape(*shape, shape[1] // 2 + 1))


def one_bucket_above_half():
    """A series on AB2 or AB3 whose words all have one degree above cap/2."""
    return SHAPES.filter(lambda shape: shape[1] > 0).flatmap(
        lambda shape: st.integers(shape[1] // 2 + 1, shape[1]).flatmap(
            lambda degree: series_of_shape(*shape, degree, max_degree=degree)))


# Horner's rule keeps h_k only up to degree cap - k*m, m the lowest degree of u
HORNER_CASES = {
    "min-degree-2": oracle_series(min_degree=2),
    "min-degree-3": oracle_series(min_degree=3),
    "one-bucket-above-half": one_bucket_above_half(),
    "zero": SHAPES.map(lambda shape: NCSeries.zero(*shape)),
}


def test_alphabet_letters_and_names():
    assert AB3.size == 4
    assert AB3.letters() == (X, 0, 1, 2)
    named = NCSeries(AB3, 3, {(X, 0, 2): 1, (): 1})
    assert repr(named) == "NCSeries(p=3, n=1, D=3: 1*1 + 1*X.Y0.Y2)"
    assert repr(NCSeries.zero(AB2, 2)) == "NCSeries(p=2, n=1, D=2: 0)"
    with pytest.raises(ValueError):
        AB3.check_letter(3)


def test_constructor_rejects_words_above_cap():
    with pytest.raises(ValueError):
        NCSeries(AB2, 2, {(0, 0, 0): Fraction(1)})
    with pytest.raises(ValueError, match="truncation degree must be non-negative"):
        NCSeries(AB2, -1)


def test_float_coefficients_are_rejected():
    # a float would be stored as its binary fraction, e.g. 0.1 as
    # 3602879701896397/36028797018963968
    s = NCSeries(AB2, 2, {(0,): 1})
    with pytest.raises(TypeError):
        NCSeries(AB2, 2, {(0,): 0.1})
    with pytest.raises(TypeError):
        NCSeries(AB2, 2, {(X,): 0.5})
    with pytest.raises(TypeError):
        s * 0.5
    with pytest.raises(TypeError):
        0.5 * s
    assert NCSeries(AB2, 2, {(0,): 1, (X,): Fraction(1, 10)}).coeff((X,)) == Fraction(1, 10)


@settings(max_examples=40)
@given(a=series_terms(AB3, 4, 4), b=series_terms(AB3, 4, 4))
def test_canonical_form_makes_equal_series_equal(a, b):
    assert (a * 3) * Fraction(1, 3) == a
    assert a + b - b == a
    assert a - a == NCSeries.zero(AB3, 4)
    for word, coeff in (a * Fraction(6, 4)).terms():
        assert type(coeff) is Fraction and coeff.denominator > 0
        assert gcd(coeff.numerator, coeff.denominator) == 1


def test_terms_order_and_repr_of_mixed_words():
    s = NCSeries(AB3, 4, {
        (2, 2, X): Fraction(-7, 3), (0, 1, 2, X): 5, (X, 1): 1, (0, X): Fraction(4, 6),
        (2,): 3, (X,): Fraction(-1, 2), (): 2, (1,): 0, (X, 2, 0, 1): Fraction(1, 9),
    })
    assert [(word, str(coeff)) for word, coeff in s.terms()] == [
        ((), "2"), ((X,), "-1/2"), ((2,), "3"), ((X, 1), "1"), ((0, X), "2/3"),
        ((2, 2, X), "-7/3"), ((X, 2, 0, 1), "1/9"), ((0, 1, 2, X), "5"),
    ]
    assert repr(s) == (
        "NCSeries(p=3, n=1, D=4: 2*1 + -1/2*X + 3*Y2 + 1*X.Y1 + 2/3*Y0.X + "
        "-7/3*Y2.Y2.X + 1/9*X.Y2.Y0.Y1 + 5*Y0.Y1.Y2.X)"
    )
    assert s.coeff((0, X)) == Fraction(2, 3) and s.coeff((1,)) == 0


def test_mul_distinct_letters():
    a = series(AB2, 2, {(): 1, (X,): 1})
    b = series(AB2, 2, {(): 1, (0,): 1})
    assert a * b == series(AB2, 2, {(): 1, (X,): 1, (0,): 1, (X, 0): 1})


def test_mul_is_unital():
    a = series(AB3, 3, {(): 2, (X, 1): Fraction(5, 3), (0, 1, 2): -4})
    one = NCSeries.one(AB3, 3)
    assert a * one == a
    assert one * a == a


def test_geometric_series_inverts_one_plus_x():
    cap = 6
    a = series(AB2, cap, {(): 1, (X,): 1})
    geometric = NCSeries(
        AB2, cap, {(X,) * k: Fraction((-1) ** k) for k in range(cap + 1)}
    )
    assert a * geometric == NCSeries.one(AB2, cap)
    assert fraction_inverse(a) == geometric


def test_mul_requires_matching_shape():
    with pytest.raises(ValueError):
        series(AB2, 2, {(): 1}) * series(AB3, 2, {(): 1})
    with pytest.raises(ValueError):
        series(AB2, 2, {(): 1}) * series(AB2, 3, {(): 1})


@settings(max_examples=40)
@given(
    a=series_terms(AB2, 4, 3),
    b=series_terms(AB2, 4, 3),
    c=series_terms(AB2, 4, 3),
)
def test_mul_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_exp_of_zero_is_one():
    assert exp(NCSeries.zero(AB2, 5)) == NCSeries.one(AB2, 5)


def test_exp_coefficients_are_inverse_factorials():
    cap = 8
    e = exp(NCSeries(AB2, cap, {(X,): 1}))
    for k in range(cap + 1):
        assert e.coeff((X,) * k) == Fraction(1, factorial(k))
    assert e.coeff((0,)) == 0


def test_exp_of_two_letters():
    e = exp(series(AB2, 2, {(X,): 1, (0,): 1}))
    assert e.coeff((X, 0)) == Fraction(1, 2)


def test_log_of_product():
    a = series(AB2, 2, {(): 1, (X,): 1})
    b = series(AB2, 2, {(): 1, (0,): 1})
    assert log(a * b).coeff((X, 0)) == Fraction(1, 2)


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        exp(NCSeries.one(AB2, 3))
    with pytest.raises(ValueError):
        log(NCSeries.zero(AB2, 3))


@settings(max_examples=60)
@given(s=augmentation_series(AB3, 6))
def test_exp_log_round_trip(s):
    assert log(exp(s)) == s
    one = NCSeries.one(AB3, 6)
    assert exp(log(one + s)) == one + s


@settings(max_examples=40)
@given(s=series_terms(AB2, 5, 4))
def test_inverse_is_two_sided(s):
    one = NCSeries.one(AB2, 5)
    g = one + (s - NCSeries(AB2, 5, {(): s.coeff(())}))
    assert g * fraction_inverse(g) == one
    assert fraction_inverse(g) * g == one


def test_coeff_examples():
    assert NCSeries.one(AB2, 3).coeff(()) == 1
    assert exp(series(AB2, 3, {(X,): 1, (0,): 1})).coeff((X, 0)) == Fraction(1, 2)
    assert exp(NCSeries(AB2, 3, {(X,): 1})).coeff((0,)) == 0
    with pytest.raises(ValueError):
        NCSeries.one(AB2, 3).coeff((X, X, X, X))


def test_substitute_relabels_letters():
    s = series(AB2, 2, {(): 1, (X, 0): 1})
    images = {
        X: NCSeries(AB2, 2, {(X,): 1}),
        0: NCSeries(AB2, 2, {(1,): 1}),
    }
    assert fraction_substitute(s, images) == series(AB2, 2, {(): 1, (X, 1): 1})


def test_substitute_collapses_exp_to_one():
    e = exp(NCSeries(AB2, 4, {(X,): 1}))
    assert fraction_substitute(e, {X: NCSeries.zero(AB2, 4)}) == NCSeries.one(AB2, 4)


def test_substitute_expands_sums():
    s = series(AB2, 2, {(): 1, (0, 1): 1})
    images = {
        0: series(AB2, 2, {(0,): 1, (1,): 1}),
        1: NCSeries(AB2, 2, {(1,): 1}),
    }
    assert fraction_substitute(s, images) == series(AB2, 2, {(): 1, (0, 1): 1, (1, 1): 1})


@settings(max_examples=40)
@given(a=series_terms(AB2, 4, 3), b=series_terms(AB2, 4, 3))
def test_substitute_is_multiplicative(a, b):
    images = {
        X: series(AB2, 4, {(X,): 1, (0,): Fraction(1, 2)}),
        0: NCSeries(AB2, 4, {(1,): 1}),
        1: series(AB2, 4, {(1, 1): 1}),
    }
    assert (fraction_substitute(a * b, images)
            == fraction_substitute(a, images) * fraction_substitute(b, images))


def test_lambda_table_round_trip():
    assert from_measure(LevelMeasure(2, 1, 1, [1, 0]), 1) == series(AB2, 1, {(): 1, (0,): 1})
    assert from_measure(LevelMeasure(2, 1, 2, [0, 5, 0, 0]), 2) == series(
        AB2, 2, {(): 1, (0, 1): 5}
    )
    # the table reads back from the series' words of its depth
    table = LevelMeasure(3, 1, 2, [0, 0, Fraction(-7, 3), 0, 4, 0, 0, 0, 0])
    s = from_measure(table, 2)
    assert [s.coeff(point) for point in table.points()] == list(table.values)
    with pytest.raises(ValueError, match="below table depth"):
        from_measure(table, 1)


# 3-1-2 tables of Fraction values, with zero cells drawn often
MEASURES = st.lists(SMALL_FRACTIONS | st.just(Fraction(0)), min_size=9, max_size=9).map(
    lambda values: LevelMeasure(3, 1, 2, values))


@settings(max_examples=40)
@given(mu=MEASURES, extra=st.integers(0, 3))
def test_from_measure_matches_generic_constructor(mu, extra):
    # one word per point, its coordinates as cyclic letters, above the
    # constant 1; a zero cell adds no term, and the cap may exceed r
    cap = mu.r + extra
    terms = {(): 1, **{point: value for point, value in zip(mu.points(), mu.values)}}
    s = from_measure(mu, cap)
    assert s == NCSeries(AB3, cap, terms)
    assert s.term_count() == 1 + sum(1 for value in mu.values if value)


def test_json_form():
    s = exp(series(AB3, 3, {(X,): 1, (2,): Fraction(-1, 2)}))
    data = series_to_json_dict(s)
    assert data["p"] == 3 and data["n"] == 1 and data["D"] == 3
    assert data["terms"][0] == {"word": "", "coeff": "1"}


# sha256 of json.dumps(series_to_json_dict(x), sort_keys=True) for x in log(s),
# exp(s - 1), inverse(s), inverse(-3/2 * s) and rhombus_product(table), where
# s = from_measure(table, D); recorded before the series arithmetic moved to
# integer numerators, and random-2-2-2 before words moved to integer codes.  The
# inverses are now taken by the Fraction oracle.  An entry may pin a subset of
# these.
DIGEST_TABLES = {
    "random-3-1-1": (lambda: random_lambda_table(3, 1, 1, seed=0), 8, {
        "log": "3b590727369d2a9b75f0c664bdb81876c448d368bc2c6c384fb04547cf46d142",
        "exp": "898a3efab16de6102271035ca05c901db37cea06997652d27b30ac1ecf5e1e45",
        "inverse": "8444364eae154dc64e484c92938aaf79bc3d75851122a7a005198ebf97b101ce",
        "inverse_scaled": "fa07196f97781ad2fdaf34abd3604f21d01f078a8096ddc3ced9d28b80944ce8",
        "rhombus": "65c5c26e5c647004d61390e09656696dd809a46ea9323879d11a46e7647a3efc",
    }),
    "random-2-1-2": (lambda: random_lambda_table(2, 1, 2, seed=0), 6, {
        "log": "3d2c897c3dc1d4cb11b2d2ab9b32b225917d38304d16918d9ce588103b6a1d15",
        "exp": "1c485b5e74d82a1ba6c993678cc7ece4c1ec34c41064b8cb6dd2448b39b6ff05",
        "inverse": "c56664a007af7c2cd77a3f43518ee96c5d4e5d208c34e0e2ebe877b0f3fd7a65",
        "inverse_scaled": "64378968b1691f7d70f8e7e56369f65dbf36354ba57d55ba4e2d18101ece8860",
        "rhombus": "92461dd52177959117eada42842e7426b8d4d77dc47383460f368a8c76d007c5",
    }),
    "random-2-1-3": (lambda: random_lambda_table(2, 1, 3, seed=0), 6, {
        "log": "d782f0b3f93478c4808b9a4b85938f2c3b6f51c994cb81aadcd919d9bce1bc2e",
        "exp": "a70a797f0182736e8b9a97e0f0662884b5d6b569e359e84a8929d9de2dcdec46",
        "inverse": "3749418145da60a9fc3bfadd45c8fa4d1e6e45e64fb956b8f72eaea02af09e53",
        "inverse_scaled": "3de7330c7510c5fc2f1c6f52c7e83a306528da1bc6a1980e7a45a4236ab23475",
        "rhombus": "9f7d3949a066797ab7d3de64a01aac875aeb9f67134fdbcf18f2e1c9ecae8682",
    }),
    "fraction-3-1-2": (
        lambda: LevelMeasure(3, 1, 2, [Fraction(3 * i + j - 4, i + 2 * j + 2)
                                       for i in range(3) for j in range(3)]),
        6,
        {
            "log": "4ef58a1fc80e616e3b2fb54f9a09003eb4e654fcf5d8fe184638ae36408628b2",
            "exp": "a307c418e022c25be8a2be5579332384c5c877df9372754d80dc793e15bc5077",
            "inverse": "a484f51907ee8a937faa6e55ecee2dbc06d034aeeb26d835d108113ed9d65ae0",
            "inverse_scaled": "25fa80c7635fde6968b1614a724b8265e07fdfb4358aa68a52cb397bd218ed8a",
            "rhombus": "ea65a169b955563f6001f806580fd70ff2c7b109b7534973784cec941a77de45",
        },
    ),
    # full support (all 16 entries nonzero): log(s) and exp(s - 1) carry every
    # Y word of even degree up to 8, 69 904 and 69 905 terms
    "random-2-2-2": (lambda: random_lambda_table(2, 2, 2, seed=1), 8, {
        "log": "6c6a354f0895e9b2a3c32aa7be45b5d72d4fe9c0007189f49cc6d967ed418925",
        "exp": "f3ff3f5e13d1fa8fad75009367d14c32e1ae920344e93dd2adc6ce8a10f4cdd0",
    }),
}


@pytest.mark.parametrize("name", sorted(DIGEST_TABLES))
def test_series_digests(name):
    make_table, degree, expected = DIGEST_TABLES[name]
    table = make_table()
    s = from_measure(table, degree)
    one = NCSeries.one(s.alphabet, degree)

    def digest(x):
        text = json.dumps(series_to_json_dict(x), sort_keys=True)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    compute = {
        "log": lambda: log(s),
        "exp": lambda: exp(s - one),
        "inverse": lambda: fraction_inverse(s),
        "inverse_scaled": lambda: fraction_inverse(s * Fraction(-3, 2)),
        "rhombus": lambda: rhombus_product(table),
    }
    got = {key: digest(compute[key]()) for key in expected}
    assert got == expected


# The DIGEST_TABLES series come from tables and hold no X.  This one has X-led
# and Y-led words of degrees 1 to 3, so each degree from 2 up is reached by
# several pairs of degrees in every power; sha256 as above of log(s),
# exp(s - 1) and inverse(s), recorded before products were summed by slices.
MIXED_SERIES = NCSeries(AB3, 6, {
    (): 1, (X,): Fraction(1, 2), (0,): -1, (X, 1): Fraction(2, 3), (2, X): Fraction(-1, 5),
    (X, X, 0): Fraction(3, 7), (1, 0, X): Fraction(-4, 3), (2, 2, 1): Fraction(1, 4),
})
MIXED_DIGESTS = {
    "log": "68e11417e955e04463450ecf8612fc3ff54e6447bf4e99ea736a9d0e64fdfd73",
    "exp": "b0e320245215dff6b8df460b003f0df501b9724eab04a881a0dce5e8eb4b0b36",
    "inverse": "9c7cbe28210891b09951b6d6fa1b6929136c3897d3455d5fc702e8196d78f9b1",
}


def test_mixed_series_digests():
    s = MIXED_SERIES
    computed = {"log": log(s), "exp": exp(s - NCSeries.one(AB3, 6)),
                "inverse": fraction_inverse(s)}
    got = {
        key: hashlib.sha256(json.dumps(series_to_json_dict(x), sort_keys=True)
                            .encode("ascii")).hexdigest()
        for key, x in computed.items()
    }
    assert got == MIXED_DIGESTS
    assert computed["log"] == fraction_log(s)
    assert computed["exp"] == fraction_exp(s - NCSeries.one(AB3, 6))


@settings(max_examples=80, deadline=None)
@given(u=oracle_series())
def test_exp_matches_fraction_oracle(u):
    assert exp(u) == fraction_exp(u)


@settings(max_examples=80, deadline=None)
@given(s=oracle_series(constant=Fraction(1)))
def test_log_matches_fraction_oracle(s):
    assert log(s) == fraction_log(s)


@settings(max_examples=60, deadline=None)
@given(u=nilpotent_series())
def test_nilpotent_power_sums_match_fraction_oracle(u):
    # every word has degree above cap/2, so u*u = 0 and the power loops stop early
    assert (u * u).is_zero()
    one = NCSeries.one(u.alphabet, u.degree_cap)
    assert exp(u) == fraction_exp(u) == one + u
    assert log(one + u) == fraction_log(one + u) == u


@pytest.mark.parametrize("case", sorted(HORNER_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_horner_truncation_matches_fraction_oracle(case, data):
    u = data.draw(HORNER_CASES[case])
    one = NCSeries.one(u.alphabet, u.degree_cap)
    assert exp(u) == fraction_exp(u)
    assert log(one + u) == fraction_log(one + u)


def x_and_y_led_series(alphabet, cap, max_extra=2):
    """An X-led word, a Y-led word and up to ``max_extra`` words of any first
    letter, of degrees 1..cap, with Fraction coefficients of denominator 1..9."""
    tail = st.lists(st.sampled_from(alphabet.letters()), max_size=cap - 1)

    def led(first):
        return st.tuples(first, tail, SMALL_FRACTIONS).map(
            lambda t: ((t[0], *t[1]), t[2]))

    terms = st.tuples(led(st.just(X)), led(st.sampled_from(alphabet.letters()[1:])),
                      st.lists(led(st.sampled_from(alphabet.letters())), max_size=max_extra))
    return terms.map(lambda t: NCSeries(alphabet, cap, [t[0], t[1], *t[2]]))


LED_SHAPES = st.tuples(st.sampled_from([AB2, AB3]), st.integers(2, 5))


UNIT_WITH_X = series(AB3, 4, {(): 1, (X,): 1, (0, X): -2, (1,): Fraction(1, 3)})

# (a, b, degree, first letters of the degree's surviving words of a * b): the
# degree is reached by several pairs of degrees, so it is summed by slices
SLICE_CASES = {
    # (0, 2) and (2, 0): the Y1 slice cancels, only the X slice survives
    "only-x-led-survives": (series(AB3, 4, {(): 1, (X, 0): 1, (1, 2): 1}),
                            series(AB3, 4, {(): 1, (X, 0): 1, (1, 2): -1}), 2, {X}),
    # (1, 2) and (2, 1): the X slice cancels, the next one, Y1, does not
    "x-slice-cancels-next-survives": (series(AB3, 3, {(X,): 1, (X, 0): 1, (1,): 1, (1, 1): 1}),
                                      series(AB3, 3, {(2,): 1, (0, 2): -1}), 3, {1}),
    # a * inverse(a) = 1: every degree cancels in every slice
    "every-slice-cancels": (UNIT_WITH_X, fraction_inverse(UNIT_WITH_X), 4, set()),
    # (0, 2) and (1, 1): X.X and Y1.X cancel, in slices led by the right word
    # of (0, 2); Y2.Y0 comes from the constant on the left
    "constant-left": (series(AB3, 2, {(): 2, (X,): 1, (1,): 1}),
                      series(AB3, 2, {(X,): 1, (X, X): Fraction(-1, 2), (1, X): Fraction(-1, 2),
                                      (2, 0): 1}), 2, {2}),
    # (1, 1) and (2, 0): X.X cancels, X.Y1 survives beside the constant's Y2.Y0
    "constant-right": (series(AB3, 2, {(X,): 1, (X, X): Fraction(-1, 2), (2, 0): 1}),
                       series(AB3, 2, {(): 2, (X,): 1, (1,): 1}), 2, {X, 2}),
}


@pytest.mark.parametrize("case", sorted(SLICE_CASES))
def test_slice_boundaries_match_fraction_oracle(case):
    a, b, degree, leads = SLICE_CASES[case]
    product = a * b
    assert product == fraction_mul(a, b)
    assert {word[0] for word, _ in product.terms() if len(word) == degree} == leads
    # no empty bucket is kept
    assert all(len(codes) == len(nums) > 0 for codes, nums in product._num.values())


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=LED_SHAPES, c=SMALL_FRACTIONS.filter(bool))
def test_x_led_words_match_fraction_oracle(data, shape, c):
    a = data.draw(x_and_y_led_series(*shape))
    b = data.draw(x_and_y_led_series(*shape))
    constant = NCSeries(*shape, {(): c})
    assert (constant + a) * b == fraction_mul(constant + a, b)
    assert a * (constant + b) == fraction_mul(a, constant + b)
    assert exp(a) == fraction_exp(a)
    assert log(NCSeries.one(*shape) + a) == fraction_log(NCSeries.one(*shape) + a)


def storage(s):
    """The code arrays and the numerator arrays or lists that hold a series."""
    return [part for bucket in s._num.values() for part in bucket]


def contents(s):
    """A copy of what a series holds: codes and numerators as lists."""
    num = {degree: (codes.tolist(), list(nums)) for degree, (codes, nums) in s._num.items()}
    return num, s._den


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=LED_SHAPES)
def test_operations_leave_their_operands_unchanged(data, shape):
    # results are reduced in place, so none may be built on an operand's
    # arrays or lists
    a = data.draw(x_and_y_led_series(*shape))
    one = NCSeries.one(*shape)
    before = contents(a)
    for result in (a + a, a - a, a * 2, a * Fraction(1, 2), a * a, one * a, a * one,
                   exp(a), log(one + a)):
        assert not any(part is own for part in storage(result) for own in storage(a))
    assert contents(a) == before


def traced(compute):
    """compute()'s result, the traced size it holds and the traced peak while
    it ran, in bytes above what was traced before.  A full collection first
    empties the interpreter's free lists, so earlier calls do not change the
    count."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = compute()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, size - before, peak - before


def test_log_storage_is_at_most_48_bytes_per_term():
    # a degree holds one int64 code and one list slot per word beside its
    # numerator, an int of 32 bytes here; {code: numerator} dicts took about
    # 100 bytes per term
    s = from_measure(random_lambda_table(2, 2, 2, seed=1), 8)
    big, size, _ = traced(lambda: log(s))
    assert big.term_count() == 69_904
    assert size <= 48 * big.term_count()


def test_log_storage_is_at_most_20_bytes_per_term():
    # a degree holds one int64 code and, its numerators fitting in int64, one
    # int64 numerator per word, in two arrays that may be over-allocated by a
    # sixteenth
    s = from_measure(random_lambda_table(2, 2, 2, seed=1), 8)
    big, size, _ = traced(lambda: log(s))
    assert big.term_count() == 69_904
    assert all(type(nums) is array for _, nums in big._num.values())
    assert size <= 20 * big.term_count()


def test_log_storage_is_at_most_8_bytes_per_term():
    # at degree 8 over X, Y0..Y3 a code needs 4 bytes and the numerators of
    # log(s) 16 bits, so a word costs 6 bytes, in two arrays that may be
    # over-allocated by a sixteenth
    s = from_measure(random_lambda_table(2, 2, 2, seed=1), 8)
    big, size, _ = traced(lambda: log(s))
    assert big.term_count() == 69_904
    assert big._num[8][0].typecode == "i" and big._num[8][1].typecode == "h"
    assert size <= 8 * big.term_count()


def test_report_round_trip_holds_one_slice_beside_the_log():
    # full support: log(s) holds 69 904 terms, and exp(log(s)) cancels its
    # degree-8 bucket of 65 536 words down to nothing
    s = from_measure(random_lambda_table(2, 2, 2, seed=1), 8)
    one = NCSeries.one(s.alphabet, 8)
    _, log_size, _ = traced(lambda: log(s))
    ok, _, peak = traced(lambda: exp(log(s)) == s and log(exp(s - one)) == s - one)
    assert ok
    assert peak <= 1.5 * log_size


def test_sums_and_scalings_are_reduced_in_place():
    s = from_measure(random_lambda_table(2, 2, 2, seed=1), 8)
    big = log(s)
    total, size, peak = traced(lambda: big + big)
    assert total == big * 2
    assert peak <= 1.5 * size
    scaled, size, peak = traced(lambda: big * Fraction(-3, 2))
    assert scaled * Fraction(-2, 3) == big
    assert peak <= 1.5 * size


# two independent series of one shape, constant terms allowed
PAIRS = SHAPES.flatmap(lambda shape: st.tuples(series_of_shape(*shape, 0),
                                               series_of_shape(*shape, 0)))


@settings(max_examples=80, deadline=None)
@given(pair=PAIRS, scalar=SMALL_FRACTIONS)
def test_mul_matches_fraction_oracle(pair, scalar):
    a, b = pair
    assert a * b == fraction_mul(a, b)
    assert a * scalar == scalar * a == fraction_scale(a, scalar)
    assert -a == fraction_scale(a, -1)


@settings(max_examples=80, deadline=None)
@given(pair=PAIRS)
def test_sums_match_fraction_oracle(pair):
    # independent supports, and (a + b) - a, whose support overlaps a's and
    # cancels on the words of a that b lacks
    a, b = pair
    assert a + b == fraction_sum(a, b, 1)
    assert a - b == fraction_sum(a, b, -1)
    assert (a + b) - a == fraction_sum(fraction_sum(a, b, 1), a, -1) == b


def test_word_codes_fit_in_int64():
    # base 3: the largest code 3**39 - 1 fits in 63 bits, 3**40 - 1 does not
    y = NCSeries(AB2, 39, {(1,): 1})
    assert exp(y).coeff((1,) * 39) == Fraction(1, factorial(39))
    with pytest.raises(ValueError, match="63 bits"):
        NCSeries.zero(AB2, 40)


# Numerators at and across the bounds of 8-, 16-, 32- and 64-bit ints, mixed
# with small ones: a bucket is held in the narrowest of array('b'), 'h', 'i'
# and 'q' that holds all its numerators, and in a list when int64 does not.
INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
LADDER_BOUNDS = [sign * 2**bits + step for bits in (7, 15, 31, 63) for sign in (1, -1)
                 for step in (-1, 0, 1)]
BOUNDARY_INTS = st.sampled_from([*LADDER_BOUNDS, 2**64 + 1, -(2**64) - 1, 2**62, 3**40]) | \
    st.integers(-9, 9)
BOUNDARY_COEFFS = st.builds(Fraction, BOUNDARY_INTS, st.sampled_from([1, 1, 2, 3, 7]))
BOUNDARY_SHAPES = st.tuples(st.sampled_from([AB2, AB3]), st.integers(0, 5))


def narrowest(values):
    """The first typecode of b, h, i, q whose array holds every value, or
    None."""
    for typecode in "bhiq":
        try:
            array(typecode, values)
            return typecode
        except OverflowError:
            pass
    return None


def follows_container_rule(s):
    # codes in the typecode that holds the degree's largest code, numerators
    # in the narrowest container that holds them
    base = s.alphabet.size
    return all(type(codes) is array and codes.typecode == narrowest([base**degree - 1])
               and type(nums) in (array, list)
               and (nums.typecode if type(nums) is array else None) == narrowest(list(nums))
               for degree, (codes, nums) in s._num.items())


def boundary_series(alphabet, cap, min_degree=0):
    """Up to 4 words of degree min_degree..cap with BOUNDARY_COEFFS."""
    if min_degree > cap:
        return st.just(NCSeries.zero(alphabet, cap))
    word = st.lists(st.sampled_from(alphabet.letters()), min_size=min_degree, max_size=cap)
    terms = st.lists(st.tuples(word.map(tuple), BOUNDARY_COEFFS), max_size=4)
    return terms.map(lambda pairs: NCSeries(alphabet, cap, pairs))


BOUNDARY_PAIRS = BOUNDARY_SHAPES.flatmap(
    lambda shape: st.tuples(boundary_series(*shape), boundary_series(*shape)))


# a + b = 2*w1 + 1/2*w2 over 2: the slice of degree 6 that holds w1 stores
# its numerator 4 divided by the running gcd 2, and the later slice that
# holds w2, of numerator 1, lowers that gcd to 1, so what is stored is rescaled
W1, W2 = (0, 1, 2, 3, 0, 1), (1, 1, 2, 3, 0, 1)
GCD_FALLS_IN_DEGREE = (NCSeries(Alphabet(2, 2), 6, {W1: 1, W2: Fraction(1, 2)}),
                       NCSeries(Alphabet(2, 2), 6, {W1: 1}))


@settings(max_examples=80, deadline=None)
@given(pair=BOUNDARY_PAIRS, scalar=BOUNDARY_COEFFS)
@example(pair=GCD_FALLS_IN_DEGREE, scalar=Fraction(1))
def test_int64_boundary_arithmetic_matches_fraction_oracle(pair, scalar):
    a, b = pair
    assert follows_container_rule(a) and follows_container_rule(b)
    results = {
        "mul": (a * b, fraction_mul(a, b)),
        "add": (a + b, fraction_sum(a, b, 1)),
        "sub": (a - b, fraction_sum(a, b, -1)),
        "scale": (a * scalar, fraction_scale(a, scalar)),
    }
    for name, (got, expected) in results.items():
        assert got == expected, name
        assert follows_container_rule(got), name


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=BOUNDARY_SHAPES)
def test_int64_boundary_exp_log_match_fraction_oracle(data, shape):
    u = data.draw(boundary_series(*shape, min_degree=1))
    one = NCSeries.one(*shape)
    for got, expected in ((exp(u), fraction_exp(u)), (log(one + u), fraction_log(one + u))):
        assert got == expected
        assert follows_container_rule(got)


@settings(max_examples=40, deadline=None)
@given(small=series_terms(AB3, 4, 4))
def test_series_reduced_from_large_numerators_equal_the_small_one(small):
    # numerators above int64 are held in lists until the gcd divides them
    # back into range, and then in arrays again
    for big in (2**63, 2**64, 3**41):
        scaled = small * big
        assert follows_container_rule(scaled)
        assert scaled * Fraction(1, big) == small
        assert (scaled - small * (big - 1)) == small
    w = (X, 0)
    assert NCSeries(AB3, 4, {w: 2**64}) * Fraction(1, 2**64) == NCSeries(AB3, 4, {w: 1})
    reduced = NCSeries(AB3, 4, {w: 2**64, (): 3 * 2**64}) * Fraction(1, 2**64)
    assert all(type(nums) is array for _, nums in reduced._num.values())
    assert follows_container_rule(reduced)


@pytest.mark.parametrize("den", [6, 3 * 2**7, 2**16, 2**33, 2**64])
def test_sums_whose_gcd_falls_late_hold_the_narrowest_buckets(den):
    # the degree-1 numerators over den are multiples of den, so a sum first
    # stores them divided by den; the last word's numerator 1 makes the gcd
    # fall to 1, and what is stored is multiplied back, into a wider container
    a = NCSeries(AB3, 3, {(0,): 5, (1,): -7, (2, 2, 2): Fraction(1, den)})
    zero, one = NCSeries.zero(AB3, 3), NCSeries.one(AB3, 3)
    for got in (a + zero, zero + a, a - zero, a * one, one * a):
        assert got == a
        assert follows_container_rule(got)
    assert (a + a) * Fraction(1, 2) == a


def test_x_led_products_hold_codes_in_their_degrees_typecode():
    # X.X has code 0, so a slice of its product with a degree-3 bucket is that
    # bucket's own code array, one byte wide, within degree 5, two bytes wide
    lower = NCSeries(AB3, 5, {(0, 1, 2): 1, (2, 2, 2): Fraction(1, 2), (X, 0, X): -3})
    xx = NCSeries(AB3, 5, {(X, X): 3, (1,): 2})
    for got, expected in ((xx * lower, fraction_mul(xx, lower)),
                          (lower * xx, fraction_mul(lower, xx))):
        assert got == expected
        assert follows_container_rule(got)


def test_report_round_trip_runs_both_containers(monkeypatch):
    # at (3, 1, 1) degree 8 the Horner sums inside exp(log(s)) and
    # log(exp(s - 1)) reach numerators above int64 before they are reduced
    seen = set()
    reduce = NCSeries._reduced.__func__

    def spy(cls, alphabet, degree_cap, num, den):
        seen.update(type(nums) for _, nums in num.values())
        result = reduce(cls, alphabet, degree_cap, num, den)
        assert follows_container_rule(result)
        return result

    monkeypatch.setattr(NCSeries, "_reduced", classmethod(spy))
    s = from_measure(random_lambda_table(3, 1, 1, seed=3), 8)
    one = NCSeries.one(s.alphabet, 8)
    assert exp(log(s)) == s and log(exp(s - one)) == s - one
    assert seen == {array, list}
