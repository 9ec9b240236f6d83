import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mzvkit.exact import padic_valuation
from mzvkit.measures import (
    FOUR_TERM,
    Coset,
    LevelMeasure,
    _cell_map,
    _four_term_maps,
    _integrand_value,
    _level_map,
    _points,
    coset_moment,
    factorial_norm,
    four_term,
    four_term_is_zero,
    measure_from_json_dict,
    measure_to_json_dict,
    moment,
    point_to_index,
    project,
)

CONFIGS = [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1)]


def delta(p, n, r, point, mass=1):
    return LevelMeasure.point_mass(p, n, r, point, mass)


def affine_pushforward(mu, scale, offset):
    """Reindex by x -> scale*x + offset on every coordinate, composition
    convention: the value of the result at j is the value of ``mu`` at
    scale*j + offset, so (scale, offset) = (1, -1) gives j -> mu(j - 1)."""
    cells = [mu.value(tuple(scale * c + offset for c in point)) for point in mu.points()]
    return LevelMeasure(mu.p, mu.n, mu.r, cells)


@st.composite
def integer_measures(draw, configs=CONFIGS, bound=9):
    p, n, r = draw(st.sampled_from(configs))
    size = p ** (n * r)
    values = draw(
        st.lists(
            st.integers(min_value=-bound, max_value=bound),
            min_size=size,
            max_size=size,
        )
    )
    return LevelMeasure(p, n, r, tuple(Fraction(v) for v in values))


def project_oracle(mu):
    """``project`` point by point: each cell's numerator goes to the index of
    its point mod p^(n-1)."""
    q_new = mu.p ** (mu.n - 1)
    cells = [0] * q_new**mu.r
    for point, value in zip(mu.points(), mu.numerators):
        cells[point_to_index(tuple(c % q_new for c in point), q_new)] += value
    return LevelMeasure(mu.p, mu.n - 1, mu.r, [Fraction(v, mu.denominator) for v in cells])


def test_index_round_trip():
    assert point_to_index((1, 2), 3) == 5
    for index, point in enumerate(_points(3, 3)):
        assert point_to_index(point, 3) == index


def test_measure_shape_validation():
    with pytest.raises(ValueError):
        LevelMeasure(4, 1, 1, (Fraction(0),) * 4)
    with pytest.raises(ValueError):
        LevelMeasure(2, 1, 2, (Fraction(0),) * 3)
    with pytest.raises(ValueError, match="different base, level, or depth"):
        LevelMeasure.zero(2, 1, 1) + LevelMeasure.zero(2, 1, 2)
    # a point of the wrong length is refused, neither padded nor cut
    for point in ((1,), (2,), (0, 1, 2), ()):
        with pytest.raises(ValueError, match="point must have depth 2"):
            LevelMeasure.point_mass(3, 1, 2, point)
        with pytest.raises(ValueError, match="point must have depth 2"):
            LevelMeasure.constant(3, 1, 2).value(point)
    # a negative level is refused as the constructor refuses it, not with the
    # TypeError of a float cell count
    for make in (LevelMeasure.zero, LevelMeasure.constant,
                 lambda p, n, r: LevelMeasure.point_mass(p, n, r, (0,))):
        with pytest.raises(ValueError, match="level must be non-negative, got -1"):
            make(2, -1, 1)


def test_values_must_be_exact():
    # a float would be stored as its binary fraction, as series refuse to do
    with pytest.raises(TypeError):
        LevelMeasure(2, 0, 1, (0.1,))
    with pytest.raises(TypeError):
        LevelMeasure.constant(2, 1, 1, 0.5)
    with pytest.raises(TypeError):
        delta(3, 1, 1, (1,)) * 0.5


def test_numerators_over_one_denominator():
    mu = LevelMeasure(3, 1, 1, (Fraction(1, 3), Fraction(2, 9), Fraction(4, 2)))
    assert (mu.numerators, mu.denominator) == ((3, 2, 18), 9)
    assert mu.values == (Fraction(1, 3), Fraction(2, 9), Fraction(2))
    assert LevelMeasure(3, 1, 1, (3, 0, Fraction(-6, 2))).numerators == (3, 0, -3)
    assert (mu * 9).is_integer_valued() and not mu.is_integer_valued()
    assert (mu - mu) == LevelMeasure.zero(3, 1, 1) and (mu - mu).denominator == 1


@settings(max_examples=60)
@given(st.sampled_from(CONFIGS), st.data(), st.fractions(max_denominator=30))
def test_arithmetic_matches_fraction_values(config, data, scalar):
    p, n, r = config
    cells = st.lists(st.fractions(max_denominator=30), min_size=p ** (n * r), max_size=p ** (n * r))
    a, b = data.draw(cells), data.draw(cells)
    mu, nu = LevelMeasure(p, n, r, a), LevelMeasure(p, n, r, b)
    assert mu.values == tuple(a)
    assert gcd(mu.denominator, *mu.numerators) == 1
    for result, expected in ((mu + nu, [x + y for x, y in zip(a, b)]),
                             (mu - nu, [x - y for x, y in zip(a, b)]),
                             (-mu, [-x for x in a]),
                             (mu * scalar, [x * scalar for x in a])):
        assert result == LevelMeasure(p, n, r, expected)
        assert result.values == tuple(expected)


def test_value_reduces_modulo_level():
    mu = delta(3, 1, 1, (1,))
    assert mu.value((4,)) == 1
    assert mu.value((-2,)) == 1
    assert mu.value((0,)) == 0


def test_project_constant_table():
    mu = LevelMeasure.constant(2, 1, 1, Fraction(5, 2))
    assert project(mu) == LevelMeasure(2, 0, 1, (Fraction(5),))


def test_project_point_mass():
    mu = delta(3, 2, 1, (3,))
    assert project(mu) == delta(3, 1, 1, (0,))


def test_project_needs_positive_level():
    with pytest.raises(ValueError):
        project(LevelMeasure.constant(2, 0, 1))


def test_pushforward_identity_map():
    mu = delta(3, 1, 2, (1, 2), 7)
    assert affine_pushforward(mu, 1, 0) == mu


def test_pushforward_negation():
    # value of the image at j is the source value at -j
    assert affine_pushforward(delta(3, 1, 1, (0,)), -1, 0) == delta(3, 1, 1, (0,))
    assert affine_pushforward(delta(3, 1, 1, (1,)), -1, 0) == delta(3, 1, 1, (2,))


def test_pushforward_negation_is_trivial_mod_two():
    mu = LevelMeasure(2, 1, 1, (Fraction(3), Fraction(-4)))
    assert affine_pushforward(mu, -1, 0) == mu


def test_pushforward_translation_convention():
    # composition convention: new table at j equals the old table at j - 1
    mu = delta(3, 1, 1, (0,), 5)
    assert affine_pushforward(mu, 1, -1) == delta(3, 1, 1, (1,), 5)


def test_moment_point_mass_powers():
    for a in range(5):
        mu = delta(5, 1, 1, (a,))
        assert moment(mu, (0, 3)) == a**3


def test_moment_constant_table():
    mu = LevelMeasure.constant(3, 1, 1)
    assert moment(mu, (0, 1)) == 3
    assert moment(mu, (0, 2)) == 5


def test_moment_zero_measure():
    mu = LevelMeasure.zero(3, 1, 2)
    for e in [(0, 0, 0), (1, 2, 3), (0, 5, 2)]:
        assert moment(mu, e) == 0


def test_moment_difference_integrand():
    # integrand (-x1)^1 (x1-x2)^1 x2^0 at the single support point (1, 2)
    mu = delta(5, 1, 2, (1, 2))
    assert moment(mu, (1, 1, 0)) == (-1) * (1 - 2)
    assert moment(mu, (0, 0, 2)) == 4


def test_moment_validates_exponents():
    mu = LevelMeasure.zero(3, 1, 1)
    with pytest.raises(ValueError):
        moment(mu, (0, 1, 2))
    with pytest.raises(ValueError):
        moment(mu, (0, -1))


def test_factorial_norm_is_the_product_of_the_factorials():
    assert factorial_norm((0, 2)) == 2
    assert factorial_norm((3, 2)) == 12
    assert factorial_norm(()) == 1


@settings(max_examples=40)
@given(mu=integer_measures(), nu=integer_measures(), k=st.integers(0, 4))
def test_moment_is_linear(mu, nu, k):
    if (mu.p, mu.n, mu.r) != (nu.p, nu.n, nu.r):
        nu = LevelMeasure(mu.p, mu.n, mu.r, tuple(Fraction(0) for _ in mu.values))
    e = (0,) * mu.r + (k,)
    assert moment(mu + nu, e) == moment(mu, e) + moment(nu, e)
    assert moment(mu * 3, e) == 3 * moment(mu, e)


def test_coset_moment_full_space():
    mu = LevelMeasure(3, 1, 1, (Fraction(2), Fraction(-1), Fraction(4)))
    assert coset_moment(mu, Coset((0,), 0), (0, 2)) == moment(mu, (0, 2))


def test_coset_moment_misses_off_coset_mass():
    mu = delta(3, 1, 1, (2,))
    assert coset_moment(mu, Coset((1,), 1), (0, 2)) == 0


def test_coset_moment_single_point():
    mu = LevelMeasure.constant(3, 1, 1)
    assert coset_moment(mu, Coset((1,), 1), (0, 2)) == 1


def test_coset_moment_partitions_full_moment():
    mu = LevelMeasure(3, 2, 2, tuple(Fraction(k % 7 - 3) for k in range(81)))
    e = (1, 2, 1)
    total = sum(
        coset_moment(mu, Coset((b1, b2), 1), e) for b1 in range(3) for b2 in range(3)
    )
    assert total == moment(mu, e)


def test_coset_modulus_cannot_exceed_level():
    mu = LevelMeasure.zero(3, 1, 1)
    with pytest.raises(ValueError):
        coset_moment(mu, Coset((0,), 2), (0, 1))
    with pytest.raises(ValueError, match="coset base must have depth 1"):
        coset_moment(mu, Coset((0, 0), 1), (0, 1))


def test_four_term_vanishes_mod_two():
    mu = LevelMeasure(2, 1, 2, (Fraction(1), Fraction(-2), Fraction(3), Fraction(5)))
    assert four_term(mu).is_zero()
    assert four_term_is_zero(mu)


def test_four_term_point_masses_mod_three():
    # value at j combines the table at j, -j, 1-j, j-1; the mass at 0 cancels
    assert four_term(delta(3, 1, 1, (0,))).is_zero()
    expected = (
        delta(3, 1, 1, (0,)) + delta(3, 1, 1, (1,)) - delta(3, 1, 1, (2,), 2)
    )
    assert four_term(delta(3, 1, 1, (1,))) == expected


# per modulus q = p^(n+1) above 1, the (p, n) whose level map leaves it
LEVEL_BELOW = {2: (2, 0), 3: (3, 0), 4: (2, 1), 5: (5, 0), 9: (3, 1), 97: (97, 0)}


@pytest.mark.parametrize("q,r", [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (4, 3), (5, 2),
                                 (9, 2), (97, 1), (97, 2)])
def test_four_term_maps_match_the_cell_by_cell_oracle(q, r):
    # every cell map is built a coordinate at a time; the oracle maps every
    # cell's point and indexes it
    def oracle(image, q_to):
        return tuple(point_to_index(tuple(image(c) % q_to for c in point), q_to)
                     for point in _points(q, r))

    assert tuple(_four_term_maps(q, r)) == tuple(oracle(lambda c: scale * c + offset, q)
                                                 for _, scale, offset in FOUR_TERM)
    assert _cell_map([-c % q for c in range(q)], q, r) == oracle(lambda c: -c, q)
    if q > 1:
        p, n = LEVEL_BELOW[q]
        assert _level_map(p, n, r) == oracle(lambda c: c, p**n)


def test_four_term_kills_constants():
    assert four_term(LevelMeasure.constant(5, 1, 2, Fraction(7, 3))).is_zero()


FOUR_TERM_TABLE_SIZE = """
import tracemalloc
from mzvkit.measures import four_term_is_zero
from mzvkit.synth import random_kernel_measure

mu = random_kernel_measure(97, 1, 2, seed=0)
mu.points()
tracemalloc.start()
assert four_term_is_zero(mu)
print(tracemalloc.get_traced_memory()[0] / len(mu.numerators))
"""


def test_four_term_table_size():
    # a fresh interpreter, so that no earlier test has cached the tables.
    # The index maps, four ints a cell, hold about 160 bytes a cell; the
    # bound leaves no room for a second table of each cell's merged terms,
    # which takes about 300 more
    result = subprocess.run([sys.executable, "-c", FOUR_TERM_TABLE_SIZE],
                            capture_output=True, text=True, timeout=60, check=True)
    assert float(result.stdout) <= 250


@settings(max_examples=30)
@given(mu=integer_measures(configs=[(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)]))
def test_four_term_commutes_with_project(mu):
    assert four_term(project(mu)) == project(four_term(mu))


@settings(max_examples=30)
@given(mu=integer_measures())
def test_moments_are_stable_under_representative_change(mu):
    q = mu.modulus
    e = (1,) + (2,) * mu.r
    baseline = moment(mu, e)
    # the integrand at the representatives in [q, 2q) instead of [0, q)
    shifted = sum(value * _integrand_value([c + q for c in point], e)
                  for point, value in zip(mu.points(), mu.values))
    assert padic_valuation(shifted - baseline, mu.p) >= mu.n


@settings(max_examples=30)
@given(mu=integer_measures(), k=st.integers(0, 5))
def test_negation_pushforward_change_of_variables(mu, k):
    e = (0,) * mu.r + (k,)
    lhs = moment(affine_pushforward(mu, -1, 0), e)
    rhs = (-1) ** k * moment(mu, e)
    assert padic_valuation(lhs - rhs, mu.p) >= mu.n


def test_measure_json_round_trip():
    mu = LevelMeasure(3, 1, 1, (Fraction(1, 2), Fraction(-3), Fraction(0)))
    data = measure_to_json_dict(mu)
    assert data == {"p": 3, "n": 1, "r": 1, "values": ["1/2", "-3", "0"]}
    assert measure_from_json_dict(data) == mu
