from hypothesis import given, settings, strategies as st

from mzvkit.measures import LevelMeasure
from mzvkit.paths import rhombus_product
from mzvkit.series import Alphabet, NCSeries, from_measure
from test_series import fraction_inverse, fraction_substitute

AB3 = Alphabet(3, 1)


@st.composite
def depth_one_tables(draw, p=3, n=1, bound=9):
    values = draw(st.lists(st.integers(min_value=-bound, max_value=bound),
                           min_size=p**n, max_size=p**n))
    return LevelMeasure(p, n, 1, values)


@settings(max_examples=30)
@given(table=depth_one_tables())
def test_octagon_reduces_to_rhombus(table):
    # the eight-factor closure product with four factors 1 and no
    # conjugators: the other four, built from one series F, realize the
    # depth-graded index maps i+1, 1-i, -i, i
    cap = table.r
    f = from_measure(table, cap)
    q = AB3.modulus
    rot = {i: NCSeries(AB3, cap, {((i + 1) % q,): 1}) for i in range(q)}
    inv = {i: NCSeries(AB3, cap, {(-i % q,): 1}) for i in range(q)}
    octagon = (fraction_substitute(fraction_inverse(f), rot)
               * fraction_substitute(fraction_substitute(f, inv), rot)
               * fraction_substitute(fraction_inverse(f), inv) * f)
    assert octagon == rhombus_product(table)


def test_rhombus_of_zero_table_is_one():
    table = LevelMeasure.zero(3, 1, 2)
    assert rhombus_product(table) == NCSeries.one(AB3, 2)


def test_rhombus_depth_one_coefficients():
    table = LevelMeasure(3, 1, 1, [2, 5, -3])
    deviation = rhombus_product(table) - NCSeries.one(AB3, 1)
    a = table.value
    for j in range(3):
        expected = (
            a((j % 3,)) - a((-j % 3,)) + a(((1 - j) % 3,)) - a(((j - 1) % 3,))
        )
        assert deviation.coeff((j,)) == expected


def test_rhombus_collapses_mod_two():
    for values in [[1, 0], [0, 4], [2, -7]]:
        table = LevelMeasure(2, 1, 1, values)
        assert rhombus_product(table) == NCSeries.one(Alphabet(2, 1), 1)
