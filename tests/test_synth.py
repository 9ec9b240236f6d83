import heapq
import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from mzvkit.exact import is_prime
from mzvkit.measures import FOUR_TERM, LevelMeasure, _points, four_term, four_term_is_zero, project
from mzvkit.synth import (
    DEFAULT_CELL_CAP,
    KernelBasis,
    four_term_kernel,
    four_term_matrix,
    lift,
    random_kernel_measure,
    random_lambda_table,
)
from test_measures import affine_pushforward, project_oracle

KNOWN_DIMENSIONS = {
    (2, 1, 1): 2,
    (2, 1, 2): 4,
    (3, 1, 1): 2,
    (3, 1, 2): 6,
    (5, 1, 1): 3,
    (5, 1, 2): 15,
    (2, 2, 1): 3,
    (2, 2, 2): 11,
    (3, 2, 1): 5,
    (3, 2, 2): 45,
    (5, 2, 1): 13,
    (5, 2, 2): 325,
}

SMALL_CONFIGS = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 1), (5, 1, 1)]


def orbit_count_oracle(q, r):
    """Kernel dimension by orbit counting.

    The operator factors through negation and the diagonal translation, so its
    kernel dimension is the number of negation orbits on the point set plus the
    number of unordered pairs of diagonal-translation orbits swapped by
    negation.
    """
    points = list(product(range(q), repeat=r))
    negation = lambda pt: tuple(-c % q for c in pt)
    negation_orbits = {frozenset((pt, negation(pt))) for pt in points}

    def translation_orbit(pt):
        return min(tuple((c + t) % q for c in pt) for t in range(q))

    orbits = {translation_orbit(pt) for pt in points}
    swapped_pairs = {
        frozenset((key, translation_orbit(negation(key))))
        for key in orbits
        if translation_orbit(negation(key)) != key
    }
    return len(negation_orbits) + len(swapped_pairs)


def dense_rank(rows):
    rows = [list(row) for row in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense_operator(p, n, r):
    size = (p**n) ** r
    rows = []
    for sparse in four_term_matrix(p, n, r):
        row = [Fraction(0)] * size
        for col, entry in sparse.items():
            row[col] = Fraction(entry)
        rows.append(row)
    return rows


@pytest.mark.parametrize("config", sorted(KNOWN_DIMENSIONS))
def test_kernel_dimension_matches_known_values(config):
    assert four_term_kernel(*config).dimension == KNOWN_DIMENSIONS[config]


@pytest.mark.parametrize("config", sorted(KNOWN_DIMENSIONS))
def test_kernel_dimension_matches_orbit_oracle(config):
    p, n, r = config
    assert four_term_kernel(p, n, r).dimension == orbit_count_oracle(p**n, r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_mod_two_operator_is_zero(r):
    # negation and the shift by one coincide mod 2, so every row cancels
    assert all(not row for row in four_term_matrix(2, 1, r))
    assert four_term_kernel(2, 1, r).dimension == 2**r


def test_matrix_rows_mod_three():
    assert four_term_matrix(3, 1, 1) == [
        {1: 1, 2: -1},
        {1: 1, 2: -1},
        {1: -2, 2: 2},
    ]


# levels n <= 2 and depths r <= 3, at most 81 cells each
VIEW_CONFIGS = [(2, 0, 1), (3, 0, 3), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1),
                (5, 2, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2), (5, 1, 2), (7, 1, 2),
                (2, 1, 3), (2, 2, 3), (3, 1, 3)]


@st.composite
def view_measures(draw):
    """Rational measures, half of them in the four-term kernel."""
    p, n, r = draw(st.sampled_from(VIEW_CONFIGS))
    scale = Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 4)))
    if draw(st.booleans()):
        return random_kernel_measure(p, n, r, seed=draw(st.integers(0, 2**32))) * scale
    size = p ** (n * r)
    values = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    return LevelMeasure(p, n, r, values) * scale


@settings(max_examples=60, deadline=None)
@given(mu=view_measures())
def test_four_term_views_match_the_pushforward_oracle(mu):
    expected = LevelMeasure.zero(mu.p, mu.n, mu.r)
    for sign, scale, offset in FOUR_TERM:
        expected = expected + affine_pushforward(mu, scale, offset) * sign
    assert four_term(mu) == expected
    assert four_term_is_zero(mu) == expected.is_zero()
    rows = four_term_matrix(mu.p, mu.n, mu.r)
    applied = [Fraction(sum(coeff * mu.numerators[cell] for cell, coeff in row.items()),
                        mu.denominator) for row in rows]
    assert applied == list(expected.values)


@pytest.mark.parametrize("config", SMALL_CONFIGS)
def test_kernel_against_dense_elimination(config):
    p, n, r = config
    size = (p**n) ** r
    basis = four_term_kernel(p, n, r)
    assert basis.dimension == size - dense_rank(dense_operator(p, n, r))
    assert dense_rank([v.values for v in basis.measures()]) == basis.dimension


@pytest.mark.parametrize("config", sorted(KNOWN_DIMENSIONS))
def test_basis_vectors_are_kernel_and_primitive(config):
    basis = four_term_kernel(*config)
    for vector in basis.measures():
        assert four_term_is_zero(vector)
        assert vector.is_integer_valued()
        entries = [v.numerator for v in vector.values]
        content = 0
        for entry in entries:
            content = gcd(content, entry)
        assert content == 1
        assert next(entry for entry in entries if entry) > 0


def test_kernel_result_is_cached_and_typed():
    first = four_term_kernel(3, 1, 2)
    assert first is four_term_kernel(3, 1, 2)
    assert isinstance(first, KernelBasis)
    assert (first.p, first.n, first.r) == (3, 1, 2)


def test_cell_cap_rejects_oversized_configs(monkeypatch):
    monkeypatch.setenv("MZV_CAP", "100")
    with pytest.raises(ValueError):
        four_term_kernel(5, 2, 2)


def test_env_cap_applies_to_kernel_and_random_measure(monkeypatch):
    four_term_kernel(3, 1, 2)  # cached below the cap
    monkeypatch.setenv("MZV_CAP", "8")
    with pytest.raises(ValueError, match="cap 8"):
        four_term_kernel(3, 1, 2)
    with pytest.raises(ValueError, match="cap 8"):
        random_kernel_measure(3, 1, 2, seed=0)


def test_random_kernel_measure_is_deterministic():
    a = random_kernel_measure(3, 1, 2, seed=7)
    assert a == random_kernel_measure(3, 1, 2, seed=7)
    assert any(
        random_kernel_measure(3, 1, 2, seed=s) != a for s in range(1, 6)
    )


def test_random_kernel_measure_lands_in_kernel():
    for seed in range(10):
        mu = random_kernel_measure(3, 2, 1, seed=seed)
        assert four_term_is_zero(mu)
        assert mu.is_integer_valued()


def test_random_lambda_table_is_bounded():
    # one draw per cell in row-major order, zero draws included
    table = random_lambda_table(3, 1, 2, seed=2)
    rng = random.Random(2)
    assert table.numerators == tuple(rng.randint(-9, 9) for _ in range(9))
    assert table.is_integer_valued() and 0 in table.numerators
    assert table == random_lambda_table(3, 1, 2, seed=2)


def test_lift_splits_mass_evenly():
    lifted = lift(LevelMeasure.point_mass(2, 1, 1, (0,)))
    assert (lifted.p, lifted.n) == (2, 2)
    assert lifted.value((0,)) == Fraction(1, 2)
    assert lifted.value((2,)) == Fraction(1, 2)
    assert lifted.value((1,)) == 0
    assert lifted.value((3,)) == 0


def test_lift_zero_is_zero():
    assert lift(LevelMeasure.zero(3, 1, 2)).is_zero()


def lift_oracle(mu):
    """``lift`` point by point: each cell of level n + 1 takes the value at
    its point mod p^n times the Fraction 1/p^r."""
    share = Fraction(1, mu.p**mu.r)
    return LevelMeasure(mu.p, mu.n + 1, mu.r,
                        [mu.value(point) * share for point in _points(mu.p ** (mu.n + 1), mu.r)])


@st.composite
def rational_measures(draw):
    """Levels 0 to 2, with denominators that p divides, once, twice, or not."""
    p, n, r = draw(st.sampled_from([(2, 0, 1), (3, 0, 3), (2, 1, 1), (2, 1, 2), (3, 1, 2),
                                    (5, 1, 1), (2, 2, 2), (3, 2, 1)]))
    den = p ** draw(st.integers(0, 2)) * draw(st.integers(1, 4))
    size = p ** (n * r)
    values = draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    return LevelMeasure(p, n, r, [Fraction(v, den) for v in values])


@settings(max_examples=80)
@given(mu=rational_measures())
@example(mu=LevelMeasure(2, 1, 1, (Fraction(3), Fraction(-7))))
@example(mu=random_kernel_measure(3, 1, 2, seed=0))
@example(mu=random_kernel_measure(3, 1, 2, seed=4))
def test_project_undoes_lift(mu):
    # measures compare field for field: numerators and denominator
    lifted = lift(mu)
    assert lifted == lift_oracle(mu)
    assert project(lifted) == project_oracle(lifted) == mu
    if mu.n:
        assert project(mu) == project_oracle(mu)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [1, 2])
def test_lift_preserves_kernel_membership(p, r):
    for vector in four_term_kernel(p, 1, r).measures():
        assert four_term_is_zero(lift(vector))


@pytest.mark.parametrize("config", SMALL_CONFIGS)
def test_kernel_invariant_under_negation(config):
    # the operator anti-commutes with the negation pushforward
    for vector in four_term_kernel(*config).measures():
        assert four_term_is_zero(affine_pushforward(vector, -1, 0))


def _normalize_row(row: dict[int, int]) -> None:
    divisor = 0
    for value in row.values():
        divisor = gcd(divisor, value)
    if divisor > 1:
        for column in row:
            row[column] //= divisor


def _eliminate(
    rows: list[dict[int, int]], ncols: int
) -> tuple[list[int], list[tuple[int, dict[int, int]]]]:
    """Fraction-free elimination with gcd-normalized rows, pivoting on the
    sparsest candidate row per column.

    Returns the free columns in ascending order and the (pivot column, row)
    pairs in descending column order, the order of the back pass.
    """
    work = [dict(row) for row in rows if row]
    column_rows: dict[int, set[int]] = {}
    for row_id, row in enumerate(work):
        for column in row:
            column_rows.setdefault(column, set()).add(row_id)

    pivot_row_of: dict[int, int] = {}
    frozen: set[int] = set()
    for column in range(ncols):
        live = column_rows.get(column)
        if not live:
            continue
        candidates = [row_id for row_id in live if row_id not in frozen]
        if not candidates:
            continue
        pivot_id = min(
            candidates, key=lambda rid: (len(work[rid]), abs(work[rid][column]), rid)
        )
        pivot_row = work[pivot_id]
        _normalize_row(pivot_row)
        pivot_value = pivot_row[column]
        for other_id in sorted(live - {pivot_id}):
            if other_id in frozen:
                continue
            other = work[other_id]
            other_value = other[column]
            updated: dict[int, int] = {}
            for col2, val2 in other.items():
                updated[col2] = pivot_value * val2
            for col2, val2 in pivot_row.items():
                merged = updated.get(col2, 0) - other_value * val2
                if merged:
                    updated[col2] = merged
                else:
                    updated.pop(col2, None)
            _normalize_row(updated)
            for col2 in other:
                if col2 not in updated:
                    column_rows[col2].discard(other_id)
            for col2 in updated:
                if col2 not in other:
                    column_rows.setdefault(col2, set()).add(other_id)
            work[other_id] = updated
        pivot_row_of[column] = pivot_id
        frozen.add(pivot_id)

    free_columns = [c for c in range(ncols) if c not in pivot_row_of]
    pivot_rows_desc = [
        (column, work[pivot_row_of[column]]) for column in sorted(pivot_row_of, reverse=True)
    ]
    return free_columns, pivot_rows_desc


def _solve_free_column(
    free: int, pivot_row_of: dict[int, dict[int, int]], touching: dict[int, list[int]]
) -> dict[int, int]:
    """The kernel vector with 1 at ``free`` and 0 at every other free column,
    made primitive, solved in integers.

    Each pivot row, in descending column order, fixes its pivot entry.  Pivot
    rows are upper triangular (a row has entries only at columns at or after
    its pivot), so a row none of whose other columns is nonzero yet has a zero
    sum and fixes a zero: only the rows ``touching`` a nonzero column are
    visited, taken from a heap in descending pivot order.  When the pivot does
    not divide the row's sum, the whole vector is first scaled by
    |pivot / gcd(sum, pivot)|; the vector stays a positive multiple of the
    rational solution, so the primitive vector is the same.
    """
    vector = {free: 1}
    queued = set(touching.get(free, ()))
    heap = [-column for column in queued]
    heapq.heapify(heap)
    while heap:
        column = -heapq.heappop(heap)
        row = pivot_row_of[column]
        acc = 0
        for col2, coeff in row.items():
            if col2 != column:
                acc += coeff * vector.get(col2, 0)
        if not acc:
            continue
        pivot = row[column]
        if acc % pivot:
            scale = abs(pivot // gcd(acc, pivot))
            for col2 in vector:
                vector[col2] *= scale
            acc *= scale
        vector[column] = -acc // pivot
        for below in touching.get(column, ()):
            if below not in queued:
                queued.add(below)
                heapq.heappush(heap, -below)
    return _primitive(vector)


def _primitive(vector: dict[int, int]) -> dict[int, int]:
    """Drop zeros, divide by the content and make the first nonzero entry
    positive; the entries come out in ascending column order."""
    entries = sorted((column, value) for column, value in vector.items() if value)
    content = gcd(*(value for _, value in entries))
    if entries[0][1] < 0:
        content = -content
    return {column: value // content for column, value in entries}


def elimination_kernel_oracle(p, n, r):
    """The four-term kernel basis by sparse fraction-free elimination of the
    operator matrix: a forward pass (:func:`_eliminate`), then a back pass
    per free column (:func:`_solve_free_column`), all in integers, with no
    use of how the operator factors."""
    free_columns, pivot_rows = _eliminate(four_term_matrix(p, n, r), p ** (n * r))
    # column -> pivot columns of the other pivot rows with an entry there
    touching: dict[int, list[int]] = {}
    for column, row in pivot_rows:
        for col2 in row:
            if col2 != column:
                touching.setdefault(col2, []).append(column)
    pivot_row_of = dict(pivot_rows)
    return [_solve_free_column(free, pivot_row_of, touching) for free in free_columns]


def oracle_configs():
    """Every configuration with p <= 97, n >= 1 and at most the default cap of
    cells, then every level-0 configuration with r <= 4."""
    primes = [p for p in range(2, 98) if is_prime(p)]
    configs = [(p, n, r) for p in primes for n in range(1, 14) for r in range(1, 14)
               if p ** (n * r) <= DEFAULT_CELL_CAP]
    return configs + [(p, 0, r) for p in primes for r in range(1, 5)]


def test_closed_form_kernel_matches_elimination_oracle():
    configs = oracle_configs()
    assert len(configs) == 146 + 100
    flipped = []
    for p, n, r in configs:
        vectors = four_term_kernel(p, n, r).vectors
        expected = elimination_kernel_oracle(p, n, r)
        assert [list(v.items()) for v in vectors] == [list(v.items()) for v in expected]
        flipped += [(p, n, r) for vector in vectors if vector[max(vector)] == -1]
    # the sign rule leaves some vectors at -1 on their free column
    assert flipped


def fraction_nullspace_oracle(rows, ncols):
    """The kernel basis with the back pass on Fractions: set each free column
    to 1, solve the pivot rows in descending column order, then clear
    denominators, divide by the content and make the first entry positive."""
    free_columns, pivot_rows = _eliminate(rows, ncols)
    basis = []
    for free in free_columns:
        vector = [Fraction(0)] * ncols
        vector[free] = Fraction(1)
        for column, row in pivot_rows:
            acc = Fraction(0)
            for col2, coeff in row.items():
                if col2 != column:
                    acc += coeff * vector[col2]
            vector[column] = -acc / row[column]
        denominator = lcm(*(value.denominator for value in vector))
        scaled = [int(value * denominator) for value in vector]
        content = 0
        for value in scaled:
            content = gcd(content, value)
        scaled = [value // content for value in scaled]
        if next(value for value in scaled if value) < 0:
            scaled = [-value for value in scaled]
        basis.append(tuple(Fraction(value) for value in scaled))
    return basis


def dense_nullspace_oracle(rows, ncols):
    """The kernel basis with the integer back pass on dense vectors: every
    pivot row is visited, in descending column order; when the pivot does not
    divide the row's sum, the whole vector is first scaled by
    |pivot / gcd(sum, pivot)|.  Then divide by the content and make the first
    entry positive."""
    free_columns, pivot_rows = _eliminate(rows, ncols)
    basis = []
    for free in free_columns:
        vector = [0] * ncols
        vector[free] = 1
        for column, row in pivot_rows:
            acc = 0
            for col2, coeff in row.items():
                if col2 != column:
                    acc += coeff * vector[col2]
            if not acc:
                continue
            pivot = row[column]
            if acc % pivot:
                scale = abs(pivot // gcd(acc, pivot))
                vector = [value * scale for value in vector]
                acc *= scale
            vector[column] = -acc // pivot
        content = gcd(*vector)
        if next(value for value in vector if value) < 0:
            content = -content
        basis.append(tuple(value // content for value in vector))
    return basis


def dense(vector, ncols):
    values = [0] * ncols
    for column, value in vector.items():
        values[column] = value
    return tuple(values)


@pytest.mark.parametrize("config", SMALL_CONFIGS)
def test_nullspace_matches_fraction_oracle_on_four_term_matrices(config):
    p, n, r = config
    rows, ncols = four_term_matrix(p, n, r), p ** (n * r)
    vectors = four_term_kernel(p, n, r).vectors
    basis = [dense(vector, ncols) for vector in vectors]
    assert basis == dense_nullspace_oracle(rows, ncols)
    assert basis == fraction_nullspace_oracle(rows, ncols)
    # each vector's last cell is the elimination's free column
    assert [max(vector) for vector in vectors] == _eliminate(rows, ncols)[0]
    for vector in vectors:
        assert list(vector) == sorted(vector) and all(vector.values())
    for vector in basis:
        assert all(type(value) is int for value in vector)
        assert all(sum(c * vector[col] for col, c in row.items()) == 0 for row in rows)


@pytest.mark.parametrize("config", sorted(KNOWN_DIMENSIONS))
def test_four_term_kernel_basis_is_saturated(config):
    # each vector's free column is its last cell: +-1 there (-1 where the sign
    # rule flips the vector) and 0 at every other free column, so the basis is
    # a Z-basis of the kernel lattice
    vectors = four_term_kernel(*config).vectors
    free_columns = [max(vector) for vector in vectors]
    assert free_columns == sorted(set(free_columns))
    free_set = set(free_columns)
    for free, vector in zip(free_columns, vectors):
        assert vector[free] in (1, -1)
        assert free_set & set(vector) == {free}
