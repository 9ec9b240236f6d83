"""Exact kernel of the four-term operator, seeded random data, and level lifts.

The kernel is computed by fraction-free (integer-pivot) Gaussian elimination
on the sparse operator matrix: rows stay integral, are divided by their gcd
after every update, and pivots are chosen by sparsity so fill-in stays small.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .exact import check_config
from .measures import LevelMeasure, _cell_count, _four_term_rows, index_to_point
from .series import LambdaTable

__all__ = [
    "DEFAULT_CELL_CAP",
    "KernelBasis",
    "four_term_matrix",
    "four_term_kernel",
    "size_cap",
    "check_size",
    "random_kernel_measure",
    "random_lambda_table",
    "lift",
]

DEFAULT_CELL_CAP = 10_000


@dataclass(frozen=True)
class KernelBasis:
    """Primitive integer basis of the exact four-term kernel at one level."""

    p: int
    n: int
    r: int
    vectors: tuple[LevelMeasure, ...]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def four_term_matrix(p: int, n: int, r: int) -> list[dict[int, int]]:
    """Sparse rows of the four-term operator: row j couples the cells
    j, -j, 1-j, j-1 with the ``FOUR_TERM`` signs +1, -1, +1, -1 (entries merge
    when cells coincide, and rows that cancel entirely are kept as empty dicts)."""
    return [dict(row) for row in _four_term_rows(p**n, r)]


def _normalize_row(row: dict[int, int]) -> None:
    divisor = 0
    for value in row.values():
        divisor = gcd(divisor, value)
    if divisor > 1:
        for column in row:
            row[column] //= divisor


def _nullspace(rows: list[dict[int, int]], ncols: int) -> list[tuple[int, ...]]:
    """Right kernel of a sparse integer matrix, primitive integer vectors.

    Forward pass (:func:`_eliminate`), then a back pass per free column
    (:func:`_solve_free_column`), all in integers.
    """
    free_columns, pivot_rows = _eliminate(rows, ncols)
    return [_solve_free_column(free, pivot_rows, ncols) for free in free_columns]


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
    free: int, pivot_rows_desc: list[tuple[int, dict[int, int]]], ncols: int
) -> tuple[int, ...]:
    """The kernel vector with 1 at ``free`` and 0 at every other free column,
    made primitive, solved in integers.

    Each pivot row, in descending column order, fixes its pivot entry.  When
    the pivot does not divide the row's sum, the whole vector is first scaled
    by |pivot / gcd(sum, pivot)|; the vector stays a positive multiple of the
    rational solution, so the primitive vector is the same.
    """
    vector = [0] * ncols
    vector[free] = 1
    for column, row in pivot_rows_desc:
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
    return _primitive(vector)


def _primitive(vector: list[int]) -> tuple[int, ...]:
    """Divide by the content and make the first nonzero entry positive."""
    content = gcd(*vector)
    if next(value for value in vector if value) < 0:
        content = -content
    return tuple(vector) if content == 1 else tuple(value // content for value in vector)


def size_cap() -> int:
    """Cell-count guard: the MZV_CAP environment variable when set, else
    ``DEFAULT_CELL_CAP``."""
    raw = os.environ.get("MZV_CAP")
    if raw is None:
        return DEFAULT_CELL_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError("MZV_CAP must be a positive integer")
    return cap


def check_size(p: int, n: int, r: int) -> int:
    """Check a configuration against :func:`size_cap` and return its cell count.

    The depth is bounded by the cap too: every cell is a point of r
    coordinates, and at level 0 the single cell would otherwise admit any r.
    For n >= 1 the cell bound already keeps r below log2 of the cap.
    """
    cap = size_cap()
    cells = check_config(p, n, r, cap)
    if r > cap:
        raise ValueError(f"depth {r} is above the cap {cap}")
    return cells


@lru_cache(maxsize=32)
def _cached_kernel(p: int, n: int, r: int) -> KernelBasis:
    rows = four_term_matrix(p, n, r)
    vectors = []
    for values in _nullspace(rows, _cell_count(p**n, r)):
        # one Fraction per distinct entry: the vectors are mostly zeros
        as_fraction = {v: Fraction(v) for v in set(values)}
        vectors.append(LevelMeasure(p, n, r, tuple(map(as_fraction.__getitem__, values))))
    return KernelBasis(p, n, r, tuple(vectors))


def four_term_kernel(p: int, n: int, r: int) -> KernelBasis:
    """Primitive integer basis of {mu : four_term(mu) = 0}, deterministically ordered.

    The configuration is checked by :func:`check_size` first.
    """
    check_size(p, n, r)
    return _cached_kernel(p, n, r)


def random_kernel_measure(
    p: int, n: int, r: int, seed: int, magnitude: int = 9
) -> LevelMeasure:
    """Seeded integer combination of the kernel basis vectors."""
    basis = four_term_kernel(p, n, r)
    rng = random.Random(seed)
    cells = [0] * (p ** (n * r))
    for vector in basis.vectors:
        coefficient = rng.randint(-magnitude, magnitude)
        if coefficient:
            for i, v in enumerate(vector.values):
                if v:
                    cells[i] += coefficient * v.numerator
    return LevelMeasure(p, n, r, tuple(Fraction(c) for c in cells))


def random_lambda_table(p: int, n: int, r: int, seed: int, magnitude: int = 9) -> LambdaTable:
    """Seeded dense table with uniform small integer entries."""
    rng = random.Random(seed)
    coeffs = {
        idx: Fraction(rng.randint(-magnitude, magnitude))
        for idx in product(range(p**n), repeat=r)
    }
    return LambdaTable(p, n, r, coeffs)


def lift(mu: LevelMeasure) -> LevelMeasure:
    """Equidistributed lift one level up: each of the p^r children of a cell
    receives the parent value divided by p^r, so projecting back is exact."""
    q_new = mu.p ** (mu.n + 1)
    share = Fraction(1, mu.p**mu.r)
    q_old = mu.modulus
    values = []
    for index in range(_cell_count(q_new, mu.r)):
        point = index_to_point(index, q_new, mu.r)
        values.append(mu.value(tuple(c % q_old for c in point)) * share)
    return LevelMeasure(mu.p, mu.n + 1, mu.r, tuple(values))
