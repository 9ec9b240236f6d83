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
from math import gcd, lcm
from typing import Sequence

from .exact import check_config
from .measures import LevelMeasure, _cell_count, _four_term_rows, index_to_point
from .series import LambdaTable

__all__ = [
    "DEFAULT_CELL_CAP",
    "KernelBasis",
    "four_term_matrix",
    "four_term_kernel",
    "size_cap",
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


def _nullspace(rows: list[dict[int, int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Right kernel of a sparse integer matrix, primitive integer vectors.

    Forward pass: fraction-free elimination with gcd-normalized rows, pivoting
    on the sparsest candidate row per column.  Back pass: assign 1 to each free
    column in turn and solve the pivot rows in descending column order.
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
    pivot_columns_desc = sorted(pivot_row_of, reverse=True)
    basis: list[tuple[Fraction, ...]] = []
    for free in free_columns:
        vector = [Fraction(0)] * ncols
        vector[free] = Fraction(1)
        for column in pivot_columns_desc:
            row = work[pivot_row_of[column]]
            acc = Fraction(0)
            for col2, coeff in row.items():
                if col2 != column:
                    acc += coeff * vector[col2]
            vector[column] = -acc / row[column]
        basis.append(_primitive(vector))
    return basis


def _primitive(vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Clear denominators, divide by the content, make the first entry positive."""
    denominator = 1
    for value in vector:
        denominator = lcm(denominator, value.denominator)
    scaled = [int(value * denominator) for value in vector]
    content = 0
    for value in scaled:
        content = gcd(content, value)
    if content > 1:
        scaled = [value // content for value in scaled]
    for value in scaled:
        if value:
            if value < 0:
                scaled = [-v for v in scaled]
            break
    return tuple(Fraction(value) for value in scaled)


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


@lru_cache(maxsize=32)
def _cached_kernel(p: int, n: int, r: int) -> KernelBasis:
    rows = four_term_matrix(p, n, r)
    vectors = tuple(
        LevelMeasure(p, n, r, values) for values in _nullspace(rows, _cell_count(p**n, r))
    )
    return KernelBasis(p, n, r, vectors)


def four_term_kernel(p: int, n: int, r: int) -> KernelBasis:
    """Primitive integer basis of {mu : four_term(mu) = 0}, deterministically ordered.

    The configuration is checked against :func:`size_cap` first.
    """
    check_config(p, n, r, size_cap())
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
