"""Exact kernel of the four-term operator, seeded random data, and level lifts.

The kernel is computed by fraction-free (integer-pivot) Gaussian elimination
on the sparse operator matrix: rows stay integral, are divided by their gcd
after every update, and pivots are chosen by sparsity so fill-in stays small.
The back pass visits only the pivot rows a basis vector reaches, and the basis
vectors are kept sparse.
"""

from __future__ import annotations

import heapq
import os
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .exact import Immutable, check_config
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


class KernelBasis(Immutable):
    """Primitive integer basis of the exact four-term kernel at one level.

    Each vector maps its nonzero cells (row-major indices, ascending) to their
    integer values.  The vectors are shared by every caller of the cached
    kernel and must not be modified.
    """

    _fields = ("p", "n", "r", "vectors")

    def __init__(self, p: int, n: int, r: int, vectors: tuple[dict[int, int], ...]) -> None:
        self._assign(p, n, r, vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def measures(self) -> list[LevelMeasure]:
        """The basis vectors as dense measures."""
        cells = range(_cell_count(self.p**self.n, self.r))
        return [LevelMeasure(self.p, self.n, self.r, [vector.get(i, 0) for i in cells])
                for vector in self.vectors]


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


def _nullspace(
    rows: list[dict[int, int]], ncols: int
) -> tuple[list[int], list[dict[int, int]]]:
    """Right kernel of a sparse integer matrix: the free columns in ascending
    order and, for each, its primitive integer kernel vector as a sparse dict.

    Forward pass (:func:`_eliminate`), then a back pass per free column
    (:func:`_solve_free_column`), all in integers.
    """
    free_columns, pivot_rows = _eliminate(rows, ncols)
    # column -> pivot columns of the other pivot rows with an entry there
    touching: dict[int, list[int]] = {}
    for column, row in pivot_rows:
        for col2 in row:
            if col2 != column:
                touching.setdefault(col2, []).append(column)
    pivot_row_of = dict(pivot_rows)
    vectors = [_solve_free_column(free, pivot_row_of, touching) for free in free_columns]
    return free_columns, vectors


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


def _check_saturated(free_columns: list[int], vectors: list[dict[int, int]]) -> None:
    """Raise unless each vector is +-1 at its own free column and 0 at every
    other free column, which makes the vectors a Z-basis of the integer
    kernel lattice and not only of the rational kernel."""
    free_set = set(free_columns)
    for free, vector in zip(free_columns, vectors):
        if vector.get(free) not in (1, -1) or free_set.intersection(vector) != {free}:
            raise ArithmeticError(f"kernel vector of free column {free} is not saturated")


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
    free_columns, vectors = _nullspace(four_term_matrix(p, n, r), _cell_count(p**n, r))
    _check_saturated(free_columns, vectors)
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
            for column, value in vector.items():
                cells[column] += coefficient * value
    return LevelMeasure(p, n, r, cells)


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
