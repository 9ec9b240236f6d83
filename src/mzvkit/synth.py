"""Exact kernel of the four-term operator, seeded random data, and level lifts.

The kernel basis is written down in closed form from the factorisation of the
operator as (1 - tau)(1 - sigma), negation sigma and diagonal shift tau (see
:func:`_kernel_vectors`); no linear system is solved.  The basis vectors are
kept sparse.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache
from itertools import product

from .exact import Immutable, check_config
from .measures import FOUR_TERM, LevelMeasure, _cell_map, _four_term_maps, _level_map

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

# seeded draws lie in [-9, 9]: perfbench/workloads.py replays random_lambda_table's draws
_MAGNITUDE = 9


class KernelBasis(Immutable):
    """Primitive integer basis of the exact four-term kernel at one level.

    Each vector maps its nonzero cells (row-major indices, ascending) to their
    integer values.  A vector's last cell is its free column: it is +-1 there,
    and no other vector has that cell, so the vectors are a Z-basis of the
    kernel lattice and a kernel measure's coordinate on a vector is its value
    at that cell times that sign.  The vectors are shared by every caller of
    the cached kernel and must not be modified.
    """

    _fields = ("p", "n", "r", "vectors")

    def __init__(self, p: int, n: int, r: int, vectors: tuple[dict[int, int], ...]) -> None:
        self._assign(p, n, r, vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def measures(self) -> list[LevelMeasure]:
        """The basis vectors as dense measures."""
        cells = range(self.p ** (self.n * self.r))
        return [LevelMeasure(self.p, self.n, self.r, [vector.get(i, 0) for i in cells])
                for vector in self.vectors]


def four_term_matrix(p: int, n: int, r: int) -> list[dict[int, int]]:
    """Sparse rows of the four-term operator, read from its index maps: row j
    couples the cells j, -j, 1-j, j-1 with the ``FOUR_TERM`` signs +1, -1, +1,
    -1.  The operator matrix merges the four (cell, sign) pairs of each row,
    so cancelled cells are dropped and a row that cancels entirely is empty."""
    rows = []
    for cells in zip(*_four_term_maps(p**n, r)):
        row: dict[int, int] = {}
        for (sign, _, _), cell in zip(FOUR_TERM, cells):
            row[cell] = row.get(cell, 0) + sign
        rows.append({cell: coeff for cell, coeff in row.items() if coeff})
    return rows


def _kernel_vectors(q: int, r: int) -> list[dict[int, int]]:
    """The kernel basis of the four-term operator on (Z/q)^r, in ascending
    order of free column, which is each vector's last cell.

    The operator is T = (1 - tau)(1 - sigma), sigma the negation and tau the
    shift by the diagonal (1, ..., 1), so T mu = 0 exactly when mu - sigma mu
    is constant on diagonal orbits.  The kernel is thus the even measures,
    spanned by the indicators of the negation orbits ({x} when x = -x, else
    {lo, hi} at free column hi), plus, per pair of diagonal orbits O != sigma O,
    one measure whose mu - sigma mu is +-(1_O - 1_{sigma O}).  On such a pair
    of orbits, let s_P be +1 when lo_P lies in the orbit of the lowest lo and
    -1 otherwise, and (m, m') the negation pair of largest lo: free column m
    takes sum_P s_P lo_P, and free column m' takes that sum minus s_m times
    the even vector {m, m'}, which is 0 at m and -s_m at m'.  Every vector
    is +1 at its lowest cell, +-1 at its own free column and 0 at the
    others, so the basis is primitive and a Z-basis of the kernel lattice.
    """
    by_free: dict[int, dict[int, int]] = {}
    groups: dict[tuple[int, ...], list[tuple[int, int, tuple[int, ...]]]] = {}
    negation = _cell_map([-c % q for c in range(q)], q, r)
    for lo, (x, hi) in enumerate(zip(product(range(q), repeat=r), negation)):
        if hi == lo:
            by_free[lo] = {lo: 1}
        elif lo < hi:
            # the diagonal orbits of x and -x, by their members with first coordinate 0
            orbit = tuple((c - x[0]) % q for c in x)
            mirror = tuple((x[0] - c) % q for c in x)
            if orbit == mirror:
                by_free[hi] = {lo: 1, hi: 1}
            else:
                groups.setdefault(min(orbit, mirror), []).append((lo, hi, orbit))
    for pairs in groups.values():
        *rest, (m, m_bar, _) = pairs
        signs = {lo: 1 if orbit == pairs[0][2] else -1 for lo, _, orbit in pairs}
        for lo, hi, _ in rest:
            by_free[hi] = {lo: 1, hi: 1}
        by_free[m] = signs
        by_free[m_bar] = {lo: signs[lo] for lo, _, _ in rest} | {m_bar: -signs[m]}
    return [by_free[free] for free in sorted(by_free)]


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
    return KernelBasis(p, n, r, tuple(_kernel_vectors(p**n, r)))


def four_term_kernel(p: int, n: int, r: int) -> KernelBasis:
    """Primitive integer basis of {mu : four_term(mu) = 0}, deterministically ordered.

    The configuration is checked by :func:`check_size` first.
    """
    check_size(p, n, r)
    return _cached_kernel(p, n, r)


def random_kernel_measure(p: int, n: int, r: int, seed: int) -> LevelMeasure:
    """Seeded integer combination of the kernel basis vectors, with one
    ``randint(-_MAGNITUDE, _MAGNITUDE)`` coefficient per vector."""
    basis = four_term_kernel(p, n, r)
    rng = random.Random(seed)
    cells = [0] * (p ** (n * r))
    for vector in basis.vectors:
        coefficient = rng.randint(-_MAGNITUDE, _MAGNITUDE)
        if coefficient:
            for column, value in vector.items():
                cells[column] += coefficient * value
    return LevelMeasure(p, n, r, cells)


def random_lambda_table(p: int, n: int, r: int, seed: int) -> LevelMeasure:
    """Seeded table with uniform small integer values: one
    ``randint(-_MAGNITUDE, _MAGNITUDE)`` per cell, in row-major order."""
    rng = random.Random(seed)
    return LevelMeasure(p, n, r, [rng.randint(-_MAGNITUDE, _MAGNITUDE)
                                  for _ in range(p ** (n * r))])


def lift(mu: LevelMeasure) -> LevelMeasure:
    """Equidistributed lift one level up: each of the p^r children of a cell
    reads its parent's numerator through the level map, over p^r times the
    denominator, so projecting back is exact."""
    numerators = list(map(mu.numerators.__getitem__, _level_map(mu.p, mu.n, mu.r)))
    return LevelMeasure._reduced(mu.p, mu.n + 1, mu.r, numerators, mu.denominator * mu.p**mu.r)
