"""Finite-level measures on (Z/p^n Z)^r with exact rational values.

A measure level is a dense row-major table over residue tuples, held as int
numerators over one int denominator, so every measure, integral or not, is
read one way: sums run over the numerators and are divided once.  Polynomial
moments are plain finite sums evaluated at the canonical representatives in
[0, p^n).  It is the package's one depth-r table, and ``series.from_measure``
is the one place a table becomes a series, each factor of
``paths.rhombus_product`` included.

The signed four-term combination mu(j) - mu(-j) + mu(1-j) - mu(j-1) is
written down once, as ``FOUR_TERM``: an entry (sign, scale, offset) is the
term sign * mu(scale*j + offset), coordinate-wise.  Its index maps hold the
cell scale*j + offset of every cell j once per entry, and every cell-wise
view reads them: :func:`four_term` (and the kernel test) builds them for the
call, and the operator matrix ``synth.four_term_matrix``, the rhombus product
and the coset sweep read them cached per modulus and depth.  One
coordinate-wise builder makes them and every other bulk cell map, such as the
cached level map that :func:`project` and ``synth.lift`` read.  The
coset identity sums over the coset based at scale*b + offset with final
factor (x_r - offset)^{e_r} and sign sign * scale^m, m the exponent sum:
x -> scale*x + offset scales each of its m linear factors by scale.

Sweeps run on one engine over r-words: (e_1, ..., e_r) stands for the
integrand of (0, e_1, ..., e_r), whose first factor is 1.  It eliminates the
integrand's variables along the difference chain: factor k reads x_k and
x_{k+1} only, so once factors 1..k are multiplied into the table, x_k is
summed out of it, keeping x_k mod p^e for coset sums at modulus p^e, and
nothing at modulus 1.  The first table holds the numerators of the nonzero
cells, and each later table only the keys that some cell reaches.  The
engine reads each word as its partial sums, as ``combinations_with_replacement``
lists the words of bounded sum, so a sweep makes no word; :func:`coset_sums`
turns explicit words into partial sums.  Words with a common prefix share its
stages, a stage of exponent 0 that neither sums nor copies is skipped, and the
final offsets share all stages but the last.  :func:`moment_table` takes from the
engine the words of first exponent 0 and makes each later level of the table
from the one before, by a recurrence in the first exponent that adds and
never multiplies.
:func:`coset_moment` evaluates one cell at a time and stays as their
independent oracle; :func:`moment` is that oracle over the whole table, the
coset of modulus 1.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, combinations_with_replacement, product, repeat
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, neg, sub

from .exact import Immutable, _exact, check_config, check_word, format_rational, parse_rational

__all__ = [
    "FOUR_TERM",
    "LevelMeasure",
    "Coset",
    "project",
    "four_term",
    "four_term_is_zero",
    "moment",
    "moment_table",
    "factorial_norm",
    "coset_moment",
    "measure_to_json_dict",
    "measure_from_json_dict",
]

# (sign, scale, offset): the term sign * mu(scale*j + offset)
FOUR_TERM = ((1, 1, 0), (-1, -1, 0), (1, -1, 1), (-1, 1, -1))


def point_to_index(point: Sequence[int], q: int) -> int:
    index = 0
    for coordinate in point:
        index = index * q + coordinate
    return index


def _cell_index(point: Sequence[int], q: int, r: int) -> int:
    """The row-major index in (Z/q)^r of ``point``, each coordinate mod q."""
    if len(point) != r:
        raise ValueError(f"point must have depth {r}, got {len(point)} coordinates")
    return point_to_index([c % q for c in point], q)


def _cell_map(images: Sequence[int], q: int, r: int) -> tuple[int, ...]:
    """The row-major index in (Z/q)^r of the image of each cell of
    (Z/len(images))^r, row-major, under c -> images[c] on every coordinate:
    each coordinate appends its image to the indices of the ones before it."""
    index = [0]
    for _ in range(r):
        index = [i * q + image for i in index for image in images]
    return tuple(index)


def _cell_count(p: int, n: int, r: int) -> int:
    """p^(n*r), once ``check_config`` admits (p, n, r): at a negative level
    the power would be a float."""
    check_config(p, n, r)
    return p ** (n * r)


@lru_cache(maxsize=128)
def _points(q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All residue tuples in row-major order (first coordinate most significant)."""
    return tuple(product(range(q), repeat=r))


class Coset(Immutable):
    """Residues congruent to ``base`` mod p^modulus_exponent, coordinate-wise."""

    _fields = ("base", "modulus_exponent")

    def __init__(self, base: Sequence[int], modulus_exponent: int) -> None:
        if modulus_exponent < 0:
            raise ValueError("coset modulus exponent must be non-negative")
        self._assign(tuple(base), modulus_exponent)


class LevelMeasure(Immutable):
    """Rational table on (Z/p^n Z)^r, row-major: one int numerator per cell
    over one positive int denominator, the lcm of the values' reduced
    denominators, so the gcd of all of them is 1 and equal measures hold equal
    fields.  Values are ints or Fractions (a float is a TypeError); ``values``
    reads them back as Fractions, built on first read.
    """

    _fields = ("p", "n", "r", "numerators", "denominator")
    p: int
    n: int
    r: int
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, p: int, n: int, r: int, values: Iterable[Fraction | int]) -> None:
        values = tuple(values)
        cells = check_config(p, n, r, len(values), "the number of values")
        if cells != len(values):
            raise ValueError(f"expected {cells} cells, got {len(values)}")
        values = tuple(map(_exact, values))
        # over the lcm of the reduced denominators the numerators are coprime to it
        den = lcm(*(v.denominator for v in values))
        self._assign(p, n, r, tuple(v.numerator * (den // v.denominator) for v in values), den)

    @classmethod
    def _reduced(cls, p: int, n: int, r: int, numerators: Sequence[int],
                 denominator: int) -> "LevelMeasure":
        """Trusted constructor: one numerator per cell over a positive
        denominator, with the gcd of all of them divided out."""
        g = gcd(denominator, *numerators)
        return cls._new(p, n, r, tuple(v // g for v in numerators), denominator // g)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.denominator) for v in self.numerators)

    @cached_property
    def _four_term_zero(self) -> bool:
        return not any(_four_term_cells(self))

    @property
    def modulus(self) -> int:
        return self.p**self.n

    @classmethod
    def zero(cls, p: int, n: int, r: int) -> "LevelMeasure":
        return cls(p, n, r, (0,) * _cell_count(p, n, r))

    @classmethod
    def constant(cls, p: int, n: int, r: int, value: Fraction | int = 1) -> "LevelMeasure":
        return cls(p, n, r, (value,) * _cell_count(p, n, r))

    @classmethod
    def point_mass(cls, p: int, n: int, r: int, point: Sequence[int], mass: Fraction | int = 1) -> "LevelMeasure":
        cells: list[Fraction | int] = [0] * _cell_count(p, n, r)
        cells[_cell_index(point, p**n, r)] = mass
        return cls(p, n, r, cells)

    def value(self, point: Sequence[int]) -> Fraction:
        return self.values[_cell_index(point, self.modulus, self.r)]

    def points(self) -> tuple[tuple[int, ...], ...]:
        return _points(self.modulus, self.r)

    def is_zero(self) -> bool:
        return not any(self.numerators)

    def is_integer_valued(self) -> bool:
        return self.denominator == 1

    def __add__(self, other: "LevelMeasure") -> "LevelMeasure":
        if (self.p, self.n, self.r) != (other.p, other.n, other.r):
            raise ValueError("measures with different base, level, or depth")
        den = lcm(self.denominator, other.denominator)
        a, b = den // self.denominator, den // other.denominator
        return LevelMeasure._reduced(
            self.p, self.n, self.r,
            [a * x + b * y for x, y in zip(self.numerators, other.numerators)], den,
        )

    def __sub__(self, other: "LevelMeasure") -> "LevelMeasure":
        return self + -other

    def __neg__(self) -> "LevelMeasure":
        return self * -1

    def __mul__(self, scalar: Fraction | int) -> "LevelMeasure":
        scalar = _exact(scalar)
        return LevelMeasure._reduced(self.p, self.n, self.r,
                                     [scalar.numerator * v for v in self.numerators],
                                     self.denominator * scalar.denominator)

    __rmul__ = __mul__


def project(mu: LevelMeasure) -> LevelMeasure:
    """Drop one level: the value at a residue tuple is the sum over its fiber."""
    if mu.n == 0:
        raise ValueError("cannot project below level 0")
    cells = [0] * mu.p ** ((mu.n - 1) * mu.r)
    for cell, value in zip(_level_map(mu.p, mu.n - 1, mu.r), mu.numerators):
        cells[cell] += value
    return LevelMeasure._reduced(mu.p, mu.n - 1, mu.r, cells, mu.denominator)


@lru_cache(maxsize=64)
def _level_map(p: int, n: int, r: int) -> tuple[int, ...]:
    """The index of the cell of level n below each cell of level n + 1: its
    coordinates mod p^n, row-major."""
    return _cell_map(list(range(p**n)) * p, p**n, r)


def _entry_map(q: int, r: int, scale: int, offset: int) -> tuple[int, ...]:
    """The index of the cell scale*j + offset for every cell j of (Z/q)^r,
    row-major."""
    return _cell_map([(scale * c + offset) % q for c in range(q)], q, r)


@lru_cache(maxsize=64)
def _four_term_maps(q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Per ``FOUR_TERM`` entry, its :func:`_entry_map`."""
    return tuple(_entry_map(q, r, scale, offset) for _, scale, offset in FOUR_TERM)


def _four_term_cells(mu: LevelMeasure) -> list[int]:
    """The combination's numerators over ``mu.denominator``, one entry at a
    time, through maps made for the call: cached ones would be held through
    the sweep after the kernel test."""
    values, total = mu.numerators, [0] * len(mu.numerators)
    for sign, scale, offset in FOUR_TERM:
        terms = map(values.__getitem__, _entry_map(mu.modulus, mu.r, scale, offset))
        total = list(map(add if sign > 0 else sub, total, terms))
    return total


def four_term(mu: LevelMeasure) -> LevelMeasure:
    """Signed combination j -> mu(j) - mu(-j) + mu(1-j) - mu(j-1), coordinate-wise."""
    return LevelMeasure._reduced(mu.p, mu.n, mu.r, _four_term_cells(mu), mu.denominator)


def four_term_is_zero(mu: LevelMeasure) -> bool:
    """Whether the four-term combination of ``mu`` vanishes in every cell (tested once)."""
    return mu._four_term_zero


def _integrand_value(xs: Sequence[int], exponents: Sequence[int], final_offset: int = 0) -> int:
    value = (-xs[0]) ** exponents[0]
    for k in range(1, len(xs)):
        value *= (xs[k - 1] - xs[k]) ** exponents[k]
    value *= (xs[-1] + final_offset) ** exponents[-1]
    return value


def moment(mu: LevelMeasure, exponents: Sequence[int]) -> Fraction:
    """Finite sum of the difference-monomial integrand against the table: the
    coset moment over the whole table, the coset of modulus 1.

    The integrand is (-x_1)^{e_0} (x_1-x_2)^{e_1} ... (x_{r-1}-x_r)^{e_{r-1}} x_r^{e_r},
    evaluated at the canonical representatives in [0, p^n); no factorial
    normalization is applied.
    """
    return coset_moment(mu, Coset((0,) * mu.r, 0), exponents)


_Stage = tuple[list[int], int, list[slice] | None]


def _elimination_plan(
    cells: Sequence[int], q: int, r: int, stride: int, final_offsets: Sequence[int],
) -> tuple[list[int], list[_Stage], list[list[tuple[slice, slice]]]]:
    """The stages that multiply the integrand's r factors into a table over
    the row-major ``cells`` of (Z/q)^r and sum each coordinate out after the
    last factor that reads it.

    Factor k (0 < k < r) is x_k - x_{k+1}, and factor r is x_r + o, once per
    final offset o.  With s = ``stride`` and t = q/s, a cell's key is the
    mixed-radix int with digits x_1 % s, ..., x_r % s (radix s) and then
    x_r // s, ..., x_1 // s (radix t), so keys order as those digit tuples
    would.  Stage k sums out x_k // s, the last digit: the cells are sorted by
    key, a stage's group is key // t, every sum runs over a contiguous slice,
    and what is left of x_k is x_k % s.  The last keys are the row-major
    indices of the bases in (Z/s)^r.  A stage is (column, copies, slices): the
    factor per entry, the number of copies of the incoming table it multiplies
    (one per final offset at stage r, else one), and the slices to sum, or
    None where no two entries share a group.  Only keys that some cell reaches
    are held, and each coordinate is one list of ints over them.

    Returns the order of ``cells`` that the first stage expects, the stages,
    and per final offset the placements of the last stage's sums among the
    bases of (Z/s)^r in row-major order: (bases, sums) slice pairs, one per
    run of consecutive bases that some cell reaches.
    """
    t = q // stride
    coords = [[cell // q ** (r - 1 - k) % q for cell in cells] for k in range(r)]
    keys = [0] * len(cells)
    for k, column in enumerate(coords):
        low, high = stride ** (r - 1 - k) * t**r, t**k
        digits = [c % stride * low + c // stride * high for c in range(q)]
        keys = list(map(add, keys, map(digits.__getitem__, column)))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    coords = [[column[i] for i in order] for column in coords]
    stages: list[_Stage] = []
    for k in range(r):
        if k < r - 1:
            column, copies = list(map(sub, coords[k], coords[k + 1])), 1
        else:
            column = [c + offset for offset in final_offsets for c in coords[k]]
            copies = len(final_offsets)
        size = len(keys)
        groups = [key // t for key in keys]
        starts = [i for i in range(size) if i == 0 or groups[i] != groups[i - 1]]
        slices = None
        if len(starts) < size:
            bounds = list(zip(starts, starts[1:] + [size]))
            slices = [slice(a + copy * size, b + copy * size)
                      for copy in range(copies) for a, b in bounds]
            groups = [groups[i] for i in starts]
            coords[k + 1:] = [[column[i] for i in starts] for column in coords[k + 1:]]
        stages.append((column, copies, slices))
        keys = groups
    starts = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1] + 1]
    runs = list(zip(starts, starts[1:] + [len(keys)]))
    placements = [
        [(slice(keys[a], keys[a] + b - a), slice(a + copy * len(keys), b + copy * len(keys)))
         for a, b in runs]
        for copy in range(len(final_offsets))
    ]
    return order, stages, placements


def _times_power(vector: list, column: list[int], e: int) -> list:
    if e == 0:
        return vector
    if e == 1:
        return list(map(mul, vector, column))
    return list(map(mul, vector, map(pow, column, repeat(e))))


def _chain_products(values: list, stages: Sequence[_Stage],
                    partial_sums: Iterable[Sequence[int]]) -> Iterator[list]:
    """For each word, given by its partial sums t_k = e_1 + ... + e_k, the
    last stage's sums of the table ``values`` times every factor k to the
    power e_k.

    A word keeps the stages below the first where its exponent differs from
    the previous word's; there, an exponent that grew by d multiplies the
    kept product by the d-th power.  A stage of exponent 0 that neither sums
    nor copies its table passes it through and is skipped.  The stages of
    nonzero exponent, and the first difference, are found by bisecting the
    non-decreasing partial sums, so at level 0 a word of one nonzero
    exponent costs one multiply at any depth.  ``held`` lists 0 and one past
    each stage run for the current word, ``tables[i]`` is stage i's input for
    i in it, and ``before[i]`` stage i's product before its sum.  The yielded
    lists are shared with the stages and must not be modified.
    """
    depth = len(stages)
    # the first stage at or after each that sums or copies its table
    kept = [depth] * (depth + 1)
    for i in reversed(range(depth)):
        _, copies, slices = stages[i]
        kept[i] = i if copies > 1 or slices is not None else kept[i + 1]
    before: list = [None] * depth
    tables: list = [values] + [None] * depth
    held = [0]
    previous: list[int] = []
    for sums in partial_sums:
        k = low = 0
        # the words first differ at a stage where one of them has a nonzero
        # exponent: from where they agree, bisect each to its next such stage
        while previous:
            a, k = bisect_right(previous, low, k), bisect_right(sums, low, k)
            if a != k or k == depth or previous[k] != sums[k]:
                k = min(a, k)
                break
            low = sums[k]
            k += 1
        while held[-1] > k:
            held.pop()
        table = tables[held[-1]]
        i = k
        while True:
            low = sums[i - 1] if i else 0
            # the stages before the next one that multiplies, sums or copies
            # pass the table through, and their partial sums are all ``low``
            i = min(bisect_right(sums, low, i), kept[i])
            if i == depth:
                break
            column, copies, slices = stages[i]
            e = sums[i] - low
            grown = previous[i] - low if previous and i == k else 0
            if 0 < grown < e:
                before[i] = _times_power(before[i], column, e - grown)
            else:
                before[i] = _times_power(table * copies if copies > 1 else table, column, e)
            table = before[i]
            if slices is not None:
                table = list(map(sum, map(table.__getitem__, slices)))
            i += 1
            tables[i] = table
            held.append(i)
        previous[k:] = sums[k:]
        yield table


def _placed(sums: list, placements: Sequence[list[tuple[slice, slice]]],
            size: int) -> tuple[list[int], ...]:
    """The last sums laid out over the ``size`` bases, per final offset."""
    tables = []
    for runs in placements:
        table: list = [0] * size
        for bases, cells in runs:
            table[bases] = sums[cells]
        tables.append(table)
    return tuple(tables)


def _sweep(
    mu: LevelMeasure,
    partial_sums: Iterable[Sequence[int]],
    modulus_exponent: int,
    final_offsets: Sequence[int],
) -> Iterator[tuple[list[int], ...]]:
    """:func:`coset_sums` for words given by their partial sums, unchecked:
    the engine that every sweep runs on.  The plan is made when it is called."""
    cells = [cell for cell, v in enumerate(mu.numerators) if v]
    order, stages, placements = _elimination_plan(cells, mu.modulus, mu.r,
                                                  mu.p**modulus_exponent, final_offsets)
    sums = _chain_products([mu.numerators[cells[i]] for i in order], stages, partial_sums)
    size = mu.p ** (modulus_exponent * mu.r)
    return (_placed(last, placements, size) for last in sums)


def coset_sums(
    mu: LevelMeasure,
    words: Iterable[Sequence[int]],
    modulus_exponent: int,
    final_offsets: Sequence[int],
) -> Iterator[tuple[list[int], ...]]:
    """Every coset sum at modulus p^modulus_exponent at once, times
    ``mu.denominator``, for r-words: a word (e_1, ..., e_r) stands for the
    integrand of (0, e_1, ..., e_r).

    Yields, per exponent word and then per final offset o, the list of ints
    whose entry at the row-major index of a base b (in
    (Z/p^modulus_exponent)^r) equals ``mu.denominator`` times
    ``coset_moment(mu, Coset(b, modulus_exponent), (0, *word), o)``.  Any word
    order is valid; lexicographic order shares the most work.  The arguments
    are checked when it is called, before the first word is yielded, and the
    words go to the engine as their partial sums.
    """
    if not 0 <= modulus_exponent <= mu.n:
        raise ValueError("coset modulus exponent must lie between 0 and the measure level")
    return _sweep(mu, _word_sums(words, mu.r), modulus_exponent, final_offsets)


def _word_sums(words: Iterable[Sequence[int]], r: int) -> list[tuple[int, ...]]:
    """Explicit r-words, each checked, as their partial sums."""
    return [tuple(accumulate(check_word(word, r))) for word in words]


def _word(sums: Sequence[int]) -> tuple[int, ...]:
    """The exponent word whose partial sums are ``sums``, made at its size: a
    tuple made from an iterator is shrunk, and once freed stays on the free
    list of its final size, so a walk would keep up to 2 000 of them."""
    return tuple([*map(sub, sums, (0, *sums))])


class _WordSums:
    """The words of ``length`` non-negative ints with sum at most ``cap`` (odd
    sums only, if ``odd``), in lexicographic order, as their partial sums: a
    sized collection that every walk makes afresh.  Partial sums never fall
    and stay within [0, cap], and order as their words do, so
    ``combinations_with_replacement`` gives them one tuple at a time."""

    def __init__(self, length: int, cap: int, odd: bool = False) -> None:
        self.length, self.cap, self.odd = length, cap, odd

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        sums = combinations_with_replacement(range(self.cap + 1), self.length)
        return filter(_odd_sum, sums) if self.odd else sums

    def __len__(self) -> int:
        # C(s + length - 1, length - 1) words have sum s
        return sum(comb(s + self.length - 1, self.length - 1)
                   for s in range(self.cap + 1) if s % 2 or not self.odd)


def _odd_sum(sums: Sequence[int]) -> int:
    return sums[-1] % 2


def exponent_words(length: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The words of ``length`` non-negative ints with sum at most ``cap``, in
    lexicographic order, each made from its partial sums (:class:`_WordSums`)."""
    return map(_word, _WordSums(length, cap))


def _shift_sums(level: list[int], length: int, budget: int, size: list[list[int]]) -> list[int]:
    """-sum_j level[e + u_j] at every word e of ``length`` entries with sum
    below ``budget``, u_j the j-th unit word, from ``level`` listed over the
    words with sum at most ``budget``; both in lexicographic order, and
    ``size[k][b]`` the number of words of k entries with sum at most b.

    The words that share a prefix p of k entries fill one slice of either
    list, made of one sub-slice per value of e_(k+1).  Shifting e_(k+1) maps
    p's slice of the result onto p's slice of ``level`` without its first
    sub-slice, so each prefix with sum below ``budget`` costs one slice
    subtraction; the empty prefix's starts the result.  The prefixes are
    walked by their sums and offsets alone, and no word is made."""
    sums = list(map(neg, level[size[length - 1][budget]:]))
    stack = [(0, 0, 0, 0)]  # per prefix: entries, sum, offset in level, offset in sums
    while stack:
        k, s, x, y = stack.pop()
        rest = size[length - k - 1]
        if k:
            n, skip = size[length - k][budget - 1 - s], rest[budget - s]
            sums[y:y + n] = map(sub, sums[y:y + n], level[x + skip:x + skip + n])
        if k < length - 1:
            for v in range(s, budget):
                stack.append((k + 1, v, x, y))
                x += rest[budget - v]
                y += rest[budget - 1 - v]
    return sums


def _levels(mu: LevelMeasure, cap: int) -> Iterator[list[int]]:
    """Per first exponent e_0 = 0, ..., cap, the moments' numerators at the
    words (e_0, e_1, ..., e_r) with sum at most ``cap``, in lexicographic
    order: the first from the engine over the r-words, each later one
    by :func:`_shift_sums` from the one before it."""
    level = [table[0] for (table,) in _sweep(mu, _WordSums(mu.r, cap), 0, (0,))]
    size = [[comb(b + k, k) for b in range(cap + 1)] for k in range(mu.r + 1)]
    for e0 in range(cap + 1):
        if e0:
            level = _shift_sums(level, mu.r, cap - e0 + 1, size)
        yield level


def moment_table(mu: LevelMeasure, cap: int) -> Iterator[tuple[tuple[int, ...], Fraction | int]]:
    """Yields every word (e_0, ..., e_r) with sum at most ``cap`` and its
    moment, in lexicographic order: ``moment(mu, word)``, an int when the
    denominator is 1, else a Fraction.

    The words with e_0 = 0 come from :func:`coset_sums`.  Since
    x_1 = (x_1 - x_2) + ... + (x_{r-1} - x_r) + x_r, the factor -x_1 splits,
    and over Z W(e_0, e) = -sum_j W(e_0 - 1, e + u_j); so each word with
    e_0 > 0 costs r subtractions of numerators (:func:`_shift_sums`) and no
    table multiply.  Each level is one list of numerators, and only the
    previous and the current level are held.  The words are made as they are
    yielded, a run over e_r per prefix, so none is checked, and only the
    engine holds a list of them, the first level's, while it runs."""
    den = mu.denominator
    values = chain.from_iterable(_levels(mu, cap))
    for head in exponent_words(mu.r, cap):
        for e, value in zip(range(cap - sum(head) + 1), values):
            yield head + (e,), value if den == 1 else Fraction(value, den)


def factorial_norm(exponents: Sequence[int]) -> int:
    """Product of the exponent factorials, which turns a moment into a coefficient."""
    return prod(factorial(e) for e in exponents)


def _coset_points(mu: LevelMeasure, coset: Coset) -> list[tuple[int, ...]]:
    if len(coset.base) != mu.r:
        raise ValueError(f"coset base must have depth {mu.r}")
    if coset.modulus_exponent > mu.n:
        raise ValueError("coset modulus exponent above the measure level")
    stride = mu.p**coset.modulus_exponent
    reps = mu.modulus // stride
    axes = [
        [(b % stride) + t * stride for t in range(reps)]
        for b in coset.base
    ]
    return [tuple(point) for point in product(*axes)]


def coset_moment(
    mu: LevelMeasure,
    coset: Coset,
    exponents: Sequence[int],
    final_offset: int = 0,
) -> Fraction:
    """Moment restricted to the points of a coset.

    ``final_offset`` shifts the last plain factor to (x_r + final_offset)^{e_r};
    the default 0 is the unrestricted-integrand contract, the shifted variants
    feed the signed coset identity check.
    """
    exponents = check_word(exponents, mu.r + 1)
    q = mu.modulus
    total = 0
    for point in _coset_points(mu, coset):
        value = mu.numerators[point_to_index(point, q)]
        if value:
            total += value * _integrand_value(point, exponents, final_offset)
    return Fraction(total, mu.denominator)


def measure_to_json_dict(mu: LevelMeasure) -> dict:
    """JSON form: {"p", "n", "r", "values": [row-major rationals]}."""
    return {
        "p": mu.p,
        "n": mu.n,
        "r": mu.r,
        "values": [format_rational(v) for v in mu.values],
    }


def _measure_header(data: object) -> tuple[int, int, int, list]:
    """(p, n, r, values) of a measure's JSON form, values unparsed.  Raises
    ValueError unless ``data`` is an object with every field, p, n and r are
    JSON integers (not booleans) and ``values`` is a list."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a measure must be a JSON object, got {type(data).__name__}")
    for key in ("p", "n", "r", "values"):
        if key not in data:
            raise ValueError(f'measure field "{key}" is missing')
    for key in ("p", "n", "r"):
        if type(data[key]) is not int:
            raise ValueError(f'measure field "{key}" must be an integer, got {data[key]!r}')
    values = data["values"]
    if not isinstance(values, list):
        raise ValueError(f'measure field "values" must be a list, got {type(values).__name__}')
    return data["p"], data["n"], data["r"], values


def measure_from_json_dict(data: Mapping) -> LevelMeasure:
    """Inverse of :func:`measure_to_json_dict`; the header is checked as
    :func:`_measure_header` checks it before any value is parsed."""
    p, n, r, values = _measure_header(data)
    return LevelMeasure(p, n, r, tuple(map(parse_rational, values)))
