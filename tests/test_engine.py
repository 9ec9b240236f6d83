"""The bucketed, prefix-shared sweeps against their one-cell-at-a-time oracles.

``moment``, ``coset_moment``, ``coset_four_term_check`` and
``vanishing_check`` evaluate one cell (or one coset) at a time; the sweeps
must agree with them for integer kernel measures, perturbed measures outside
the kernel and Fraction-valued measures, and for word lists in any order.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mzvkit.euler import (
    coset_four_term_check,
    coset_identity_sweep,
    coset_lambda_tables,
    vanishing_check,
    vanishing_sweep,
)
from mzvkit.measures import (
    FOUR_TERM,
    Coset,
    LevelMeasure,
    coset_moment,
    coset_sums,
    factorial_norm,
    moment,
    moment_sweep,
)
from mzvkit.synth import random_kernel_measure

CONFIGS = [(p, n, r) for p in (2, 3, 5) for n in (0, 1, 2) for r in (1, 2, 3)
           if p ** (n * r) <= 125]
KINDS = ("kernel", "perturbed", "fraction")


def build_measure(p, n, r, kind, seed):
    if kind == "fraction":
        values = [Fraction((seed * 7 + 13 * i) % 11 - 5, 1 + (seed + i) % 4)
                  for i in range(p ** (n * r))]
        return LevelMeasure(p, n, r, tuple(values))
    mu = random_kernel_measure(p, n, r, seed=seed)
    if kind == "perturbed":
        mu = mu + LevelMeasure.point_mass(p, n, r, (1,) * r)
    return mu


@st.composite
def measures_and_words(draw, extra=0, max_words=12):
    """A measure and an unsorted list of words (repeats allowed) of length r + extra."""
    p, n, r = draw(st.sampled_from(CONFIGS))
    mu = build_measure(p, n, r, draw(st.sampled_from(KINDS)), draw(st.integers(0, 1000)))
    word = st.tuples(*[st.integers(0, 4)] * (r + extra))
    return mu, draw(st.lists(word, max_size=max_words))


@settings(max_examples=60, deadline=None)
@given(measures_and_words(extra=1, max_words=30))
def test_moment_sweep_matches_moment_in_any_order(case):
    mu, words = case
    words = words + words[:3]  # repeated words, also out of order
    assert moment_sweep(mu, words) == [moment(mu, word) for word in words]
    assert moment_sweep(mu, sorted(words)) == [moment(mu, word) for word in sorted(words)]


@settings(max_examples=30, deadline=None)
@given(measures_and_words(extra=1, max_words=6))
def test_coset_sums_match_coset_moment(case):
    mu, words = case
    offsets = (0, -1, 1)
    for e in range(mu.n + 1):
        bases = [tuple(b) for b in LevelMeasure.zero(mu.p, e, mu.r).points()]
        for word, sums in zip(words, coset_sums(mu, words, e, offsets)):
            for offset, vector in zip(offsets, sums):
                assert vector == [coset_moment(mu, Coset(base, e), word, offset)
                                  for base in bases]


@settings(max_examples=30, deadline=None)
@given(measures_and_words(extra=0, max_words=8))
def test_coset_sweep_matches_coset_four_term_check(case):
    mu, words = case
    for e in range(mu.n + 1):
        bases = LevelMeasure.zero(mu.p, e, mu.r).points()
        swept = list(coset_identity_sweep(mu, words, e))
        assert len(swept) == len(words)
        for word, valuations in zip(words, swept):
            assert valuations == [
                coset_four_term_check(mu, Coset(base, e), word, validate=False).valuation
                for base in bases
            ]


@settings(max_examples=20, deadline=None)
@given(measures_and_words(extra=0, max_words=4))
def test_coset_lambda_tables_match_coset_moment(case):
    mu, words = case
    for word in words:
        for e in range(mu.n + 1):
            tables = coset_lambda_tables(mu, word, e)
            norm = factorial_norm(word)
            stride = mu.p**e
            for table, (_, scale, offset) in zip(tables, FOUR_TERM):
                for base, value in table.items():
                    coset = Coset(tuple((scale * b + offset) % stride for b in base), e)
                    assert value == coset_moment(mu, coset, (0, *word), -offset) / norm


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(CONFIGS), st.integers(0, 1000),
       st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3), max_size=10))
def test_vanishing_sweep_matches_vanishing_check(config, seed, raw):
    p, n, r = config
    mu = random_kernel_measure(p, n, r, seed=seed)
    words = [tuple(w[:r]) for w in raw if sum(w[:r]) % 2]
    assert vanishing_sweep(mu, words) == [vanishing_check(mu, word) for word in words]


def test_sweeps_validate_like_their_oracles():
    mu = random_kernel_measure(3, 1, 2, seed=1)
    with pytest.raises(ValueError):
        moment_sweep(mu, [(0, 1)])
    with pytest.raises(ValueError):
        coset_sums(mu, [(0, 0, 1)], 2, (0,))
    with pytest.raises(ValueError):
        coset_identity_sweep(mu, [(1, -1)], 1)
    with pytest.raises(ValueError):
        vanishing_sweep(mu, [(1, 1)])
    with pytest.raises(ValueError, match="kernel"):
        vanishing_sweep(LevelMeasure.point_mass(3, 1, 1, (1,)), [(1,)])
