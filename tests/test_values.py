"""The immutable value classes: equality over their fields, hashing,
assignment, repr, keyword construction, normalized fields, and the
validation that runs at construction."""

from fractions import Fraction

import pytest

from mzvkit.euler import CongruenceVerdict, VanishingCertificate
from mzvkit.exact import INFINITY
from mzvkit.measures import Coset, LevelMeasure
from mzvkit.series import Alphabet, NCSeries
from mzvkit.synth import KernelBasis

ALPHABET = Alphabet(2, 1)
ONE = NCSeries.one(ALPHABET, 2)
ONE_PLUS_Y0 = NCSeries(ALPHABET, 2, {(): 1, (0,): 2})

# (class, keyword arguments, per field one changed argument, repr, hashable);
# a class with a dict field is not hashable
VALUES = [
    (VanishingCertificate, {"target": (1, 2), "combination": ((2, Fraction(-1, 4)),)},
     [{"target": (3, 2)}, {"combination": ((2, Fraction(1, 4)),)}],
     "VanishingCertificate(target=(1, 2), combination=((2, Fraction(-1, 4)),))", True),
    (CongruenceVerdict, {"valuation": 3, "threshold": 1},
     [{"valuation": INFINITY}, {"threshold": 2}],
     "CongruenceVerdict(valuation=3, threshold=1)", True),
    (Coset, {"base": (1, 0), "modulus_exponent": 1},
     [{"base": (0, 1)}, {"modulus_exponent": 2}],
     "Coset(base=(1, 0), modulus_exponent=1)", True),
    (LevelMeasure, {"p": 2, "n": 1, "r": 1, "values": (Fraction(1, 2), 3)},
     [{"p": 3, "values": (Fraction(1, 2), 3, 0)}, {"n": 0, "values": (Fraction(1, 2),)},
      {"r": 2, "values": (Fraction(1, 2), 3, 0, 0)}, {"values": (Fraction(1, 2), 2)},
      {"values": (Fraction(1, 3), 2)}],
     "LevelMeasure(p=2, n=1, r=1, numerators=(1, 6), denominator=2)", True),
    (Alphabet, {"p": 2, "n": 1},
     [{"p": 3}, {"n": 2}],
     "Alphabet(p=2, n=1)", True),
    (KernelBasis, {"p": 2, "n": 1, "r": 1, "vectors": ({0: 1},)},
     [{"p": 3}, {"n": 2}, {"r": 2}, {"vectors": ({1: 1},)}],
     "KernelBasis(p=2, n=1, r=1, vectors=({0: 1},))", False),
]
IDS = [case[0].__name__ for case in VALUES]


@pytest.mark.parametrize("cls,kwargs,changes,text,hashable", VALUES, ids=IDS)
def test_equality_is_over_the_fields(cls, kwargs, changes, text, hashable):
    value = cls(**kwargs)
    assert value == cls(**kwargs)
    assert value == cls(*kwargs.values())
    assert value != text
    assert type("Subclass", (cls,), {})(**kwargs) != value
    for change in changes:
        other = cls(**{**kwargs, **change})
        assert value != other and not value == other


@pytest.mark.parametrize("cls,kwargs,changes,text,hashable", VALUES, ids=IDS)
def test_hash_agrees_with_equality(cls, kwargs, changes, text, hashable):
    value = cls(**kwargs)
    if hashable:
        assert hash(value) == hash(cls(**kwargs))
        assert len({value, cls(**kwargs)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("cls,kwargs,changes,text,hashable", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(cls, kwargs, changes, text, hashable):
    value = cls(**kwargs)
    for name in [*kwargs, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**kwargs)


@pytest.mark.parametrize("cls,kwargs,changes,text,hashable", VALUES, ids=IDS)
def test_repr_names_the_fields(cls, kwargs, changes, text, hashable):
    assert repr(cls(**kwargs)) == text


def test_series_is_immutable_and_unhashable():
    with pytest.raises(AttributeError):
        ONE.degree_cap = 3
    with pytest.raises(TypeError):
        hash(ONE)
    assert ONE == NCSeries.one(ALPHABET, 2) and ONE != ONE_PLUS_Y0


def test_verdicts_hold_no_instance_dict():
    # a sweep holds one verdict per word
    verdict = CongruenceVerdict(1, 1)
    assert not hasattr(verdict, "__dict__")
    with pytest.raises(AttributeError):
        verdict.valuation = 2
    assert verdict == CongruenceVerdict(1, 1) and verdict.passed


def test_defaults_and_normalized_fields():
    assert Coset([1, 0], 1).base == (1, 0)
    mu = LevelMeasure(2, 1, 1, [Fraction(1, 2), 3])
    assert (mu.numerators, mu.denominator) == ((1, 6), 2)
    assert mu.values == (Fraction(1, 2), Fraction(3)) and mu.values is mu.values


INVALID = {
    "negative coset exponent": (lambda: Coset((0, 1), -1), "non-negative"),
    "alphabet prime": (lambda: Alphabet(4, 1), "prime"),
    "alphabet level": (lambda: Alphabet(2, -1), "level"),
    "table prime": (lambda: LevelMeasure(4, 1, 1, (0,) * 4), "prime"),
    "measure cells": (lambda: LevelMeasure(2, 1, 1, (1,)), "cells"),
}


@pytest.mark.parametrize("build,message", INVALID.values(), ids=INVALID)
def test_validation_runs_at_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()
