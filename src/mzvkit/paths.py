"""The four-factor rhombus product of a depth-r table.

Its deviation from 1 is the signed four-term combination of the table, so
``check-rhombus`` compares two encodings of the reindexing that
``measures.FOUR_TERM`` writes down; it does not test series multiplication.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .measures import FOUR_TERM, LevelMeasure
from .series import Alphabet, NCSeries

__all__ = ["rhombus_product"]


def rhombus_product(mu: LevelMeasure) -> NCSeries:
    """Four-factor depth-graded product of the table's series, one factor per
    ``FOUR_TERM`` entry in reverse order, truncated at depth r.

    The factor for (sign, scale, offset) carries sign * value on each nonzero
    cell pushed along the inverse map i -> scale*i - scale*offset, so the
    factors reindex by i+1, 1-i, -i, i with signs -, +, -, +.  Each factor's
    non-constant words have degree r and the product is truncated at r, so
    every cross product drops: the product is 1 plus the four signed factors'
    layers, the signed four-term combination of the table that the
    measure-side operator computes cell-wise.
    """
    alphabet = Alphabet(mu.p, mu.n)
    modulus = alphabet.modulus
    support = [(point, value) for point, value in zip(mu.points(), mu.values) if value]

    def factor(sign: int, scale: int, offset: int) -> NCSeries:
        terms = [(tuple((scale * (i - offset)) % modulus for i in point), sign * value)
                 for point, value in support]
        return NCSeries(alphabet, mu.r, [((), 1), *terms])

    return reduce(mul, (factor(*term) for term in reversed(FOUR_TERM)))
