"""The four-factor rhombus product of a coefficient table.

Its deviation from 1 is the signed four-term combination of the table, the
series-side view of the operator that ``measures.FOUR_TERM`` writes down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from .measures import FOUR_TERM
from .series import Alphabet, LambdaTable, NCSeries, Word

__all__ = ["rhombus_product"]


def rhombus_product(table: LambdaTable) -> NCSeries:
    """Four-factor depth-graded product of the table's series, one factor per
    ``FOUR_TERM`` entry in reverse order, truncated at depth r.

    The factor for (sign, scale, offset) carries sign * coeff on each index
    pushed along the inverse map i -> scale*i - scale*offset, so the factors
    reindex by i+1, 1-i, -i, i with signs -, +, -, +.  The product's deviation
    from 1 is exactly the signed four-term combination of the table, which is
    what the measure-side operator computes cell-wise.
    """
    alphabet = Alphabet(table.p, table.n)
    modulus = alphabet.modulus

    def factor(sign: int, scale: int, offset: int) -> NCSeries:
        terms: dict[Word, Fraction] = {(): Fraction(1)}
        for idx, coeff in table.coeffs.items():
            word = tuple((scale * (i - offset)) % modulus for i in idx)
            terms[word] = sign * coeff
        return NCSeries(alphabet, table.r, terms)

    return reduce(mul, (factor(*term) for term in reversed(FOUR_TERM)))
