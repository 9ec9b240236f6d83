"""The four-factor rhombus product of a depth-r table.

Its deviation from 1 is the signed four-term combination of the table.  Each
factor reads its reindexing from ``measures.FOUR_TERM``'s index maps, as
``measures.four_term`` does, so ``check-rhombus`` compares two readings of
those maps; it does not test series multiplication.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

from .measures import FOUR_TERM, LevelMeasure, _four_term_maps

__all__ = ["rhombus_product"]


def rhombus_product(mu: LevelMeasure) -> NCSeries:
    """Four-factor depth-graded product of the table's series, one factor per
    ``FOUR_TERM`` entry in reverse order, truncated at depth r.

    The factor for (sign, scale, offset) is ``series.from_measure`` of the
    table j -> sign * mu(scale*j + offset), read from the entry's index map.
    Each factor's non-constant words have degree r and the product is
    truncated at r, so every cross product drops: the product is 1 plus the
    four signed factors' layers, the signed four-term combination of the
    table that the measure-side operator computes cell-wise.
    """
    # series loads here, not with this module, so `import mzvkit.cli` skips
    # it; the annotation above stays an unevaluated string
    from .series import from_measure

    maps = tuple(_four_term_maps(mu.modulus, mu.r))
    factors = (LevelMeasure._reduced(mu.p, mu.n, mu.r,
                                     [sign * mu.numerators[cell] for cell in cells], mu.denominator)
               for (sign, _, _), cells in zip(reversed(FOUR_TERM), reversed(maps)))
    return reduce(mul, (from_measure(factor, mu.r) for factor in factors))
