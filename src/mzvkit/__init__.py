"""Exact-arithmetic toolkit for depth-graded coefficient identities.

Layers: exact scalars (`exact`), truncated non-commutative series (`series`),
finite-level measures (`measures`), the rhombus product (`paths`),
parity-vanishing certificates and congruence checks (`euler`), test-data
synthesis (`synth`), and a deterministic JSON-reporting CLI (`cli`).
"""

__version__ = "0.1.0"
