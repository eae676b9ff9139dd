"""Abelian surgery invariants of 3-manifolds at even levels.

Exact Gauss-sum evaluation of surgery presentations, the torsion-linking-
form route to the same invariants, Kirby-move and reciprocity verification,
and the torus-boundary structure (state vectors, modular data, Maslov and
weight bookkeeping).
"""

from .errors import (
    AbtqftError,
    DegenerateMatrix,
    EnumerationTooLarge,
    GroupTooLarge,
    InconsistentPhase,
    IndexOutOfRange,
    NotLagrangian,
)
from .intlinalg import IntSymMatrix
from .numeric import ApproxComplex, PolarValue, Rational, UnitPhase, approx_eq
from .surgery import KirbyMove, SurgeryPresentation, rt_raw_closed

__version__ = "0.1.0"

__all__ = [
    "AbtqftError",
    "ApproxComplex",
    "DegenerateMatrix",
    "EnumerationTooLarge",
    "GroupTooLarge",
    "InconsistentPhase",
    "IndexOutOfRange",
    "IntSymMatrix",
    "KirbyMove",
    "NotLagrangian",
    "PolarValue",
    "Rational",
    "SurgeryPresentation",
    "UnitPhase",
    "approx_eq",
    "rt_raw_closed",
    "__version__",
]
