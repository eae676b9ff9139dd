"""Exact phase and magnitude arithmetic for root-of-unity valued invariants.

Conventions used throughout the library:

* ``Rational`` is :class:`fractions.Fraction` (always lowest terms, positive
  denominator).
* A :class:`UnitPhase` stores a rational ``angle`` reduced into ``[0, 1)`` and
  denotes the complex number ``exp(2*pi*i*angle)``.  Every root of unity that
  appears in a closed-form invariant has an angle with explicitly bounded
  denominator, so group identities between phases are decidable exactly.
* A :class:`PolarValue` stores ``(magnitude_squared, phase)`` and denotes
  ``sqrt(magnitude_squared) * exp(2*pi*i*angle)``.  The square root is kept
  unevaluated so values such as ``sqrt(k) * exp(pi*i/4)`` stay exact.
* Brute-force sums over many colorings accumulate in an ordinary ``complex``
  ("ApproxComplex").  Every check of such values compares them against an
  explicit tolerance, never with ``==``: it writes out ``abs(a - b) <= tol``
  or compares a deviation that it also reports (:func:`approx_eq` is the
  rule as a helper).  The standing budget is ``1e-9 *
  sqrt(number_of_summed_terms)`` because each summand is a unit complex
  number.
* Every exponential sum of the library but a one-dimensional torsion Gauss
  sum (:func:`abtqft.quadmod.cyclic_gauss_sum`, exact) goes through the
  one kernel :func:`abtqft.phasesums.quadratic_phase_sums`, whose root
  tables equal :func:`unit_phase_eval` bit for bit.  That module holds all of the
  library's numpy arithmetic; this one keeps only the exact phase types,
  the JSON codecs and the tolerance policy, and imports no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction
ApproxComplex = complex

RationalLike = Union[Fraction, int]

#: Base of the accumulation-error budget for brute-force sums.
SUM_TOLERANCE_BASE = 1e-9


def sum_tolerance(n_terms: int, base: float = SUM_TOLERANCE_BASE) -> float:
    """Error budget for a sum of ``n_terms`` unit complex numbers."""
    return base * math.sqrt(max(n_terms, 1))


@dataclass(frozen=True)
class UnitPhase:
    """The unit complex number ``exp(2*pi*i*angle)`` with exact rational angle.

    The angle is reduced modulo 1 into ``[0, 1)`` on construction, so two
    phases are equal iff they are equal as complex numbers.
    """

    angle: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "angle", Fraction(self.angle) % 1)

    def __mul__(self, other: "UnitPhase") -> "UnitPhase":
        return UnitPhase(self.angle + other.angle)

    @staticmethod
    def identity() -> "UnitPhase":
        return UnitPhase(Fraction(0))


ONE_PHASE = UnitPhase.identity()


def unit_phase_eval(p: UnitPhase) -> complex:
    """Evaluate ``exp(2*pi*i*angle)`` in double precision.

    Quarter turns are handled exactly (the angle is split off an exact
    multiple of 1/4 before any floating-point rounding), so phases such as
    1/2 -> -1 and 1/4 -> i evaluate without error.
    """
    a = p.angle
    quarter = int(4 * a)          # a in [0,1) so quarter in {0,1,2,3}
    r = a - Fraction(quarter, 4)  # in [0, 1/4)
    theta = 2.0 * math.pi * float(r)
    c, s = math.cos(theta), math.sin(theta)
    if quarter == 0:
        return complex(c, s)
    if quarter == 1:
        return complex(-s, c)
    if quarter == 2:
        return complex(-c, -s)
    return complex(s, -c)


@dataclass(frozen=True)
class PolarValue:
    """``sqrt(magnitude_squared) * exp(2*pi*i*angle)`` with both parts exact.

    The phase is normalized to 0 when the magnitude vanishes, so equality on
    ``(magnitude_squared, phase)`` coincides with equality of the denoted
    complex numbers.
    """

    magnitude_squared: Fraction = Fraction(1)
    phase: UnitPhase = ONE_PHASE

    def __post_init__(self) -> None:
        mag2 = Fraction(self.magnitude_squared)
        if mag2 < 0:
            raise ValueError("magnitude_squared must be >= 0")
        object.__setattr__(self, "magnitude_squared", mag2)
        if mag2 == 0:
            object.__setattr__(self, "phase", ONE_PHASE)

    def __mul__(self, other: "PolarValue") -> "PolarValue":
        return PolarValue(self.magnitude_squared * other.magnitude_squared,
                          self.phase * other.phase)


def polar_to_approx(v: PolarValue) -> complex:
    """Convert an exact polar value to double precision."""
    return math.sqrt(float(v.magnitude_squared)) * unit_phase_eval(v.phase)


def approx_eq(a: complex, b: complex, tol: float) -> bool:
    """True iff ``|a - b| <= tol``.  Approximate values are never compared
    with exact equality."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return abs(complex(a) - complex(b)) <= tol


# ---------------------------------------------------------------------------
# JSON encoding.  Rationals travel as "p/q" strings, phases as angle strings,
# approximate values as [re, im] pairs.

def rational_to_json(x: RationalLike) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def rational_from_json(s: str) -> Fraction:
    if "/" in s:
        num, den = map(int, s.split("/"))
        if not den:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def polar_to_json(v: PolarValue) -> dict:
    return {"mag2": rational_to_json(v.magnitude_squared),
            "phase": rational_to_json(v.phase.angle)}


def polar_from_json(obj: dict) -> PolarValue:
    return PolarValue(rational_from_json(obj["mag2"]),
                      UnitPhase(rational_from_json(obj["phase"])))


def approx_to_json(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]
