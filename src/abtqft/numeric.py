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
  ("ApproxComplex").  Such values are only ever compared through
  :func:`approx_eq` with an explicit tolerance; the standing budget is
  ``1e-9 * sqrt(number_of_summed_terms)`` because each summand is a unit
  complex number.
* Every exponential sum of the library (coloring sums, torsion Gauss sums,
  the reciprocity right side, ``A+-``) goes through the one kernel
  :func:`quadratic_phase_sum`, which counts residues exactly and contracts
  the counts against the values :func:`unit_phase_eval` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

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

    def __pow__(self, n: int) -> "UnitPhase":
        return UnitPhase(n * self.angle)

    def conjugate(self) -> "UnitPhase":
        return UnitPhase(-self.angle)

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


@lru_cache(maxsize=64)
def _root_table(n: int) -> np.ndarray:
    """``exp(2 pi i r / n)`` for ``r`` in ``range(n)``, equal bit for bit to
    :func:`unit_phase_eval` of ``r / n`` (same quarter-turn split, same
    float operations, vectorised).  A table holds 16 bytes per entry, so
    :func:`quadratic_phase_sum` caches only tables of at most ``_BLOCK``
    entries and builds larger ones per call through ``__wrapped__``."""
    r = np.arange(n, dtype=np.int64)
    quarter = (4 * r) // n
    theta = 2.0 * math.pi * ((4 * r - quarter * n) / (4 * n))
    c, s = np.cos(theta), np.sin(theta)
    table = np.empty(n, dtype=complex)
    table.real = np.choose(quarter, (c, -s, -c, s))
    table.imag = np.choose(quarter, (s, c, -s, -c))
    table.flags.writeable = False  # shared by every caller through the cache
    return table


#: Points of the trailing block that :func:`quadratic_phase_sum` enumerates
#: at once; bounds its working memory.
_BLOCK = 1 << 16


def _grid(moduli: Sequence[int]) -> np.ndarray:
    """All points of ``prod Z/n_i`` as rows, last coordinate fastest."""
    count = math.prod(moduli)
    points = np.empty((count, len(moduli)), dtype=np.int64)
    rem = np.arange(count, dtype=np.int64)
    for pos in range(len(moduli) - 1, -1, -1):
        rem, points[:, pos] = np.divmod(rem, moduli[pos])
    return points


def quadratic_phase_sum(gram: Sequence[Sequence[int]], moduli: Sequence[int],
                        modulus: int, linear: Optional[Sequence[int]] = None,
                        constant: int = 0) -> complex:
    """``sum over x in prod Z/n_i of exp(2 pi i (x^T G x + b.x + c) / N)``.

    ``x`` runs over the representatives ``0 <= x_i < n_i`` of the
    ``moduli``; ``N`` is the ``modulus``.  ``G``, ``b`` and ``c`` are reduced
    mod ``N`` as Python integers before they reach int64, and every product
    is reduced mod ``N`` before the next one, so intermediates stay below
    ``(m + 2) max(n_i, N)^2``, far inside int64 under the caps.  The
    quadratic values of a trailing block of coordinates (at most ``_BLOCK``
    points, at least the last coordinate) are computed once; each point of
    the leading coordinates only shifts them by a linear term and a constant.
    """
    n = modulus
    m = len(moduli)
    g = np.array([[int(x) % n for x in row] for row in gram],
                 dtype=np.int64).reshape(m, m)
    b = np.array([int(x) % n for x in (linear or [0] * m)], dtype=np.int64)
    s = max(m - 1, 0)
    block = moduli[s] if m else 1
    while s > 0 and block * moduli[s - 1] <= _BLOCK:
        s -= 1
        block *= moduli[s]
    inner, outer = _grid(moduli[s:]), _grid(moduli[:s])
    inner_q = (((inner @ g[s:, s:] % n) * inner).sum(axis=1) + inner @ b[s:]) % n
    outer_q = (((outer @ g[:s, :s] % n) * outer).sum(axis=1) + outer @ b[:s]
               + int(constant) % n) % n
    shifts = outer @ ((g[:s, s:] + g[s:, :s].T) % n) % n
    counts = np.zeros(n, dtype=np.int64)
    for q0, shift in zip(outer_q, shifts):
        counts += np.bincount((inner_q + inner @ shift + q0) % n, minlength=n)
    table = _root_table(n) if n <= _BLOCK else _root_table.__wrapped__(n)
    return complex(counts @ table)


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

    def inverse(self) -> "PolarValue":
        if self.magnitude_squared == 0:
            raise ZeroDivisionError("cannot invert a zero PolarValue")
        return PolarValue(1 / self.magnitude_squared, self.phase.conjugate())

    def conjugate(self) -> "PolarValue":
        return PolarValue(self.magnitude_squared, self.phase.conjugate())

    def is_zero(self) -> bool:
        return self.magnitude_squared == 0

    @staticmethod
    def zero() -> "PolarValue":
        return PolarValue(Fraction(0), ONE_PHASE)

    @staticmethod
    def one() -> "PolarValue":
        return PolarValue(Fraction(1), ONE_PHASE)


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
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def unit_phase_to_json(p: UnitPhase) -> dict:
    return {"angle": rational_to_json(p.angle)}


def unit_phase_from_json(obj: dict) -> UnitPhase:
    return UnitPhase(rational_from_json(obj["angle"]))


def polar_to_json(v: PolarValue) -> dict:
    return {"mag2": rational_to_json(v.magnitude_squared),
            "phase": rational_to_json(v.phase.angle)}


def polar_from_json(obj: dict) -> PolarValue:
    return PolarValue(rational_from_json(obj["mag2"]),
                      UnitPhase(rational_from_json(obj["phase"])))


def approx_to_json(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def approx_from_json(pair: list) -> complex:
    return complex(pair[0], pair[1])
