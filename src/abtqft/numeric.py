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
  :func:`quadratic_phase_sum`.  It reads every phase from a table equal to
  :func:`unit_phase_eval`, and sums over a trailing block of coordinates
  for all leading points at once by one inverse DFT (split-Fourier).
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


#: Largest root table :func:`quadratic_phase_sum` keeps in the cache; a
#: table holds 16 bytes per entry, so larger ones are built per call.
_BLOCK = 1 << 16

#: Groups of at most this many points are summed unsplit: below it the
#: fixed cost of a DFT outweighs what the split saves.
_UNSPLIT_MAX = 1 << 8


def _grid(moduli: Sequence[int]) -> np.ndarray:
    """All points of ``prod Z/n_i`` as rows, last coordinate fastest."""
    count = math.prod(moduli)
    points = np.empty((count, len(moduli)), dtype=np.int64)
    rem = np.arange(count, dtype=np.int64)
    for pos in range(len(moduli) - 1, -1, -1):
        rem, points[:, pos] = np.divmod(rem, moduli[pos])
    return points


def _split_point(moduli: Sequence[int]) -> int:
    """Number of leading coordinates :func:`quadratic_phase_sum` splits off:
    none for a group of at most ``_UNSPLIT_MAX`` points, else the most that
    keep the leading block no larger than the square root of the group."""
    total = math.prod(moduli)
    s, lead = 0, 1
    if total > _UNSPLIT_MAX:
        while lead * moduli[s] * lead * moduli[s] <= total:
            lead *= moduli[s]
            s += 1
    return s


def _values(points: np.ndarray, g: np.ndarray, b: np.ndarray, c: int,
            n: int) -> np.ndarray:
    """``x^T G x + b.x + c mod n`` for every row ``x`` of ``points``."""
    return (((points @ g + b) % n * points).sum(axis=1) + c) % n


def quadratic_phase_sum(gram: Sequence[Sequence[int]], moduli: Sequence[int],
                        modulus: int, linear: Optional[Sequence[int]] = None,
                        constant: int = 0) -> complex:
    """``sum over x in prod Z/n_i of exp(2 pi i (x^T G x + b.x + c) / N)``.

    ``x`` runs over the representatives ``0 <= x_i < n_i`` of the
    ``moduli``; ``N`` is the ``modulus``.  ``G``, ``b`` and ``c`` are reduced
    mod ``N`` as Python integers before they reach int64, and every product
    is reduced mod ``N`` before the next one, so intermediates stay below
    ``(m + 2) max(n_i, N)^2``, far inside int64 under the caps.

    Split-Fourier evaluation: write ``x = (x1, x2)`` with ``x1`` the first
    ``s`` coordinates (:func:`_split_point`).  The cross term of the form is
    ``y.x2`` with ``y = (G12 + G21^T)^T x1``, so the sum is

        sum_x1 w^{Q(x1) + b1.x1 + c} * F(y),
        F(y) = sum_x2 f(x2) w^{y.x2},   f(x2) = w^{Q(x2) + b2.x2},

    ``w = exp(2 pi i / N)``.  On trailing axis ``j`` the character
    ``w^{y_j x_j}`` has period ``P_j = N / d_j``, ``d_j`` the gcd of ``N``
    and the cross coefficients of ``j``; folding ``f`` onto ``P_j`` (after
    zero-padding to a multiple of ``P_j``, which a form well defined on the
    group never needs) turns ``F`` into one n-dimensional inverse DFT, read
    at ``y_j / d_j``.  With ``s = 0`` every period is 1 and the sum is
    ``f.sum()``.  This is exact algebra: every phase comes from the exact
    root table, and only the DFT and the sums round.  For ``T`` terms the
    worst-case float error is about ``eps * T * log2(T)`` (``eps`` the
    double-precision unit), below the ``1e-9 * sqrt(T)`` budget for every
    ``T`` up to about ``10**10``.
    """
    n = modulus
    m = len(moduli)
    g = np.array([[int(x) % n for x in row] for row in gram],
                 dtype=np.int64).reshape(m, m)
    b = np.array([int(x) % n for x in (linear or [0] * m)], dtype=np.int64)
    s = _split_point(moduli)
    table = _root_table(n) if n <= _BLOCK else _root_table.__wrapped__(n)
    sizes = tuple(moduli[s:])
    # Fold each trailing axis onto the period of its character.
    cross = (g[:s, s:] + g[s:, :s].T) % n
    steps = [math.gcd(n, *col) for col in cross.T.tolist()]
    periods = [n // d for d in steps]
    folds = [-(-size // p) for size, p in zip(sizes, periods)]
    f = np.zeros([r * p for r, p in zip(folds, periods)], dtype=complex)
    f[tuple(slice(size) for size in sizes)] = table[
        _values(_grid(sizes), g[s:, s:], b[s:], 0, n)].reshape(sizes)
    f = f.reshape([x for pair in zip(folds, periods) for x in pair]).sum(
        axis=tuple(range(0, 2 * len(sizes), 2)))
    if f.size > 1:  # a one-point DFT is the identity; skip its fixed cost
        f = np.fft.ifftn(f, norm="forward")
    # Read the DFT at each leading point's shift and contract.
    strides = [math.prod(periods[j + 1:]) for j in range(len(sizes))]
    lead = _grid(moduli[:s])
    shifts = (lead @ cross % n) // np.array(steps, dtype=np.int64) @ np.array(
        strides, dtype=np.int64)
    return complex(table[_values(lead, g[:s, :s], b[:s], int(constant) % n, n)]
                   @ f.ravel()[shifts])


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
