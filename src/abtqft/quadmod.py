"""Finite quadratic modules: torsion groups with Q/Z-valued quadratic data.

A finite quadratic module is a finite Abelian group ``T`` together with a
quadratic function ``q: T -> Q/Z`` refining a symmetric linking pairing
``lam``:

    q(u + v) - q(u) - q(v) = lam(u, v)   (mod 1),   q(0) = 0.

For a surgery matrix with regular block ``L_reg`` the module lives on
``T = Z^rho / L_reg Z^rho`` with

    q([x])      = (1/2) x^T L_reg^{-1} x   (mod 1),
    lam([x],[y]) =        x^T L_reg^{-1} y (mod 1).

Every module has one representation: an integer Gram matrix ``G`` in the
coordinates of the cyclic generators, over the group exponent ``e``, with

    q(a) = a^T G a / (2e),   lam(a, b) = a^T G b / e   (mod 1).

``q`` itself is only well defined on cosets up to half-integers; for every
even ``k`` the combination ``k * q`` is well defined mod 1, which is exactly
what the level-``k`` Gauss sum consumes.  That sum goes through the
library's one exponential-sum kernel,
:func:`abtqft.numeric.quadratic_phase_sum`, with the orders of the cyclic
factors as moduli and ``2e`` as modulus; for a group of more than a few
hundred elements it sums over the trailing cyclic factors by one inverse
DFT (split-Fourier) instead of element by element.

Phase convention: a stored exponent ``e`` denotes the complex number
``exp(2*pi*i*e)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .errors import GroupTooLarge
from .intlinalg import (
    GROUP_ENUMERATION_CAP,
    CokernelGroup,
    IntSymMatrix,
    _solve,
    cokernel,
    inverse_form_value,
    regular_decomposition,
)
from .numeric import UnitPhase, quadratic_phase_sum, rational_from_json, rational_to_json


def _form(gram: Sequence[Sequence[int]], u: Sequence[int], v: Sequence[int]) -> int:
    return sum(ui * row[j] * v[j] for ui, row in zip(u, gram)
               for j in range(len(v)))


@dataclass(frozen=True)
class FiniteQuadraticModule:
    """A finite Abelian group with an exact quadratic refinement.

    ``gram`` is the integer matrix ``G`` with ``q(a) = a^T G a / (2e)`` and
    ``lam(a, b) = a^T G b / e`` (mod 1) on coefficient tuples against the
    cyclic generators, ``e`` the exponent of the group; it is stored reduced
    mod ``2e``.  For a module from a surgery matrix, ``G_ij = e * g_i^T
    L_reg^{-1} g_j`` for the generator lifts ``g_i``, and ``lattice`` keeps
    ``L_reg`` so that values of explicit lifts can be checked against it.

    ``q`` is a function of the tuple through its integer lift: on blocks
    with odd diagonal, ``q`` itself changes by half-integers across other
    lifts of the same coset (the pairing ``lam`` and, for every even level
    ``k``, the exponentials ``exp(2 pi i k q)`` are coset-independent; that
    is all the Gauss sums consume).  Accordingly :meth:`add` adds tuples
    without reducing modulo the cyclic orders, which makes lifts strictly
    additive and the refinement identity

        q(u + v) - q(u) - q(v) = lam(u, v)   (mod 1)

    an exact rational identity on tuples.
    """

    group: CokernelGroup
    gram: Tuple[Tuple[int, ...], ...]
    lattice: Optional[IntSymMatrix] = None

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def exponent(self) -> int:
        return math.lcm(*self.group.cyclic_orders)

    def elements(self, cap: int = GROUP_ENUMERATION_CAP):
        return self.group.elements(cap)

    def q(self, element: Sequence[int]) -> Fraction:
        """Quadratic value of a group element, reduced into [0, 1)."""
        return Fraction(_form(self.gram, element, element), 2 * self.exponent) % 1

    def q_of_lift(self, x: Sequence[int]) -> Fraction:
        """Quadratic value of an explicit integer lift in ``Z^rho``."""
        if self.lattice is None:
            raise ValueError("module carries no ambient lattice data")
        return (inverse_form_value(self.lattice, x) / 2) % 1

    def linking(self, u: Sequence[int], v: Sequence[int]) -> Fraction:
        """Linking pairing lam(u, v), reduced into [0, 1)."""
        return Fraction(_form(self.gram, u, v), self.exponent) % 1

    def add(self, u: Sequence[int], v: Sequence[int]) -> Tuple[int, ...]:
        """Tuple addition without reduction, so lifts add exactly."""
        return tuple(a + b for a, b in zip(u, v))

    def zero(self) -> Tuple[int, ...]:
        return tuple(0 for _ in self.group.cyclic_orders)

    def to_json(self) -> dict:
        t = len(self.gram)
        e = self.exponent
        return {
            "orders": list(self.group.cyclic_orders),
            "q_gen": [[i, rational_to_json(Fraction(self.gram[i][i], 2 * e) % 1)]
                      for i in range(t)],
            "lambda_gen": [[i, j, rational_to_json(Fraction(self.gram[i][j], e) % 1)]
                           for i in range(t) for j in range(i, t)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteQuadraticModule":
        """Inverse of :meth:`to_json`: ``G_ii = 2e q(g_i)`` and, off the
        diagonal, ``G_ij = e lam(g_i, g_j)``."""
        orders = tuple(int(d) for d in obj["orders"])
        e = math.lcm(*orders)
        gram = [[0] * len(orders) for _ in orders]
        for i, val in obj["q_gen"]:
            gram[i][i] = _integral(2 * e * rational_from_json(val))
        for i, j, val in obj["lambda_gen"]:
            if i != j:
                gram[i][j] = gram[j][i] = _integral(e * rational_from_json(val))
        group = CokernelGroup(orders, ((),) * len(orders), 0)
        return cls(group, tuple(tuple(row) for row in gram))


def _integral(num, den: int = 1) -> int:
    """``num / den`` for an integer or fraction ``num``; it must be whole."""
    q, r = divmod(num, den)
    if r:
        raise ValueError("quadratic data must have denominator dividing 2e")
    return q


def from_surgery(L: IntSymMatrix, cap: int = GROUP_ENUMERATION_CAP) -> FiniteQuadraticModule:
    """Finite quadratic module of a surgery matrix (degenerate ``L`` allowed;
    only the regular block enters)."""
    return from_regular_block(regular_decomposition(L).regular, cap)


def from_regular_block(reg: IntSymMatrix,
                       cap: int = GROUP_ENUMERATION_CAP) -> FiniteQuadraticModule:
    """Finite quadratic module of a nondegenerate symmetric block.

    The Gram matrix is ``G = e R^T L_reg^{-1} R`` for the matrix ``R`` of
    generator lifts, reduced mod ``2e``: one fraction-free solve gives
    ``L_reg^{-1} R = X / p``, and ``G = e R^T X / p`` divides exactly.
    """
    group = cokernel(reg)
    if group.order > cap:
        raise GroupTooLarge(
            f"torsion group of order {group.order} exceeds cap {cap}")
    e = math.lcm(*group.cyclic_orders)
    gens = group.generator_reps
    lifts = [[g[r] for g in gens] for r in range(reg.m)]
    solved, p = _solve(reg.rows(), lifts)  # L_reg^{-1} R = X / p
    gram = tuple(
        tuple(_integral(e * sum(x * row[j] for x, row in zip(g, solved)), p)
              % (2 * e) for j in range(len(gens)))
        for g in gens)
    return FiniteQuadraticModule(group, gram, reg)


def gauss_sum(module: FiniteQuadraticModule, k: int,
              cap: int = GROUP_ENUMERATION_CAP) -> complex:
    """Normalized level-``k`` Gauss sum ``|T|^{-1/2} sum_x exp(2 pi i k q(x))``.

    Requires even ``k`` (oddness would make ``k * q`` ill defined on cosets).
    """
    if k <= 0 or k % 2 != 0:
        raise ValueError("level k must be a positive even integer")
    if module.order > cap:
        raise GroupTooLarge(
            f"torsion group of order {module.order} exceeds cap {cap}")
    scaled = [[k * x for x in row] for row in module.gram]
    total = quadratic_phase_sum(scaled, module.group.cyclic_orders,
                                2 * module.exponent)
    return total / math.sqrt(module.order)


@dataclass(frozen=True)
class CyclicQuadraticData:
    """The standard cyclic module at even level ``k``.

    The labels are ``Z_k``; the twist exponent of label ``x`` is
    ``x^2 / (2k)`` mod 1 (so the twist is ``exp(pi i x^2 / k)``) and the
    braiding bicharacter exponent is ``x y / k`` mod 1.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k <= 0 or self.k % 2 != 0:
            raise ValueError("level k must be a positive even integer")

    def twist_exponent(self, x: int) -> Fraction:
        return Fraction(x * x, 2 * self.k) % 1

    def twist_phase(self, x: int) -> UnitPhase:
        return UnitPhase(self.twist_exponent(x))


def bicharacter(data: CyclicQuadraticData, x: int, y: int) -> UnitPhase:
    """The nondegenerate pairing phase ``x y / k`` mod 1 on ``Z_k``."""
    if not (0 <= x < data.k and 0 <= y < data.k):
        raise ValueError("labels must lie in range(k)")
    return UnitPhase(Fraction(x * y, data.k))
