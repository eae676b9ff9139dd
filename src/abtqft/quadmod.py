"""Finite quadratic modules: torsion groups with Q/Z-valued quadratic data.

A finite quadratic module is a finite Abelian group ``T`` together with a
quadratic function ``q: T -> Q/Z`` refining a symmetric linking pairing
``lam``:

    q(u + v) - q(u) - q(v) = lam(u, v)   (mod 1),   q(0) = 0.

For a surgery matrix with regular block ``L_reg`` the module lives on
``T = Z^rho / L_reg Z^rho`` with

    q([x])      = (1/2) x^T L_reg^{-1} x   (mod 1),
    lam([x],[y]) =        x^T L_reg^{-1} y (mod 1);

it is read off ``L`` itself, with no block formed: ``T`` is the torsion of
``Z^m / L Z^m``, and its cyclic orders and one generator lift per order,
in the rational column span of ``L``, come from the one Smith form of
:func:`abtqft.intlinalg.regular_decomposition`.

A module is two records: the cyclic orders ``d1 | d2 | ...`` of ``T``,
from which its order, exponent ``e`` and elements are read, and an integer
Gram matrix ``G`` in the coordinates of the cyclic generators, with

    q(a) = a^T G a / (2e),   lam(a, b) = a^T G b / e   (mod 1).

``q`` itself is only well defined on cosets up to half-integers; for every
even ``k`` the combination ``k * q`` is well defined mod 1, which is exactly
what the level-``k`` Gauss sum consumes.  Every Gauss sum goes through one
function, :func:`gauss_sums`, which takes a batch of ``(module, k)`` pairs:
it checks the level and the group cap of every pair first.  A pair on a
trivial or cyclic group ``Z/n`` is then the classical one-dimensional
Gauss sum of ``a = (k/2) g`` mod ``n``, which :func:`cyclic_gauss_sum`
gives in closed form, exactly, with the Jacobi symbols of
:func:`jacobi_symbol`.  The pairs of each other group (one tuple of cyclic
orders) go to the library's one exponential-sum kernel,
:func:`abtqft.phasesums.quadratic_phase_sums`, as one batch, with the
cyclic orders as moduli and ``2e`` as modulus; for a group of more than a
few hundred elements the kernel sums over the trailing cyclic factors by
one inverse DFT (split-Fourier) instead of element by element.  That
module, and with it numpy, is imported only when such a pair is left and
every pair has passed its checks.  The cap applies to cyclic groups too,
so every value stays in the range where the tests hold the closed form to
the kernel.

Even levels are the one level rule, :func:`check_level`, and groups of at
most :data:`GROUP_ENUMERATION_CAP` elements the one group rule,
:func:`check_group_order`; :func:`abtqft.compare.cs_closed_many` applies
both as soon as ``|T|`` is known (``|det L|`` for nondegenerate ``L``, the
decomposition's order otherwise), before the Gram solve of
:func:`from_decomposition`.  The standard module ``(Z_k, q_k)`` is
:func:`cyclic_module`, that of the ``k``-framed unknot.

:func:`gauss_sums` is the sum with the positive exponent ``exp(+2 pi i k
q)``.  The torsion route of :func:`abtqft.compare.cs_closed_many` and the
reciprocity check take its complex conjugate, the sign that
explicit-signature reciprocity produces; :mod:`abtqft.compare` says why the
positive sign cannot be used there.

Phase encoding: a stored exponent ``e`` denotes the complex number
``exp(2*pi*i*e)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import DegenerateMatrix, GroupTooLarge
from .intlinalg import (
    IntSymMatrix,
    RegularDecomposition,
    eliminate_symmetric,
    rank,
    regular_decomposition,
)
from .numeric import ROOTS8

#: Largest torsion group :func:`gauss_sums` sums over.
GROUP_ENUMERATION_CAP = 10 ** 6


def check_level(k: int) -> None:
    """Refuse levels other than even ``k >= 2``: exactly those where ``q_k``
    is well defined on ``Z_k`` and ``k * q`` on every torsion module."""
    if k < 2 or k % 2 != 0:
        raise ValueError("level k must be an even integer >= 2")


def check_group_order(order: int) -> None:
    """Refuse a torsion group of more than :data:`GROUP_ENUMERATION_CAP`
    elements, the groups :func:`gauss_sums` does not sum over."""
    if order > GROUP_ENUMERATION_CAP:
        raise GroupTooLarge(f"torsion group of order {order} "
                            f"exceeds cap {GROUP_ENUMERATION_CAP}")


def _form(gram: Sequence[Sequence[int]], u: Sequence[int], v: Sequence[int]) -> int:
    return sum(ui * row[j] * v[j] for ui, row in zip(u, gram)
               for j in range(len(v)))


@dataclass(frozen=True)
class FiniteQuadraticModule:
    """A finite Abelian group with an exact quadratic refinement.

    ``cyclic_orders`` are the orders ``d1 | d2 | ...`` of the cyclic
    factors of the group, and an element is a coefficient tuple ``(a1, ...,
    at)`` against their generators.  ``gram`` is the integer matrix ``G``
    with ``q(a) = a^T G a / (2e)`` and ``lam(a, b) = a^T G b / e`` (mod 1)
    on such tuples, ``e`` the exponent of the group; it is stored reduced
    mod ``2e``.  For a module from a surgery matrix, ``G_ij = e * g_i^T
    L^+ g_j`` for the generator lifts ``g_i`` (:func:`from_decomposition`).

    ``q`` is a function of the tuple through its integer lift: on blocks
    with odd diagonal, ``q`` itself changes by half-integers across other
    lifts of the same coset (the pairing ``lam`` and, for every even level
    ``k``, the exponentials ``exp(2 pi i k q)`` are coset-independent; that
    is all the Gauss sums consume).  Accordingly tuples add without reducing
    modulo the cyclic orders, which makes lifts strictly additive and the
    refinement identity

        q(u + v) - q(u) - q(v) = lam(u, v)   (mod 1)

    an exact rational identity on tuples.
    """

    cyclic_orders: Tuple[int, ...]
    gram: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return math.prod(self.cyclic_orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.cyclic_orders)

    def q(self, element: Sequence[int]) -> Fraction:
        """Quadratic value of a group element, reduced into [0, 1)."""
        return Fraction(_form(self.gram, element, element), 2 * self.exponent) % 1

    def linking(self, u: Sequence[int], v: Sequence[int]) -> Fraction:
        """Linking pairing lam(u, v), reduced into [0, 1)."""
        return Fraction(_form(self.gram, u, v), self.exponent) % 1


def _integral(num: int, den: int) -> int:
    """``num / den``, the division that ends the Gram solve of
    :func:`from_decomposition`.  It is exact because ``e g_j`` lies in ``L
    Z^m`` for every lift ``g_j``, so a remainder means a broken
    decomposition."""
    q, r = divmod(num, den)
    if r:
        raise ValueError("the Gram solve of a torsion module "
                         "did not divide exactly")
    return q


def from_surgery(L: IntSymMatrix) -> FiniteQuadraticModule:
    """Finite quadratic module of a surgery matrix (degenerate ``L``
    allowed; the null directions take no part)."""
    return from_decomposition(regular_decomposition(L))


def from_decomposition(rd: RegularDecomposition) -> FiniteQuadraticModule:
    """Finite quadratic module of a regular decomposition.

    The Gram matrix is ``G = e R^T L^+ R`` for the matrix ``R`` of
    generator lifts, reduced mod ``2e``; ``L^+`` is any rational inverse of
    ``L`` on its column span, which holds ``R``, and ``G`` equals ``e R'^T
    L_reg^{-1} R'`` for the lifts ``R'`` of the same classes on the regular
    block.  :func:`eliminate_symmetric` runs on all ``m`` leading rows of
    the bordered matrix ``[[L, R], [R^T, 0]]``.  A row of the radical of
    ``L`` takes no pivot, and its border entries vanish because ``R`` lies
    in the column span; the trailing block ends as ``p (-R^T L^+ R)`` with
    ``p`` the last pivot, so ``G = -e T / p`` divides exactly.  A pivot
    count other than the rank ``m - nullity`` raises
    :class:`~abtqft.errors.DegenerateMatrix`.

    A trivial group has no lifts, so no Gram and no elimination: its pivot
    count is the rank that ``L`` keeps from its signature elimination
    (:func:`abtqft.intlinalg.rank`, already run for the Smith form's
    determinant), checked against ``m - nullity`` the same way.
    """
    L, gens = rd.matrix, rd.generator_reps
    m, t = L.m, len(gens)
    if gens:
        bordered = [[*row, *col] for row, col in zip(L.entries, zip(*gens))]
        bordered += [[*g] + [0] * t for g in gens]
        _, pivots, p = eliminate_symmetric(bordered, m)
        trailing = bordered[m:]
    else:  # a trivial group: no lifts, so no Gram and no elimination
        pivots, trailing = rank(L), []
    if pivots != m - rd.nullity:
        raise DegenerateMatrix(f"matrix of nullity {rd.nullity} "
                               f"has rank {pivots}")
    e = math.lcm(*rd.cyclic_orders)
    gram = [[0] * t for _ in range(t)]
    for i, row in enumerate(trailing):  # its upper triangle, mirrored below
        for j in range(i, t):
            gram[i][j] = gram[j][i] = _integral(-e * row[m + j], p) % (2 * e)
    return FiniteQuadraticModule(rd.cyclic_orders, tuple(map(tuple, gram)))


def jacobi_symbol(a: int, n: int) -> int:
    """The Jacobi symbol ``(a/n)`` of an integer ``a`` and an odd ``n >= 1``,
    by quadratic reciprocity and the supplement for 2 (0 when ``a`` and ``n``
    share a factor)."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def cyclic_gauss_sum(a: int, n: int) -> Tuple[int, int]:
    """The normalized Gauss sum ``n^{-1/2} sum_{x mod n} exp(2 pi i a x^2 /
    n)`` in closed form, as ``(m2, j)`` with the sum ``sqrt(m2) exp(2 pi i j
    / 8)`` (``(0, 0)`` when it vanishes).

    With ``d = gcd(a, n)``, ``c = n / d`` and ``a' = a / d`` (``d = n`` for
    ``a = 0``), the sum is ``d G(a', c) / sqrt(n)`` for the classical sum
    ``G`` of a unit ``a'`` mod ``c`` (Gauss; Berndt, Evans and Williams,
    *Gauss and Jacobi Sums*, 1998, ch. 1):

    * ``c`` odd: ``G = (a'/c) eps_c sqrt(c)``, with ``eps_c`` 1 for ``c = 1
      mod 4`` and ``i`` for ``c = 3 mod 4``;
    * ``c = 2 mod 4``: ``G = 0``;
    * ``c = 0 mod 4``: ``G = (c/a') (1 + i) eps_{a'}^{-1} sqrt(c)``.

    ``(./.)`` is :func:`jacobi_symbol`; ``c = 1`` (``a = 0 mod n``) is the
    odd case with ``m2 = n``.
    """
    a %= n
    d = math.gcd(a, n)
    c, a = n // d, a // d
    if c % 4 == 2:
        return 0, 0
    if c % 2:
        return d, 2 * (c % 4 == 3) + 4 * (jacobi_symbol(a, c) == -1)
    return 2 * d, ((1 if a % 4 == 1 else 7)
                   + 4 * (jacobi_symbol(c, a) == -1)) % 8


def gauss_sums(pairs: Sequence[Tuple[FiniteQuadraticModule, int]]
               ) -> List[complex]:
    """Normalized level-``k`` Gauss sum ``|T|^{-1/2} sum_x exp(2 pi i k
    q(x))`` of each ``(module, k)`` pair.

    Every pair must have an even level (:func:`check_level`) and ``|T|`` at
    most :data:`GROUP_ENUMERATION_CAP` (:func:`check_group_order`); both are
    checked for every pair, in the order of ``pairs``, before any sum runs,
    so the first refused pair is the one a loop over batches of one
    refuses.  On a trivial or cyclic group ``Z/n`` with Gram ``(g)`` the sum
    is the classical one of ``a = (k/2) g`` mod ``n``, in closed form
    (:func:`cyclic_gauss_sum`).  The pairs of each other group, that is of
    one tuple of several cyclic orders (which fixes the modulus ``2e``), go
    to :func:`abtqft.phasesums.quadratic_phase_sums` as one batch, and
    numpy is loaded only when there is such a pair.  A value is the same
    bits in any batch.
    """
    classes: Dict[Tuple[int, ...], List[int]] = {}
    cyclic: List[int] = []
    for i, (module, k) in enumerate(pairs):
        check_level(k)
        check_group_order(module.order)
        if len(module.cyclic_orders) <= 1:
            cyclic.append(i)
        else:
            classes.setdefault(module.cyclic_orders, []).append(i)
    sums = [0j] * len(pairs)
    for i in cyclic:
        module, k = pairs[i]
        g = module.gram[0][0] if module.gram else 0
        m2, j = cyclic_gauss_sum(k // 2 * g, module.order)
        sums[i] = math.sqrt(m2) * ROOTS8[j]
    if classes:
        from . import phasesums
    for orders, members in classes.items():
        batch = [pairs[i] for i in members]
        values = phasesums.quadratic_phase_sums(
            [[[k * x for x in row] for row in module.gram] for module, k in batch],
            orders, 2 * math.lcm(*orders))
        for i, (module, _), total in zip(members, batch, values):
            sums[i] = total / math.sqrt(module.order)
    return sums


def cyclic_module(k: int) -> FiniteQuadraticModule:
    """``(Z_k, q_k)``, equal to ``from_surgery([[k]])``: ``q((x,)) = x^2 / (2k)``
    and ``lam((x,), (y,)) = x y / k`` mod 1, well defined mod ``k`` at even
    ``k``."""
    check_level(k)
    return FiniteQuadraticModule((k,), ((1,),))
