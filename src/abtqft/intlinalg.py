"""Exact integer and rational linear algebra on symmetric matrices.

Everything here is exact: matrices are Python integers and every elimination
divides exactly; :class:`fractions.Fraction` appears only in the rational
inputs of :func:`rational_rank` and :func:`clear_denominators`.  The
operations cover what a surgery matrix needs homologically,

* Smith normal form of a symmetric matrix by one bounded elimination,
  which builds the diagonal and the inverse ``W`` of its row transform
  (the row transform itself is never formed) and works modulo the
  determinant, read from the signature elimination, when the matrix is
  nonsingular; each new row is reduced in the comprehension that builds
  it, and a step rebuilds only the rows (or column entries) it changes,
* the regular decomposition, one Smith form that yields everything the
  torsion route needs: the nullity, the cyclic orders of the torsion of
  the cokernel ``Z^m / L Z^m`` and one generator lift per cyclic factor, a
  column of ``W``, for degenerate and nondegenerate ``L`` alike,
* one fraction-free symmetric elimination (Bareiss, 1968),
  :func:`eliminate_symmetric`, the library's only Gaussian elimination:
  on a symmetric matrix it gives the exact signature (no floating
  eigenvalues; signatures enter invariants as eighth-root-of-unity phases,
  so they must be exact), the rank (:func:`rank`) and the determinant
  (:func:`det`); on a bordered matrix it gives the Gram matrix of a torsion
  module (:func:`abtqft.quadmod.from_decomposition`); and on ``A A^T`` the
  rank over the rationals (:func:`rational_rank`).

All functions treat their inputs as immutable and are safe for parallel use.
Matrices are serialized as JSON arrays of arrays of integers (row-major).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

IntRows = List[List[int]]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntRows:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                row = out[i]
                for j in range(cols):
                    row[j] += c * bk[j]
    return out


def mat_transpose(a: Sequence[Sequence[int]]) -> IntRows:
    return [list(col) for col in zip(*a)]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(map(operator.mul, row, v)) for row in a]


@dataclass(frozen=True)
class IntSymMatrix:
    """A symmetric integer matrix; ``m = 0`` (the empty matrix) is allowed."""

    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(map(int, row)) for row in self.entries)
        m = len(rows)
        if set(map(len, rows)) - {m}:  # a row of another length than m
            raise ValueError("matrix must be square")
        if tuple(zip(*rows)) != rows:  # the transpose, as tuples of rows
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntSymMatrix":
        return cls(rows)

    @classmethod
    def empty(cls) -> "IntSymMatrix":
        return cls(())

    @classmethod
    def diagonal(cls, diag: Iterable[int]) -> "IntSymMatrix":
        d = list(diag)
        return cls.from_rows([[d[i] if i == j else 0 for j in range(len(d))]
                              for i in range(len(d))])

    @property
    def m(self) -> int:
        return len(self.entries)

    def rows(self) -> IntRows:
        return [list(row) for row in self.entries]

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def direct_sum(self, other: "IntSymMatrix") -> "IntSymMatrix":
        n, p = self.m, other.m
        return IntSymMatrix.from_rows(
            [row + (0,) * p for row in self.entries]
            + [(0,) * n + row for row in other.entries])

    def to_json(self) -> list:
        return [list(row) for row in self.entries]

    @classmethod
    def from_json(cls, obj: list) -> "IntSymMatrix":
        return cls.from_rows(obj)


def _cross(row: List[int], top: List[int], p: int, f: int, prev: int) -> List[int]:
    """``(row * p - f * top) / prev`` entrywise, the update of
    :func:`eliminate_symmetric`; exact (Bareiss, 1968), as every entry
    stays an integer minor."""
    return [(x * p - f * y) // prev for x, y in zip(row, top)]


def eliminate_symmetric(a: IntRows, n: int) -> Tuple[int, int, int]:
    """Eliminate the leading ``n`` rows of the symmetric row list ``a`` in
    place; return ``(signature, pivots, last pivot)`` of its leading ``n x
    n`` block.

    Symmetric congruence diagonalization with diagonal pivots, fraction-free:
    the trailing block holds ``prev`` times the rational Schur complement
    (``prev`` the last pivot taken, 1 before the first), so each step is
    :func:`_cross` and the rational pivot ``p / prev`` counts ``sign(p)
    sign(prev)``.  A zero diagonal with a nonzero entry in the leading block
    is repaired by adding (or subtracting) the partner row and column, a
    congruence of determinant one, which realizes the hyperbolic 2x2 block
    as two opposite-sign pivots; a row with no partner lies in the radical
    and takes no pivot.

    Only the upper triangle is read and updated: the Schur complement is
    symmetric, so row ``r`` is updated from column ``r`` on with the
    multiplier ``a[i][r]``, and an entry below the diagonal is read as its
    mirror image.  The input must therefore be symmetric, as every caller's
    is.  Every pivot is nonzero, so the pivots count the rank of the leading
    block, and the rational pivots multiply to the last one, which is its
    determinant when every leading row pivots.  Then the trailing rows end
    as that determinant times the Schur complement of the leading block:
    for ``[[A, B], [B^T, C]]`` they hold ``det A (C - B^T A^{-1} B)``.
    """
    size = len(a)
    sig, prev, pivots = 0, 1, 0
    for i in range(n):
        top = a[i]
        if top[i] == 0:
            partner = next((j for j in range(i + 1, n) if top[j] != 0), None)
            if partner is None:
                continue  # row lies in the radical
            x, d = top[partner], a[partner][partner]
            s = 1 if 2 * x + d else -1  # the new diagonal is 2 s x + d
            for j in range(i + 1, size):
                top[j] += s * (a[j][partner] if j < partner else a[partner][j])
            top[i] = 2 * s * x + d
        p = top[i]
        sig += 1 if (p > 0) == (prev > 0) else -1
        pivots += 1
        for r in range(i + 1, size):
            a[r][r:] = _cross(a[r][r:], top[r:], p, top[r], prev)
        prev = p
    return sig, pivots, prev


# ---------------------------------------------------------------------------
# Smith normal form

def _gcd_step(a: int, b: int) -> Tuple[int, int, int, int]:
    """A determinant-one ``[[x, y], [p, q]]`` taking ``(a, b)`` to ``(g, 0)``
    by extended Euclid, for a pivot ``a`` that does not divide ``b`` (when it
    does, :func:`smith_normal_form` takes the plain elimination
    ``[[1, 0], [-b/a, 1]]``, which leaves ``a`` in place)."""
    g, r, x, y, x1, y1 = a, b, 1, 0, 0, 1  # g = x a + y b
    while r:
        q = g // r
        g, r, x, y, x1, y1 = r, g - q * r, x1, y1, x - q * x1, y - q * y1
    return x, y, -(b // g), a // g


def smith_normal_form(L: IntSymMatrix) -> Tuple[IntRows, IntRows]:
    """Return ``(D, W^T)`` with ``U L V = D`` for some ``U`` and ``V`` and
    ``W = U^{-1}``.

    ``D`` is diagonal, ``d1 | d2 | ...``, nonnegative, zeros last, and
    column ``i`` of ``W`` is row ``i`` of ``W^T``.  One elimination builds
    both: each row operation on ``L`` applies its inverse column operation
    to ``W``, and each pivot is made to divide its trailing block, by
    extended-gcd 2x2 steps, before the next pivot starts.  ``U`` and ``V``
    are never formed; ``L (V e_i) = d_i w_i`` for the columns ``w_i`` of
    ``W``, which is all the torsion needs.

    For nonsingular ``L`` the elimination works modulo ``d = |det L|``
    (Domich, Kannan and Trotter, 1987): ``d Z^m`` lies in the column span
    ``L Z^m``, so the work matrix and ``W`` are reduced into ``[0, d)`` and
    each pivot becomes ``gcd(pivot, d)``.  Then ``W`` is unimodular mod
    ``d``, which is all the cokernel ``Z^m / L Z^m`` needs; otherwise ``W``
    is unimodular.  ``d`` comes from the signature elimination that ``L``
    keeps (:func:`det`).  The pivot choice (smallest absolute value,
    earliest position) is fixed, so the output is deterministic.

    The reduction mod ``d`` is folded into the one comprehension that
    builds a new row.  A step rebuilds only what it changes.  The plain
    elimination of an entry that the pivot divides changes row ``i`` of the
    work matrix and row ``t`` of ``W^T``; as a column step it changes
    column ``j`` only where column ``t`` is nonzero, which is the entry
    ``(t, j)`` alone until an extended-gcd column step refills column
    ``t``.  The signed swaps are moves, and a pivot of 1 divides every
    entry, so its divisibility scan is skipped.
    """
    n, d = L.m, abs(det(L))
    rows = [[x % d for x in row] for row in L.entries] if d else L.rows()
    # The rows of W^T, the identity mod d.
    wt = [[int(r == c and d != 1) for c in range(n)] for r in range(n)]

    def lin(x: int, s_row: List[int], y: int, r_row: List[int]) -> List[int]:
        """``x s_row + y r_row``, reduced when ``d`` is nonzero."""
        if d:
            return [(x * s + y * r) % d for s, r in zip(s_row, r_row)]
        return [x * s + y * r for s, r in zip(s_row, r_row)]

    def neg(row: List[int]) -> List[int]:
        return [-x % d for x in row] if d else [-x for x in row]

    for t in range(n):
        best, i, j = 0, t, t  # smallest nonzero |entry|, earliest row, column
        for r in range(t, n):
            block = rows[r][t:] if d else list(map(abs, rows[r][t:]))
            v = min(filter(None, block), default=0)
            if v and (not best or v < best):
                best, i, j = v, r, t + block.index(v)
                if v == 1:
                    break
        if not (best or d):
            break  # otherwise a vanishing block mod d has the pivot d at (t, t)
        if i != t:  # swaps with a sign: determinant one
            rows[t], rows[i] = rows[i], neg(rows[t])
            wt[t], wt[i] = wt[i], neg(wt[t])
        if j != t:
            for row in rows:
                row[t], row[j] = row[j], (-row[t] % d if d else -row[t])
        while True:
            pivot = rows[t][t]
            for i in range(t + 1, n):
                b = rows[i][t]
                if not b:
                    continue
                if b % pivot:  # [[x, y], [p, q]] on rows t, i; its inverse on W
                    x, y, p, q = _gcd_step(pivot, b)
                    top, row, wtop, wrow = rows[t], rows[i], wt[t], wt[i]
                    rows[t], rows[i] = lin(x, top, y, row), lin(p, top, q, row)
                    wt[t], wt[i] = lin(q, wtop, -p, wrow), lin(-y, wtop, x, wrow)
                    pivot = rows[t][t]
                else:  # [[1, 0], [-f, 1]]: row i, and row t of W^T, change
                    f = b // pivot
                    rows[i] = lin(-f, rows[t], 1, rows[i])
                    wt[t] = lin(1, wt[t], f, wt[i])
            top, mixed = rows[t], False
            for j in range(t + 1, n):
                b = top[j]
                if not b:
                    continue
                if b % pivot:
                    x, y, p, q = _gcd_step(pivot, b)
                    for row in rows:
                        s, r = row[t], row[j]
                        if s or r:
                            s, r = x * s + y * r, p * s + q * r
                            row[t], row[j] = (s % d, r % d) if d else (s, r)
                    pivot, mixed = top[t], True
                elif mixed:
                    f = b // pivot
                    for row in rows:
                        s = row[t]
                        if s:
                            row[j] = (row[j] - f * s) % d if d else row[j] - f * s
                else:  # column t is pivot * e_t: only entry (t, j) changes
                    top[j] = 0
            # Only a mixing column step can refill column t.
            if mixed and any(rows[i][t] for i in range(t + 1, n)):
                continue
            # Row and column t are clear, so column t is pivot * e_t, which
            # generates the same subgroup mod d as gcd(pivot, d) * e_t.
            if d:
                pivot = rows[t][t] = math.gcd(pivot, d)
            elif pivot < 0:
                pivot = -pivot
                rows[t], wt[t] = neg(rows[t]), neg(wt[t])
            if pivot == 1:
                break  # every entry is a multiple of 1
            bad = next((i for i in range(t + 1, n)
                        if any(x % pivot for x in rows[i][t + 1:])), None)
            if bad is None:
                break
            # [[1, 1], [0, 1]] brings a non-multiple into row t; its inverse
            # changes only row `bad` of W^T.
            rows[t] = lin(1, rows[t], 1, rows[bad])
            wt[bad] = lin(-1, wt[t], 1, wt[bad])
    return rows, wt


def clear_denominators(values: Iterable) -> List[int]:
    """Integers or fractions times the positive lcm of their denominators.

    An ``int`` entry is its own numerator over 1, so it is kept as it is
    rather than converted to a :class:`~fractions.Fraction`."""
    fracs = [x if isinstance(x, int) else Fraction(x) for x in values]
    scale = math.lcm(*[x.denominator for x in fracs])
    return [x.numerator * (scale // x.denominator) for x in fracs]


def rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals of a matrix ``A`` of integers or fractions:
    the pivot count of :func:`eliminate_symmetric` on ``A A^T``, which has
    the rank of ``A`` over the rationals, after each row of ``A`` is cleared
    of its denominators."""
    a = [clear_denominators(row) for row in rows]
    gram = [[sum(map(operator.mul, u, v)) for v in a] for u in a]
    return eliminate_symmetric(gram, len(gram))[1]


# ---------------------------------------------------------------------------
# Regular decomposition and torsion

@dataclass(frozen=True)
class RegularDecomposition:
    """The torsion data of a surgery matrix ``L``.

    ``matrix`` is ``L`` itself, ``nullity`` the rank of its saturated
    kernel, and ``cyclic_orders`` the orders ``d1 | d2 | ...`` (only those
    >= 2) of the cyclic decomposition ``Z/d1 + ... + Z/dt`` of the torsion
    ``T`` of ``Z^m / L Z^m``, isomorphic to ``Z^rho / L_reg Z^rho`` for the
    regular block ``L_reg``.  ``generator_reps`` holds one integer column
    vector ``g_i`` in ``Z^m`` per cyclic factor, in the rational column
    span of ``L``; its class has order ``d_i`` and generates that factor.
    """

    matrix: IntSymMatrix
    nullity: int
    cyclic_orders: Tuple[int, ...]
    generator_reps: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> int:
        """``|T|``, the product of the cyclic orders."""
        return math.prod(self.cyclic_orders)


def regular_decomposition(L: IntSymMatrix) -> RegularDecomposition:
    """Nullity and torsion of ``L`` from one Smith form.

    With ``U L V = D`` the Smith form, ``d_i`` its diagonal and ``w_i`` the
    columns of ``W = U^{-1}``, the torsion orders are the nonzero ``d_i >
    1`` and the lifts are the ``w_i`` at those ``d_i``, for every ``L``.
    ``y -> U y`` maps ``Z^m / L Z^m`` onto ``+ Z/d_i + Z^nu`` and ``w_i``
    to ``e_i``, so ``w_i`` generates the factor ``Z/d_i``; ``L (V e_i) =
    d_i w_i`` puts it in the rational column span of ``L``.  ``W`` is
    exact when ``det L = 0``; otherwise it is reduced mod ``|det L|``, and
    all of this holds mod ``|det L|``, whose multiples lie in ``L Z^m``.

    The Smith form reads ``|det L|`` from the kept signature elimination
    (:func:`det`).  Only the classes of the lifts are canonical; the
    concrete vectors are deterministic so tests pin them.
    """
    d, wt = smith_normal_form(L)
    orders = [d[i][i] for i in range(L.m) if d[i][i]]
    keep = [i for i, order in enumerate(orders) if order > 1]
    return RegularDecomposition(L, L.m - len(orders),
                                tuple(orders[i] for i in keep),
                                tuple(tuple(wt[i]) for i in keep))


def signature(L) -> int:
    """Signature of a symmetric integer matrix, computed exactly by
    :func:`eliminate_symmetric` on all its rows.

    The input must be symmetric, as every caller's is (an
    :class:`IntSymMatrix` or a Gram matrix); only its upper triangle is
    read.  An :class:`IntSymMatrix` keeps its signature, rank (:func:`rank`,
    the pivot count) and determinant (:func:`det`, the last pivot when every
    row pivots, else 0) once computed (on the instance, outside its fields,
    so equality, hash and repr are unchanged).
    """
    known = getattr(L, "_signature", None)
    if known is not None:
        return known
    a = (L.rows() if isinstance(L, IntSymMatrix)
         else [list(map(int, row)) for row in L])
    n = len(a)
    sig, pivots, last = eliminate_symmetric(a, n)
    if isinstance(L, IntSymMatrix):
        object.__setattr__(L, "_signature", sig)
        object.__setattr__(L, "_rank", pivots)
        object.__setattr__(L, "_det", last if pivots == n else 0)
    return sig


def rank(L: IntSymMatrix) -> int:
    """Rank of ``L``: the pivot count of the elimination of
    :func:`signature`, which ``L`` keeps beside its signature, so the two
    together cost one elimination."""
    if getattr(L, "_rank", None) is None:
        signature(L)
    return L._rank


def det(L: IntSymMatrix) -> int:
    """Determinant of ``L``: the last pivot of the elimination of
    :func:`signature`, or 0 when a row has none, which ``L`` keeps."""
    if getattr(L, "_det", None) is None:
        signature(L)
    return L._det
