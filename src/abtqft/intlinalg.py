"""Exact integer and rational linear algebra on symmetric matrices.

Everything here is exact: matrices are Python integers, rational work uses
:class:`fractions.Fraction`.  The operations cover what a surgery matrix
needs homologically,

* Smith normal form with unimodular transforms,
* splitting off the saturated kernel and extracting a nondegenerate
  "regular" block,
* signatures by rational symmetric congruence (no floating eigenvalues;
  signatures enter invariants as eighth-root-of-unity phases, so they must
  be exact),
* cyclic decomposition and enumeration of the finite cokernel
  ``Z^rho / L_reg Z^rho``,
* exact evaluation of the inverse form ``x^T L_reg^{-1} x``,
* one Gauss-Jordan elimination over the rationals, behind every solve,
  inverse and rank.

All functions treat their inputs as immutable and are safe for parallel use.
Matrices are serialized as JSON arrays of arrays of integers (row-major).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import DegenerateMatrix, GroupTooLarge

#: Largest torsion group the library will enumerate element by element.
GROUP_ENUMERATION_CAP = 10 ** 6

IntRows = List[List[int]]


def _to_int_rows(mat) -> IntRows:
    if isinstance(mat, IntSymMatrix):
        return [list(row) for row in mat.entries]
    return [[int(x) for x in row] for row in mat]


def identity_matrix(n: int) -> IntRows:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


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
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(c * x for c, x in zip(row, v)) for row in a]


@dataclass(frozen=True)
class IntSymMatrix:
    """A symmetric integer matrix; ``m = 0`` (the empty matrix) is allowed."""

    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        m = len(rows)
        for row in rows:
            if len(row) != m:
                raise ValueError("matrix must be square")
        for i in range(m):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntSymMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

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

    def negated(self) -> "IntSymMatrix":
        return IntSymMatrix.from_rows([[-x for x in row] for row in self.entries])

    def direct_sum(self, other: "IntSymMatrix") -> "IntSymMatrix":
        n, p = self.m, other.m
        rows = [[0] * (n + p) for _ in range(n + p)]
        for i in range(n):
            for j in range(n):
                rows[i][j] = self.entries[i][j]
        for i in range(p):
            for j in range(p):
                rows[n + i][n + j] = other.entries[i][j]
        return IntSymMatrix.from_rows(rows)

    def to_json(self) -> list:
        return [list(row) for row in self.entries]

    @classmethod
    def from_json(cls, obj: list) -> "IntSymMatrix":
        return cls.from_rows(obj)


def determinant(mat) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = _to_int_rows(mat)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form

def smith_normal_form(mat) -> Tuple[IntRows, IntRows, IntRows]:
    """Return unimodular ``(U, D, V)`` with ``U @ M @ V = D``.

    ``D`` is diagonal with nonnegative entries satisfying ``d1 | d2 | ...``.
    The pivot choice (smallest absolute value, earliest position) is fixed,
    so the output is deterministic for a given input.
    """
    rows = _to_int_rows(mat)
    n = len(rows)
    m = len(rows[0]) if n else 0
    d = [row[:] for row in rows]
    u = identity_matrix(n)
    v = identity_matrix(m)

    def row_swap(a: int, b: int) -> None:
        d[a], d[b] = d[b], d[a]
        u[a], u[b] = u[b], u[a]

    def row_addmul(dst: int, src: int, c: int) -> None:
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_swap(a: int, b: int) -> None:
        for r in d:
            r[a], r[b] = r[b], r[a]
        for r in v:
            r[a], r[b] = r[b], r[a]

    def col_addmul(dst: int, src: int, c: int) -> None:
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def clear_position(t: int) -> bool:
        """Bring a pivot to (t, t) and clear its row and column.

        Returns False when the trailing submatrix is zero.
        """
        best = None
        for i in range(t, n):
            for j in range(t, m):
                val = d[i][j]
                if val != 0 and (best is None or abs(val) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            return False
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, n):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_addmul(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)  # remainder is a strictly smaller pivot
                        dirty = True
            for j in range(t + 1, m):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_addmul(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        dirty = True
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, n)) \
                    and all(d[t][j] == 0 for j in range(t + 1, m)):
                return True

    rank = 0
    for t in range(min(n, m)):
        if not clear_position(t):
            break
        rank += 1

    # Enforce the divisibility chain with local 2x2 fixes.
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            if d[i + 1][i + 1] % d[i][i] != 0:
                col_addmul(i, i + 1, 1)
                clear_position(i)
                changed = True

    for i in range(rank):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]

    return u, d, v


def _row_reduce(rows: List[List[Fraction]], ncols: int) -> int:
    """Gauss-Jordan elimination over the rationals, in place; returns the rank.

    Pivots are taken in the first ``ncols`` columns, normalized to 1 and
    moved to the top in column order, so a nonsingular square block
    ``[A | B]`` ends as ``[I | A^{-1} B]``.  This is the library's only
    rational elimination.
    """
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _solve(mat: Sequence[Sequence[int]], rhs: Sequence[Sequence]) -> List[List[Fraction]]:
    """Rows of ``mat^{-1} rhs`` for a square ``mat`` and a block ``rhs``."""
    n = len(mat)
    a = [[Fraction(x) for x in mat[i]] + [Fraction(x) for x in rhs[i]]
         for i in range(n)]
    if _row_reduce(a, n) < n:
        raise DegenerateMatrix("matrix is singular")
    return [row[n:] for row in a]


def rational_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals of a matrix of integers or fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    return _row_reduce(a, len(a[0]) if a else 0)


def integer_inverse(mat: Sequence[Sequence[int]]) -> IntRows:
    """Inverse of a unimodular integer matrix, returned over the integers."""
    inv = _solve(mat, identity_matrix(len(mat)))
    out: IntRows = []
    for row in inv:
        int_row = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            int_row.append(x.numerator)
        out.append(int_row)
    return out


def solve_rational(mat: Sequence[Sequence[int]], rhs: Sequence) -> List[Fraction]:
    """Solve ``mat @ y = rhs`` exactly over the rationals."""
    return [row[0] for row in _solve(mat, [[x] for x in rhs])]


# ---------------------------------------------------------------------------
# Regular decomposition

@dataclass(frozen=True)
class RegularDecomposition:
    """Splitting of ``Z^m`` into a saturated kernel and a complement.

    ``complement_basis`` (m x rank) and ``kernel_basis`` (m x nullity) are
    column blocks of a single unimodular matrix; ``regular`` is the
    nondegenerate symmetric form induced on the complement,
    ``regular = C^T L C``.
    """

    complement_basis: Tuple[Tuple[int, ...], ...]
    kernel_basis: Tuple[Tuple[int, ...], ...]
    regular: IntSymMatrix
    rank: int
    nullity: int


def _columns(mat: Sequence[Sequence[int]], idx: Sequence[int]) -> IntRows:
    return [[row[j] for j in idx] for row in mat]


def regular_decomposition(L: IntSymMatrix, strategy: str = "snf") -> RegularDecomposition:
    """Split off the saturated kernel of ``L`` and extract its regular block.

    Both strategies produce the same kernel lattice; they differ in how the
    complement is completed to a basis of ``Z^m``:

    * ``"snf"`` (default): take the non-kernel columns of the right Smith
      transform of ``L``.
    * ``"completion"``: complete the kernel basis to a basis of ``Z^m`` via a
      second Smith computation on the kernel block.

    Only the congruence class of the regular block is canonical; each
    strategy is individually deterministic so regression tests can pin the
    concrete matrices.
    """
    L = IntSymMatrix.from_rows(L.rows() if isinstance(L, IntSymMatrix) else L)
    m = L.m
    _, d, v = smith_normal_form(L.rows())
    zero_idx = [i for i in range(m) if d[i][i] == 0] if m else []
    nonzero_idx = [i for i in range(m) if d[i][i] != 0] if m else []
    kernel = _columns(v, zero_idx)

    if strategy == "snf":
        complement = _columns(v, nonzero_idx)
    elif strategy == "completion":
        if zero_idx:
            # SNF of the (primitive) kernel block: uk @ K @ vk = [I; 0], so
            # K @ vk equals the first nu columns of uk^{-1}; the remaining
            # columns of uk^{-1} complete the kernel to a basis of Z^m.
            uk, _, _ = smith_normal_form(kernel)
            uk_inv = integer_inverse(uk)
            complement = _columns(uk_inv, list(range(len(zero_idx), m)))
        else:
            complement = identity_matrix(m)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    c_t = mat_transpose(complement) if complement and complement[0] else []
    reg_rows = mat_mul(mat_mul(c_t, L.rows()), complement) if nonzero_idx else []
    regular = IntSymMatrix.from_rows(reg_rows)
    return RegularDecomposition(
        complement_basis=tuple(tuple(row) for row in complement) if nonzero_idx else tuple(tuple() for _ in range(m)),
        kernel_basis=tuple(tuple(row) for row in kernel) if zero_idx else tuple(tuple() for _ in range(m)),
        regular=regular,
        rank=len(nonzero_idx),
        nullity=len(zero_idx),
    )


def signature(L) -> int:
    """Signature of a symmetric integer matrix, computed exactly.

    Rational symmetric congruence diagonalization: nonzero diagonal entries
    are used as pivots; a zero diagonal with a nonzero row entry is repaired
    by adding (or subtracting) the partner row and column, which realizes the
    hyperbolic 2x2 block as two opposite-sign pivots.  The radical
    contributes nothing.
    """
    rows = _to_int_rows(L)
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    sig = 0
    for i in range(n):
        if a[i][i] == 0:
            partner = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if partner is None:
                continue  # row lies in the radical
            for s in (1, -1):
                if a[i][i] + 2 * s * a[i][partner] + a[partner][partner] != 0:
                    for col in range(n):
                        a[i][col] += s * a[partner][col]
                    for row in range(n):
                        a[row][i] += s * a[row][partner]
                    break
        pivot = a[i][i]
        sig += 1 if pivot > 0 else -1
        for r in range(i + 1, n):
            if a[r][i] != 0:
                factor = a[r][i] / pivot
                for c in range(n):
                    a[r][c] -= factor * a[i][c]
                for c in range(n):
                    a[c][r] -= factor * a[c][i]
    return sig


# ---------------------------------------------------------------------------
# Cokernel

@dataclass(frozen=True)
class CokernelGroup:
    """``Z^rho / L_reg Z^rho`` in cyclic form ``Z/d1 + ... + Z/dt``.

    ``cyclic_orders`` keeps only the orders >= 2 (with d1 | d2 | ...);
    ``generator_reps`` holds one integer column vector ``g_i`` in ``Z^rho``
    per cyclic factor, and ``dual_reps`` one integer vector ``w_i`` with
    ``L_reg^{-1} g_i = w_i / d_i``, so the generators pair exactly as
    ``g_i^T L_reg^{-1} g_j = g_i . w_j / d_j``.  Elements are addressed by
    coefficient tuples ``(a1, ..., at)`` with ``0 <= ai < di``.
    """

    cyclic_orders: Tuple[int, ...]
    generator_reps: Tuple[Tuple[int, ...], ...]
    dual_reps: Tuple[Tuple[int, ...], ...]
    ambient_dim: int

    @property
    def order(self) -> int:
        n = 1
        for d in self.cyclic_orders:
            n *= d
        return n

    def elements(self, cap: int = GROUP_ENUMERATION_CAP) -> Iterator[Tuple[int, ...]]:
        if self.order > cap:
            raise GroupTooLarge(
                f"torsion group of order {self.order} exceeds cap {cap}")
        return itertools.product(*(range(d) for d in self.cyclic_orders))

    def lift(self, element: Sequence[int]) -> List[int]:
        """An integer vector in ``Z^rho`` representing the element."""
        vec = [0] * self.ambient_dim
        for coeff, rep in zip(element, self.generator_reps):
            for i in range(self.ambient_dim):
                vec[i] += coeff * rep[i]
        return vec

    @staticmethod
    def trivial(ambient_dim: int = 0) -> "CokernelGroup":
        return CokernelGroup((), (), (), ambient_dim)


def cokernel(L_reg: IntSymMatrix) -> CokernelGroup:
    """Cyclic decomposition of ``Z^rho / L_reg Z^rho`` (requires det != 0)."""
    rho = L_reg.m
    if rho == 0:
        return CokernelGroup.trivial(0)
    u, d, v = smith_normal_form(L_reg.rows())
    if any(d[i][i] == 0 for i in range(rho)):
        raise DegenerateMatrix("cokernel requires a nondegenerate matrix")
    # U L V = D identifies Z^rho/L Z^rho with +Z/di via y -> U y, so the
    # standard generators e_i pull back along U^{-1}; and since
    # L^{-1} = V D^{-1} U, L^{-1} U^{-1} e_i = V e_i / d_i.
    u_inv = integer_inverse(u)
    keep = [i for i in range(rho) if d[i][i] > 1]
    return CokernelGroup(
        tuple(d[i][i] for i in keep),
        tuple(tuple(u_inv[r][i] for r in range(rho)) for i in keep),
        tuple(tuple(v[r][i] for r in range(rho)) for i in keep),
        rho)


def inverse_form_value(L_reg: IntSymMatrix, x: Sequence[int]) -> Fraction:
    """Exact rational ``x^T L_reg^{-1} x`` (via one linear solve)."""
    if len(x) != L_reg.m:
        raise ValueError("vector dimension mismatch")
    if L_reg.m == 0:
        return Fraction(0)
    y = solve_rational(L_reg.rows(), list(x))
    return sum((Fraction(xi) * yi for xi, yi in zip(x, y)), Fraction(0))


def inverse_pairing_value(L_reg: IntSymMatrix, x: Sequence[int],
                          y: Sequence[int]) -> Fraction:
    """Exact rational ``x^T L_reg^{-1} y``."""
    if len(x) != L_reg.m or len(y) != L_reg.m:
        raise ValueError("vector dimension mismatch")
    if L_reg.m == 0:
        return Fraction(0)
    z = solve_rational(L_reg.rows(), list(y))
    return sum((Fraction(xi) * zi for xi, zi in zip(x, z)), Fraction(0))
