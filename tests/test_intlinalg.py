import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_decomp
from sympy.matrices.normalforms import smith_normal_form as sym_snf

from abtqft import intlinalg, quadmod
from abtqft.errors import DegenerateMatrix, GroupTooLarge
from abtqft.intlinalg import (
    IntSymMatrix,
    RegularDecomposition,
    clear_denominators,
    mat_mul,
    mat_vec,
    rank,
    rational_rank,
    regular_decomposition,
    signature,
    smith_normal_form,
)

E8_ROWS = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def determinant(mat):
    """Exact determinant of a square integer matrix, an :class:`IntSymMatrix`
    or its rows, by triangular fraction-free (Bareiss) elimination with row
    swaps: the reference, sharing no code with the library, that the
    determinant kept by the signature elimination is checked against."""
    a = [list(map(int, row))
         for row in (mat.rows() if isinstance(mat, IntSymMatrix) else mat)]
    n, sign, prev = len(a), 1, 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        p = a[c][c]
        for r in range(c + 1, n):
            f = a[r][c]
            a[r] = [(x * p - f * y) // prev for x, y in zip(a[r], a[c])]
        prev = p
    return sign * prev


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def snf(mat):
    """:func:`smith_normal_form` of an :class:`IntSymMatrix` or its rows."""
    return smith_normal_form(
        mat if isinstance(mat, IntSymMatrix) else IntSymMatrix.from_rows(mat))


def random_symmetric(rng, n, bound=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


# ---------------------------------------------------------------------------
# The symmetric matrix type

@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [3]], "matrix must be square"),        # ragged
    ([[1, 2], [2, 1, 0]], "matrix must be square"),  # ragged, longer row
    ([[1, 2]], "matrix must be square"),             # one row of two
    ([[1], [2]], "matrix must be square"),           # two rows of one
    ([[0, 1], [2, 0]], "matrix must be symmetric"),
    ([[1, 2, 3], [2, 1, 4], [3, 5, 1]], "matrix must be symmetric"),
])
def test_int_sym_matrix_refuses_bad_input_with_its_message(rows, message):
    with pytest.raises(ValueError) as raised:
        IntSymMatrix.from_rows(rows)
    assert str(raised.value) == message


def test_int_sym_matrix_converts_entries_with_int():
    L = IntSymMatrix.from_rows([[True, "3"], [3.7, -2]])
    assert L.entries == ((1, 3), (3, -2))
    assert {type(x) for row in L.entries for x in row} == {int}
    assert L == IntSymMatrix.from_rows(((1, 3), (3, -2)))
    with pytest.raises(ValueError, match="invalid literal for int"):
        IntSymMatrix.from_rows([["a"]])
    with pytest.raises(TypeError):
        IntSymMatrix.from_rows([[None]])
    assert IntSymMatrix.from_rows([]).m == IntSymMatrix.empty().m == 0


def test_hash_is_kept_and_nothing_the_matrix_shows_changes():
    # The hash is hash(entries), computed on first use and kept outside the
    # fields like the signature: equality, repr and the JSON form are the
    # same before and after the hash, signature, rank or determinant runs.
    rng = random.Random(41)
    for _ in range(200):
        rows = random_symmetric(rng, rng.randint(0, 4), 3)
        L, twin = IntSymMatrix.from_rows(rows), IntSymMatrix.from_rows(rows)
        shown = (repr(L), L.to_json(), dataclasses.astuple(L))
        for computed in (hash, signature, rank, intlinalg.det):
            computed(L)
            assert (repr(L), L.to_json(), dataclasses.astuple(L)) == shown
            assert L == twin
            assert hash(L) == hash(twin) == hash(L.entries) == L._hash


def test_direct_sum_is_the_block_diagonal_join():
    rng = random.Random(31)
    for _ in range(100):
        a, b = (random_symmetric(rng, rng.randint(0, 3)) for _ in range(2))
        n, p = len(a), len(b)
        want = [[0] * (n + p) for _ in range(n + p)]
        for i in range(n):
            want[i][:n] = a[i]
        for i in range(p):
            want[n + i][n:] = b[i]
        got = IntSymMatrix.from_rows(a).direct_sum(IntSymMatrix.from_rows(b))
        assert got.rows() == want


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_couples_coprime_divisors():
    d, _ = snf([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]


def test_snf_identity_and_zero():
    d, _ = snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert [d[i][i] for i in range(3)] == [1, 1, 1]
    d, _ = snf([[0]])
    assert d == [[0]]


def elementary_reduction_invariant_factors(mat, n):
    """Independent oracle: d_t = gcd of all t x t minors divided by d_{t-1}."""
    import itertools

    def minor_gcd(size):
        g = 0
        for rows in itertools.combinations(range(n), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[mat[r][c] for c in cols] for r in rows]
                g = math.gcd(g, determinant(sub))
        return g

    factors = []
    prev = 1
    for size in range(1, n + 1):
        g = minor_gcd(size)
        if g == 0:
            factors.append(0)
        else:
            factors.append(g // prev)
            prev = g
    return factors


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        mat = random_symmetric(rng, n)
        d, _ = snf(mat)
        got = [d[i][i] for i in range(n)]
        want = elementary_reduction_invariant_factors(mat, n)
        # zeros in the oracle can appear before the gcd chain stops dividing
        assert [x for x in got if x] == [x for x in want if x]


def sympy_invariant_factors(mat, n, m):
    if not (n and m):
        return []
    ref = sym_snf(Matrix(mat))
    return [int(ref[i, i]) for i in range(min(n, m))]


def exact_inverse(rows):
    """``rows^{-1}`` as rows of fractions, from sympy's exact inverse: an
    oracle that shares no code with the library's elimination."""
    inv = Matrix(rows).inv()
    return [[Fraction(int(x.p), int(x.q)) for x in inv.row(i)]
            for i in range(inv.rows)]


def inverse_form(inverse, x):
    """``x^T M^{-1} x`` for ``inverse = M^{-1}``, as a fraction."""
    return sum((a * c * b for a, row in zip(x, inverse) for c, b in zip(row, x)),
               Fraction(0))


def cokernel_order_of(inverse, rep):
    """Order of ``[rep]`` in ``Z^m / M Z^m`` for ``inverse = M^{-1}``: the
    lcm of the denominators of ``M^{-1} rep``."""
    return math.lcm(*(sum(c * x for c, x in zip(row, rep)).denominator
                      for row in inverse))


def integral_solution(mat, b):
    """An integer ``x`` with ``mat x = b``, or ``None`` when ``b`` is not in
    the column lattice ``mat Z^m``: from sympy's Smith decomposition ``S mat
    T = A``, an oracle that shares no code with the library's Smith form."""
    a, s, t = smith_normal_decomp(Matrix(mat))
    y = s * Matrix(b)
    z = []
    for i in range(len(b)):
        if a[i, i] == 0:
            if y[i] != 0:
                return None
            z.append(0)
        elif y[i] % a[i, i]:
            return None
        else:
            z.append(y[i] // a[i, i])
    x = [int(v) for v in t * Matrix(z)]
    assert mat_vec(mat, x) == list(b)
    return x


def check_transforms(mat, d, wt):
    """``d_i w_i`` lies in ``mat Z^m`` for every column ``w_i`` of ``W``,
    shown by an integral solve; ``W`` is unimodular for singular input, and
    for nonsingular input its determinant is prime to ``|det|`` and its
    entries are reduced into ``[0, |det|)``."""
    det = abs(determinant(mat))
    for i, w in enumerate(wt):
        assert integral_solution(mat, [d[i][i] * x for x in w]) is not None
    if det:
        assert math.gcd(determinant(wt), det) == 1
        assert all(0 <= x < det for row in wt for x in row)
    else:
        assert abs(determinant(wt)) == 1
    return det


def test_snf_reconstruction_and_unimodularity():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 5)
        mat = random_symmetric(rng, n)
        d, wt = snf(mat)
        check_transforms(mat, d, wt)
        assert len(d) == n and all(len(row) == n for row in d)
        assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        diag = [d[i][i] for i in range(n)]
        assert diag == sympy_invariant_factors(mat, n, n)
        nonzero = [x for x in diag if x]
        assert all(x > 0 for x in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def test_snf_against_sympy():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = random_symmetric(rng, n)
        d, _ = snf(mat)
        theirs = sym_snf(Matrix(mat))
        mine = sorted(abs(d[i][i]) for i in range(n))
        ref = sorted(abs(int(theirs[i, i])) for i in range(n))
        assert mine == ref


@st.composite
def symmetric_matrices(draw, max_m=12, bound=4):
    m = draw(st.integers(1, max_m))
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = draw(st.integers(-bound, bound))
    return rows


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_snf_bounded_elimination_property(rows):
    m = len(rows)
    d, wt = snf(rows)
    assert [d[i][i] for i in range(m)] == sympy_invariant_factors(rows, m, m)
    det = check_transforms(rows, d, wt)
    if det:
        rd = regular_decomposition(IntSymMatrix.from_rows(rows))
        assert rd.order == det
        inverse = exact_inverse(rows)
        for order, rep in zip(rd.cyclic_orders, rd.generator_reps):
            assert cokernel_order_of(inverse, rep) == order


# ---------------------------------------------------------------------------
# The Smith form against its straightforward bookkeeping

def reference_gcd_step(a, b):
    """The 2x2 step of :func:`reference_smith_normal_form`."""
    if a and b % a == 0:
        return 1, 0, -(b // a), 1
    g, r, x, y, x1, y1 = a, b, 1, 0, 0, 1
    while r:
        q = g // r
        g, r, x, y, x1, y1 = r, g - q * r, x1, y1, x - q * x1, y - q * y1
    return x, y, -(b // g), a // g


def reference_smith_normal_form(mat):
    """``(U, D, W^T)`` by the same elimination as :func:`smith_normal_form`
    (same pivots, same 2x2 steps, same order) with plain bookkeeping:
    separate ``A``, ``U`` and ``W^T``, every step rebuilding both touched
    rows of all three and then reducing them mod ``d`` in a second pass,
    and the divisibility scan run for every pivot.  The library builds no
    ``U`` and must return the identical ``(D, W^T)``; ``U`` is the row
    transform that :func:`block_decomposition` builds the regular block
    from."""
    a = [list(map(int, row))
         for row in (mat.rows() if isinstance(mat, IntSymMatrix) else mat)]
    n = len(a)
    m = len(a[0]) if n else 0
    det = abs(determinant(a)) if n == m else 0

    def reduced(row):
        return [x % det for x in row] if det else row

    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    a = [reduced(row) for row in a]
    u = [reduced(list(row)) for row in identity]
    wt = [reduced(list(row)) for row in identity]

    def mix(rows, t, i, x, y, p, q):
        rt, ri = rows[t], rows[i]
        rows[t] = reduced([x * s + y * r for s, r in zip(rt, ri)])
        rows[i] = reduced([p * s + q * r for s, r in zip(rt, ri)])

    def row_step(t, i, x, y, p, q):
        mix(a, t, i, x, y, p, q)
        mix(u, t, i, x, y, p, q)
        mix(wt, t, i, q, -p, -y, x)

    def col_step(t, j, x, y, p, q):
        for row in a:
            row[t], row[j] = reduced([x * row[t] + y * row[j],
                                      p * row[t] + q * row[j]])

    for t in range(min(n, m)):
        best = min(((abs(a[i][j]), i, j) for i in range(t, n)
                    for j in range(t, m) if a[i][j]), default=None)
        if best is None:
            if not det:
                break
            best = (0, t, t)
        _, i, j = best
        if i != t:
            row_step(t, i, 0, 1, -1, 0)
        if j != t:
            col_step(t, j, 0, 1, -1, 0)
        while True:
            for i in range(t + 1, n):
                if a[i][t]:
                    row_step(t, i, *reference_gcd_step(a[t][t], a[i][t]))
            for j in range(t + 1, m):
                if a[t][j]:
                    col_step(t, j, *reference_gcd_step(a[t][t], a[t][j]))
            if any(a[i][t] for i in range(t + 1, n)):
                continue
            if det:
                a[t][t] = math.gcd(a[t][t], det)
            elif a[t][t] < 0:
                for rows in (a, u, wt):
                    rows[t] = [-x for x in rows[t]]
            bad = next((i for i in range(t + 1, n)
                        if any(a[i][j] % a[t][t] for j in range(t + 1, m))), None)
            if bad is None:
                break
            row_step(t, bad, 1, 1, 0, 1)
    return u, a, wt


def assert_same_smith_forms(matrices):
    for mat in matrices:
        assert snf(mat) == reference_smith_normal_form(mat)[1:], mat


def unimodular(rng, m, steps):
    """A product of ``steps`` random elementary integer row operations."""
    rows = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(steps if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def congruent(p, mat):
    return mat_mul(mat_mul(mat_transpose(p), mat), p)


#: The fifth draw of ``random_symmetric_matrix(random.Random(1), m, 4)`` for
#: m = 4..8 (det -594600), once a Smith form that did not finish.
PINNED_8X8 = [[3, -4, 3, -4, 0, 2, -2, -2],
              [-4, 4, -1, -4, -1, 4, 4, -1],
              [3, -1, 2, 4, 1, 1, 3, 0],
              [-4, -4, 4, 4, -4, 2, 4, -2],
              [0, -1, 1, -4, 4, 4, -1, 2],
              [2, 4, 1, 2, 4, -4, 3, 1],
              [-2, 4, 3, 4, -1, 3, 4, -1],
              [-2, -1, 0, -2, 2, 1, -1, 4]]


def test_snf_is_its_reference_on_symmetric_draws():
    rng = random.Random(14)
    assert_same_smith_forms(random_symmetric(rng, rng.randint(1, 12), 4)
                            for _ in range(3000))


def test_snf_is_its_reference_on_degenerate_congruences():
    # B^T S B with B = [I | v]: rank m - 1 or less, so the elimination runs
    # exactly and its transforms grow with m.
    rng = random.Random(15)
    matrices = []
    for m in range(2, 13):
        for _ in range(12):
            s = random_symmetric(rng, m - 1, 4)
            b = [[int(i == j) for j in range(m - 1)] + [rng.randint(-3, 3)]
                 for i in range(m - 1)]
            matrices.append(mat_mul(mat_mul(mat_transpose(b), s), b))
    assert all(determinant(mat) == 0 for mat in matrices)
    assert_same_smith_forms(matrices)


def test_snf_is_its_reference_on_small_matrices():
    small = [[], [[0]], [[0, 0], [0, 0]]] + [[[x]] for x in range(-9, 10)]
    assert_same_smith_forms(small
                            + [IntSymMatrix.from_rows(E8_ROWS), PINNED_8X8])


def test_snf_is_its_reference_at_unit_determinant():
    # Mod |det| = 1 every entry and both transforms are zero.
    rng = random.Random(17)
    matrices = [E8_ROWS] + [congruent(unimodular(rng, m, 3 * m),
                                      [[int(i == j) * rng.choice((1, -1))
                                        for j in range(m)] for i in range(m)])
                            for m in range(1, 9) for _ in range(10)]
    assert all(abs(determinant(mat)) == 1 for mat in matrices)
    assert_same_smith_forms(matrices)
    u, _, wt = reference_smith_normal_form(E8_ROWS)
    assert not any(map(any, u + wt))


def test_snf_is_its_reference_where_blocks_vanish_mod_det():
    # diag(1, ..., 1, c) and its congruences: after the unit pivots the
    # trailing block is 0 mod d, so the pivot there is set to d itself.
    rng = random.Random(18)
    matrices = []
    for m in range(1, 7):
        for c in (2, 3, 5, 12, -7):
            diag = [[int(i == j) * (c if i == m - 1 else 1) for j in range(m)]
                    for i in range(m)]
            matrices += [diag] + [congruent(unimodular(rng, m, 2 * m), diag)
                                  for _ in range(3)]
    assert_same_smith_forms(matrices)
    set_to_d = 0
    for mat in matrices:
        det = abs(determinant(mat))
        d, _ = snf(mat)
        set_to_d += det > 1 and d[-1][-1] == det
    assert set_to_d >= len(matrices) // 2


# ---------------------------------------------------------------------------
# Fraction-free elimination

@st.composite
def elimination_matrices(draw, max_m=12, bound=4):
    """Symmetric ``S`` or, half the time, the degenerate ``B^T S B`` with
    ``B`` of shape n x m, n < m; half the ``S`` have an all-zero diagonal,
    so that the signature's partner repair runs."""
    m = draw(st.integers(1, max_m))
    degenerate = m >= 2 and draw(st.booleans())
    n = draw(st.integers(1, m - 1)) if degenerate else m
    zero_diagonal = draw(st.booleans())
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            s[i][j] = s[j][i] = draw(st.integers(-bound, bound))
    if not degenerate:
        return s
    b = [[draw(st.integers(-2, 2)) for _ in range(m)] for _ in range(n)]
    return mat_mul(mat_mul(mat_transpose(b), s), b)


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def charpoly_signature(rows):
    """Exact oracle: the characteristic polynomial of a symmetric matrix is
    real-rooted, so Descartes' rule counts its positive roots exactly, and
    those of ``p(-x)`` count the negative ones."""
    coeffs = Matrix(rows).charpoly().all_coeffs()
    deg = len(coeffs) - 1
    mirrored = [c * (-1) ** (deg - i) for i, c in enumerate(coeffs)]
    return sign_changes(coeffs) - sign_changes(mirrored)


@settings(max_examples=60, deadline=None)
@given(elimination_matrices(), st.data())
def test_elimination_property(rows, data):
    m = len(rows)
    ref = Matrix(rows)
    det = determinant(rows)
    assert det == ref.det()
    assert rational_rank(rows) == ref.rank()
    denominators = data.draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    scaled = [[Fraction(x, d) for x in row] for row, d in zip(rows, denominators)]
    assert rational_rank(scaled) == ref.rank()
    assert signature(rows) == charpoly_signature(rows)
    L = IntSymMatrix.from_rows(rows)
    assert (rank(L), signature(L), intlinalg.det(L)) \
        == (ref.rank(), charpoly_signature(rows), det)
    assert_gram_is_sympys(regular_decomposition(L))
    assert_module_is_the_blocks(L)


def sympy_gram(rd):
    """``e R^T X mod 2e`` for the generator lifts ``R`` and any rational
    solution ``X`` of ``L X = R``, which is ``e R^T L^+ R`` whatever ``X``
    as ``R`` lies in the column span of the symmetric ``L``: sympy's exact
    Gauss-Jordan solve, with every free parameter 0, is the oracle of the
    bordered Gram elimination (it raises when ``R`` is not in the span)."""
    e, t = math.lcm(*rd.cyclic_orders), len(rd.generator_reps)
    if not t:
        return ()
    lifts = Matrix(rd.matrix.m, t, lambda r, j: rd.generator_reps[j][r])
    solution, params = Matrix(rd.matrix.rows()).gauss_jordan_solve(lifts)
    gram = e * lifts.T * solution.subs(dict.fromkeys(params, 0))
    assert all(x.is_integer for x in gram)
    return tuple(tuple(int(gram[i, j]) % (2 * e) for j in range(t))
                 for i in range(t))


def assert_gram_is_sympys(rd):
    module = quadmod.from_decomposition(rd)
    assert module.cyclic_orders == rd.cyclic_orders
    assert module.gram == sympy_gram(rd)


def block_decomposition(L):
    """The torsion data of ``L`` on its regular block, as a record of
    nullity 0 for :func:`quadmod.from_decomposition`: the oracle that the
    library's lifts in ``L`` itself are checked against.  From the
    reference Smith form ``U L V = D``, a nondegenerate ``L`` is its own
    block with the columns of ``W`` as lifts; for a degenerate one, the rows
    ``C`` of ``U`` at the nonzero ``d_i`` give the block ``C L C^T = D_r
    N``, ``N`` unimodular, whose cokernel is ``+ Z/d_i`` on the standard
    basis vectors ``e_i``."""
    u, d, wt = reference_smith_normal_form(L)
    orders = [d[i][i] for i in range(L.m) if d[i][i]]
    rho = len(orders)
    keep = [i for i in range(rho) if orders[i] > 1]
    if rho == L.m:
        block, lifts = L, [wt[i] for i in keep]
    else:
        block = IntSymMatrix.from_rows(
            mat_mul(mat_mul(u[:rho], L.rows()), mat_transpose(u[:rho])))
        lifts = [[int(r == i) for r in range(rho)] for i in keep]
    return RegularDecomposition(block, 0, tuple(orders[i] for i in keep),
                                tuple(map(tuple, lifts)))


def assert_module_is_the_blocks(L):
    """The module read off ``L`` is the module of its regular block."""
    assert quadmod.from_surgery(L) \
        == quadmod.from_decomposition(block_decomposition(L))


def test_bordered_gram_is_sympys():
    # The trailing block of the bordered [[L, R], [R^T, 0]] ends as p (-R^T
    # L^+ R), p the last pivot: nondegenerate and degenerate L (the radical
    # rows take no pivot), zero diagonals (the partner repair runs inside
    # the leading block) and trivial T (no lifts, no trailing block).  On
    # degenerate L the module is also that of the regular block.
    rng = random.Random(103)
    cases = [IntSymMatrix.from_rows(E8_ROWS), IntSymMatrix.empty(),
             IntSymMatrix.from_rows([[0, 1], [1, 0]]),
             IntSymMatrix.from_rows([[0, 3], [3, 0]])]
    while len(cases) < 300:
        n = rng.randint(1, 6)
        rows = random_symmetric(rng, n, 4)
        if rng.random() < 0.4:
            for i in range(n):
                rows[i][i] = 0
        if determinant(rows):
            cases.append(IntSymMatrix.from_rows(rows))
        if n <= 4:
            cases.append(degenerate_draw(rng, n + 2)[0])
    kinds = Counter()
    for L in cases:
        rd = regular_decomposition(L)
        kinds["degenerate"] += rd.nullity > 0
        kinds["zero diagonal"] += any(L[i, i] == 0 for i in range(L.m))
        kinds["trivial T"] += not rd.cyclic_orders
        assert_gram_is_sympys(rd)
        if rd.nullity:
            assert_module_is_the_blocks(L)
    assert min(kinds.values()) >= 20, kinds


def test_bordered_gram_on_any_lifts_and_refuses_a_singular_block():
    # G = e R^T L^{-1} R for lifts R with e L^{-1} R integral, here any R
    # at e = |det L| (the adjugate is integral), even past the cyclic
    # orders a Smith form gives; a matrix more or less singular than its
    # nullity says, whose pivots do not count its rank, refuses.
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = random_symmetric(rng, n, 4)
        if rng.random() < 0.4:
            for i in range(n):
                rows[i][i] = 0
        d = abs(determinant(rows))
        if not d:
            continue
        lifts = tuple(tuple(rng.randint(-6, 6) for _ in range(n))
                      for _ in range(rng.randint(1, 3)))
        assert_gram_is_sympys(RegularDecomposition(
            IntSymMatrix.from_rows(rows), 0, (d,) * len(lifts), lifts))
    for rows, nullity in (([[0]], 0), ([[1, 2], [2, 4]], 0),
                          ([[0, 0], [0, 3]], 0), ([[3]], 1),
                          ([[0, 0], [0, 3]], 2)):
        with pytest.raises(DegenerateMatrix):
            quadmod.from_decomposition(RegularDecomposition(
                IntSymMatrix.from_rows(rows), nullity, (2,),
                ((1,) * len(rows),)))
    # A trivial group (t = 0) has no lifts, no Gram and no elimination; the
    # rank L keeps refuses a nullity that misstates it, with the message
    # the elimination's pivot count gave.
    for rows, nullity, rank_ in (([[0]], 0, 0), ([[1]], 1, 1),
                                 ([[1, 2], [2, 4]], 0, 1),
                                 ([[1, 0], [0, 0]], 2, 1),
                                 ([[0, 1], [1, 0]], 1, 2), (E8_ROWS, 1, 8)):
        with pytest.raises(DegenerateMatrix) as raised:
            quadmod.from_decomposition(RegularDecomposition(
                IntSymMatrix.from_rows(rows), nullity, (), ()))
        assert str(raised.value) == (f"matrix of nullity {nullity} "
                                     f"has rank {rank_}")


def test_signature_elimination_keeps_the_determinant():
    # The last pivot of the symmetric elimination, or 0 when a row has no
    # pivot, is the determinant, sign included: on draws with forced zero
    # diagonals (the partner repair runs) and on singular draws.
    rng = random.Random(102)
    seen = Counter()
    for _ in range(3000):
        m = rng.randint(0, 7)
        rows = random_symmetric(rng, m, 4)
        if rng.random() < 0.3:
            for i in range(m):
                rows[i][i] = 0
        if m >= 2 and rng.random() < 0.2:
            rows = congruent([[int(i == j) for j in range(m - 1)]
                              + [rng.randint(-2, 2)] for i in range(m - 1)],
                             random_symmetric(rng, m - 1, 4))
        L = IntSymMatrix.from_rows(rows)
        want = determinant(rows)
        assert intlinalg.det(L) == want, rows
        assert (rank(L) == m) == (want != 0)
        seen[(want > 0) - (want < 0)] += 1
    assert min(seen[-1], seen[0], seen[1]) > 300
    # The empty matrix has determinant 1.
    assert intlinalg.det(IntSymMatrix.empty()) == 1


# ---------------------------------------------------------------------------
# Regular decomposition

def test_regular_decomposition_examples():
    L = IntSymMatrix.from_rows([[1, 0], [0, 0]])
    rd, block = regular_decomposition(L), block_decomposition(L).matrix
    assert (rd.matrix, rd.nullity, rd.cyclic_orders) == (L, 1, ())
    assert (block.m, abs(determinant(block))) == (1, 1)

    L = IntSymMatrix.from_rows([[2, 2], [2, 2]])
    rd, block = regular_decomposition(L), block_decomposition(L).matrix
    assert (rd.matrix, rd.nullity, rd.cyclic_orders) == (L, 1, (2,))
    assert (block.m, abs(determinant(block))) == (1, 2)
    assert rd.generator_reps == ((1, 1),)  # L (1/2, 0) = (1, 1)
    assert quadmod.from_decomposition(rd).gram == ((1,),)

    rd = regular_decomposition(IntSymMatrix.from_rows([[0]]))
    assert (rd.nullity, rd.generator_reps) == (1, ())
    assert rd.order == 1


def test_regular_decomposition_invariants():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(0, 5)
        L = IntSymMatrix.from_rows(random_symmetric(rng, n))
        if n >= 2 and rng.random() < 0.5:
            # degenerate: B^T S B with B = [I | v] of shape (n - 1) x n
            s = random_symmetric(rng, n - 1)
            b = [[1 if i == j else 0 for j in range(n - 1)] + [rng.randint(-2, 2)]
                 for i in range(n - 1)]
            L = IntSymMatrix.from_rows(mat_mul(mat_mul(mat_transpose(b), s), b))
        rd, block = regular_decomposition(L), block_decomposition(L).matrix
        factors = [x for x in sympy_invariant_factors(L.rows(), n, n) if x]
        assert rd.matrix is L
        assert len(factors) + rd.nullity == n
        assert block.m == len(factors)
        assert abs(determinant(block)) == math.prod(factors) != 0
        assert rd.cyclic_orders == tuple(x for x in factors if x > 1)
        assert signature(L) == signature(block)


def test_regular_decomposition_deterministic():
    L = IntSymMatrix.from_rows([[2, 2, 0], [2, 2, 1], [0, 1, 0]])
    a = regular_decomposition(L)
    b = regular_decomposition(L)
    assert a == b


# ---------------------------------------------------------------------------
# Signature

def test_signature_hyperbolic_plane():
    assert signature([[0, 1], [1, 0]]) == 0


def test_signature_positive_definite_two_by_two():
    # eigenvalues 1 and 3 by the characteristic polynomial x^2 - 4x + 3
    assert signature([[2, 1], [1, 2]]) == 2


def test_signature_e8():
    assert signature(E8_ROWS) == 8
    assert determinant(E8_ROWS) == 1


def test_signature_matches_float_eigenvalues():
    import numpy as np

    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = random_symmetric(rng, n)
        eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
        want = sum(1 for x in eig if x > 1e-8) - sum(1 for x in eig if x < -1e-8)
        assert signature(rows) == want


def maslov_shaped_gram(rng, g, bound=3):
    """A symmetric 3g x 3g matrix with zero g x g diagonal blocks, the shape
    of a Maslov Gram."""
    n = 3 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if i // g != j // g:
                rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return rows


def test_signature_agrees_with_charpoly_on_maslov_shaped_grams():
    rng = random.Random(211)
    for _ in range(150):
        rows = maslov_shaped_gram(rng, rng.choice((1, 2, 3)))
        assert signature(rows) == charpoly_signature(rows)


def test_signature_agrees_with_charpoly_on_rank_deficient_congruences():
    # B^T S B with B of shape r x n, r < n: rank at most r, so the repair
    # and the radical both run.
    rng = random.Random(223)
    for _ in range(150):
        n = rng.randint(2, 7)
        r = rng.randint(1, n - 1)
        s = random_symmetric(rng, r, bound=3)
        if rng.random() < 0.5:
            for i in range(r):
                s[i][i] = 0
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        rows = mat_mul(mat_mul(mat_transpose(b), s), b)
        assert signature(rows) == charpoly_signature(rows)


def test_signature_empty_and_one_by_one():
    assert signature([]) == 0
    assert signature(IntSymMatrix.empty()) == 0
    for x, want in ((0, 0), (5, 1), (-3, -1)):
        assert signature([[x]]) == want == charpoly_signature([[x]])


def test_signature_reads_only_the_upper_triangle():
    rng = random.Random(227)
    for _ in range(100):
        rows = (maslov_shaped_gram(rng, rng.choice((1, 2))) if rng.random() < 0.5
                else random_symmetric(rng, rng.randint(1, 7), bound=3))
        upper = [[x if j >= i else 0 for j, x in enumerate(row)]
                 for i, row in enumerate(rows)]
        before = [row[:] for row in rows]
        assert signature(upper) == signature(rows) == charpoly_signature(rows)
        assert rows == before  # the input is not modified


def test_signature_is_kept_by_the_matrix_outside_its_fields(monkeypatch):
    L, fresh = IntSymMatrix.from_rows(E8_ROWS), IntSymMatrix.from_rows(E8_ROWS)
    assert signature(L) == 8
    crossed = []

    def counted(*args, _fn=intlinalg._cross):
        crossed.append(args)
        return _fn(*args)
    monkeypatch.setattr(intlinalg, "_cross", counted)
    assert signature(L) == 8 and not crossed  # no second elimination
    assert signature(fresh) == 8 and crossed  # another instance eliminates
    assert (L == fresh, hash(L) == hash(fresh), repr(L) == repr(fresh)) \
        == (True, True, True)
    assert [f.name for f in dataclasses.fields(L)] == ["entries"]
    del crossed[:]
    assert signature(E8_ROWS) == 8 and crossed  # plain rows keep nothing


# ---------------------------------------------------------------------------
# Rational rank and denominators

def clear_denominators_by_fractions(values):
    """The former implementation: every entry through ``Fraction``."""
    fracs = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in fracs))
    return [x.numerator * (scale // x.denominator) for x in fracs]


def test_clear_denominators_matches_the_fraction_implementation():
    rng = random.Random(229)
    cases = [[], [0], [3, -4, 0, 12], [Fraction(1, 2)], [Fraction(-6, 4), 3],
             [Fraction(4, 2), Fraction(0, 5)], [True, False, 2],
             [Fraction(1, 3), 2, Fraction(-5, 6), 0]]
    for _ in range(300):
        n = rng.randint(1, 6)
        kind = rng.randrange(3)
        cases.append([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      if kind == 1 or (kind == 2 and rng.random() < 0.5)
                      else rng.randint(-9, 9) for _ in range(n)])
    for values in cases:
        got = clear_denominators(values)
        assert got == clear_denominators_by_fractions(values)
        assert all(type(x) is int for x in got)
        assert clear_denominators(iter(values)) == got


def test_triangular_rational_rank_agrees_with_full_elimination_and_sympy():
    # The name is kept from the triangular Gauss-Jordan this once compared
    # against; the rank now comes from the symmetric elimination of A A^T.
    rng = random.Random(233)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
        if n >= 2 and rng.random() < 0.4:
            rows[-1] = [Fraction(3, 2) * x - y for x, y in zip(rows[0], rows[1])]
        assert rational_rank(rows) == Matrix(rows).rank()
    assert rational_rank([]) == rational_rank([[], []]) == 0


# ---------------------------------------------------------------------------
# Torsion of the regular block

def elements(mod):
    """Every element of a torsion module as a coefficient tuple ``(a1, ...,
    at)`` with ``0 <= ai < di``."""
    return itertools.product(*(range(d) for d in mod.cyclic_orders))


def test_cokernel_examples():
    rd = regular_decomposition(IntSymMatrix.from_rows([[3]]))
    assert rd.cyclic_orders == (3,)
    assert sorted(elements(quadmod.from_decomposition(rd))) \
        == [(0,), (1,), (2,)]

    rd = regular_decomposition(IntSymMatrix.from_rows([[2, 0], [0, 2]]))
    assert rd.cyclic_orders == (2, 2)

    rd = regular_decomposition(IntSymMatrix.empty())
    assert rd.cyclic_orders == ()
    assert rd.order == 1
    assert list(elements(quadmod.from_decomposition(rd))) == [()]


def test_cokernel_enumeration_cap(monkeypatch):
    # Building the torsion module enumerates nothing; the one cap on
    # walking it is the Gauss sum's, checked before any element is produced.
    L = IntSymMatrix.from_rows([[1009, 0], [0, 1013]])
    rd = regular_decomposition(L)
    assert rd.order == 1009 * 1013
    mod = quadmod.from_decomposition(rd)
    assert mod.order == rd.order
    monkeypatch.setattr(quadmod, "GROUP_ENUMERATION_CAP", 1000)
    with pytest.raises(GroupTooLarge,
                       match="^torsion group of order 1022117 exceeds cap 1000$"):
        quadmod.gauss_sums([(quadmod.from_surgery(L), 2)])[0]


def bfs_cokernel_order(L):
    """Independent enumeration: reachable residue classes of Z^m / L Z^m,
    canonicalized through the fractional parts of L^{-1} x."""
    m = L.m
    cols = [list(col) for col in zip(*exact_inverse(L.rows()))]

    def key(vec):
        return tuple(x % 1 for x in vec)

    start = key([Fraction(0)] * m)
    seen = {start}
    frontier = [[Fraction(0)] * m]
    while frontier:
        current = frontier.pop()
        for j in range(m):
            for s in (1, -1):
                nxt = [a + s * b for a, b in zip(current, cols[j])]
                kk = key(nxt)
                if kk not in seen:
                    seen.add(kk)
                    frontier.append(nxt)
    return len(seen)


def test_cokernel_order_matches_determinant_on_100_randoms():
    rng = random.Random(17)
    done = 0
    while done < 100:
        n = rng.randint(1, 3)
        L = IntSymMatrix.from_rows(random_symmetric(rng, n, 4))
        det = determinant(L)
        if det == 0 or abs(det) > 200:
            continue
        rd = regular_decomposition(L)
        assert rd.order == abs(det)
        assert bfs_cokernel_order(L) == abs(det)
        done += 1


def degenerate_draw(rng, m, s=None, bound=2):
    """``(B^T S B, S)`` of rank ``m - 2``: ``S`` the given nondegenerate
    (m - 2) x (m - 2) matrix or a random symmetric one with entries in
    [-4, 4], and ``B = [I | V]`` with ``V`` in [-bound, bound].  The torsion
    of its regular block is that of ``S``, of order ``|det S|``."""
    n = m - 2
    while s is None or determinant(s) == 0:
        s = random_symmetric(rng, n, 4)
    b = [[int(i == j) for j in range(n)]
         + [rng.randint(-bound, bound) for _ in range(2)] for i in range(n)]
    return IntSymMatrix.from_rows(mat_mul(mat_mul(mat_transpose(b), s), b)), s


def test_generator_reps_have_stated_orders(time_limit):
    # Nondegenerate L, whose lift classes have their orders in Z^m / L Z^m,
    # and degenerate B^T S B of rank m - 2 up to m = 12, whose lifts U maps
    # to the standard basis vectors e_i of the regular block built from the
    # reference U, there of the orders of a second Smith form of that block.
    rng = random.Random(19)
    for _ in range(50):
        n = rng.randint(1, 3)
        L = IntSymMatrix.from_rows(random_symmetric(rng, n, 4))
        if determinant(L) != 0:
            rd = regular_decomposition(L)
            # order * rep lies in the column lattice, no smaller multiple does
            inverse = exact_inverse(L.rows())
            for order, rep in zip(rd.cyclic_orders, rd.generator_reps):
                assert cokernel_order_of(inverse, rep) == order
    for m in range(3, 13):
        for _ in range(3):
            L, s = degenerate_draw(rng, m)
            rd = regular_decomposition(L)
            u, dl, _ = reference_smith_normal_form(L)
            block = block_decomposition(L).matrix
            assert (block.m, rd.nullity) == (m - 2, 2)
            assert rd.order == abs(determinant(s))
            d, _ = smith_normal_form(block)
            assert rd.cyclic_orders == tuple(
                d[i][i] for i in range(m - 2) if d[i][i] > 1)
            inverse = exact_inverse(block.rows())
            steps = [i for i in range(m) if dl[i][i] > 1]
            for i, order, rep in zip(steps, rd.cyclic_orders,
                                     rd.generator_reps):
                e_i = [int(r == i) for r in range(m)]
                assert mat_vec(u, rep) == e_i
                assert cokernel_order_of(inverse, e_i[:m - 2]) == order
                assert integral_solution(L.rows(),
                                         [order * x for x in rep]) is not None


# ---------------------------------------------------------------------------
# Inverse form values

def test_even_level_coset_invariance():
    # k * [q(x + L z) - q(x)] must be an even integer for even k
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 3)
        L = IntSymMatrix.from_rows(random_symmetric(rng, n, 4))
        if determinant(L) == 0:
            continue
        k = rng.choice((2, 4, 6, 8))
        x = [rng.randint(-4, 4) for _ in range(n)]
        z = [rng.randint(-3, 3) for _ in range(n)]
        shifted = [a + b for a, b in zip(x, mat_vec(L.rows(), z))]
        inverse = exact_inverse(L.rows())
        diff = k * (inverse_form(inverse, shifted) - inverse_form(inverse, x))
        assert diff.denominator == 1 and diff.numerator % 2 == 0
