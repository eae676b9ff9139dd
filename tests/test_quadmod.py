import math
import random
from fractions import Fraction

import numpy as np
import pytest

from abtqft import phasesums, quadmod
from abtqft.errors import DegenerateMatrix, GroupTooLarge
from abtqft.intlinalg import (
    IntSymMatrix,
    RegularDecomposition,
    mat_mul,
    regular_decomposition,
)
from abtqft.numeric import (PolarValue, UnitPhase, polar_to_approx,
                            sum_tolerance, unit_phase_eval)
from abtqft.compare import E8_ROWS, verify_reciprocity_dt
from abtqft.extended import modular_rep
from abtqft.quadmod import (
    FiniteQuadraticModule,
    cyclic_module,
    from_decomposition,
    from_surgery,
    gauss_sums,
)
from abtqft.surgery import SurgeryPresentation, coloring_sums
from test_intlinalg import (block_decomposition, degenerate_draw,
                             determinant, elements, exact_inverse,
                             inverse_form, mat_transpose)
from test_surgery import random_unimodular


def sym(rows):
    return IntSymMatrix.from_rows(rows)


def random_symmetric(rng, n, bound=4):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return sym(rows)


# ---------------------------------------------------------------------------
# Construction from surgery matrices

def test_from_surgery_order_two():
    mod = from_surgery(sym([[2]]))
    assert mod.cyclic_orders == (2,)
    assert mod.q((1,)) == Fraction(1, 4)


def test_from_surgery_unimodular_is_trivial():
    mod = from_surgery(sym([[1]]))
    assert mod.order == 1
    assert mod.q(()) == 0


@pytest.mark.parametrize("rows", [[], [[1]], [[0]], [[1, 0], [0, 0]],
                                  [[0, 1], [1, 0]], list(E8_ROWS)],
                         ids=["empty", "unit", "zero", "radical", "hyperbolic",
                              "E8"])
def test_trivial_group_module_runs_no_elimination(rows, eliminations):
    # A trivial group has no lifts, so no Gram: the module reads the rank
    # that L keeps from its Smith form's determinant and runs no
    # elimination, and a nullity that misstates that rank still refuses.
    L = sym(rows)
    rd = regular_decomposition(L)
    assert rd.cyclic_orders == ()
    del eliminations[:]
    assert from_decomposition(rd) == FiniteQuadraticModule((), ())
    for nullity in {rd.nullity - 1, rd.nullity + 1} - {-1}:
        with pytest.raises(DegenerateMatrix, match=f"^matrix of nullity "
                           f"{nullity} has rank {L.m - rd.nullity}$"):
            from_decomposition(RegularDecomposition(L, nullity, (), ()))
    assert eliminations == []


def test_from_surgery_order_three():
    mod = from_surgery(sym([[3]]))
    assert mod.cyclic_orders == (3,)
    assert mod.q((1,)) == Fraction(1, 6)
    assert mod.q((2,)) == Fraction(2, 3)


def test_from_surgery_ignores_null_directions():
    # congruent to [[2]] + 0: same torsion data as [[2]]
    mod = from_surgery(sym([[2, 2], [2, 2]]))
    assert mod.cyclic_orders == (2,)
    assert mod.q((1,)) in (Fraction(1, 4), Fraction(3, 4))


def test_from_surgery_group_cap():
    # |T| = 1009 * 1013 = 1022117: the module builds, its Gauss sum refuses
    mod = from_surgery(sym([[1009, 0], [0, 1013]]))
    with pytest.raises(GroupTooLarge,
                       match="^torsion group of order 1022117 exceeds cap 1000000$"):
        gauss_sums([(mod, 2)])[0]


# ---------------------------------------------------------------------------
# Gauss sums

def test_gauss_sum_trivial_group():
    assert gauss_sums([(from_surgery(sym([[1]])), 2)])[0] == pytest.approx(1 + 0j)


def test_gauss_sum_order_two_vanishes_at_level_two():
    assert abs(gauss_sums([(from_surgery(sym([[2]])), 2)])[0]) < 1e-12


def test_gauss_sum_order_three_level_two_is_i():
    val = gauss_sums([(from_surgery(sym([[3]])), 2)])[0]
    assert abs(val - 1j) < 1e-12


def lift(rd, element):
    """The lift ``sum a_i g_i`` of a torsion element through the generator
    reps of a decomposition."""
    reps = rd.generator_reps
    return [sum(a * g[r] for a, g in zip(element, reps))
            for r in range(rd.matrix.m)]


def lift_q_values(rd):
    """``q`` of every torsion element, ``(1/2) x^T M^{-1} x`` mod 1 at its
    lift ``x``, for the nondegenerate matrix ``M`` of a decomposition (a
    regular block of :func:`test_intlinalg.block_decomposition`), from
    sympy's exact inverse rather than the Gram matrix."""
    inverse = exact_inverse(rd.matrix.rows())
    return {element: (inverse_form(inverse, lift(rd, element)) / 2) % 1
            for element in elements(from_decomposition(rd))}


def gauss_sum_per_element(q_values, k):
    """Per-element reference: one exact phase per group element."""
    total = 0j
    for q in q_values.values():
        total += unit_phase_eval(UnitPhase(k * q))
    return total / math.sqrt(len(q_values))


def test_gauss_sum_matches_per_element_sum(time_limit):
    rng = random.Random(37)
    blocks = [sym(rows) for rows in SMALL_MATRICES]
    while len(blocks) < len(SMALL_MATRICES) + 30:
        L = random_symmetric(rng, rng.randint(1, 3))
        if determinant(L) != 0:
            blocks.append(L)
    # Degenerate B^T S B of rank m - 2 up to m = 12, whose q values come from
    # the regular block built by the reference Smith form; S = P^T D P with
    # P unimodular and D = +-1 but for two entries keeps |T| = |det D| small
    # enough to enumerate.
    for m in range(3, 13):
        n = m - 2
        d = [rng.choice((-1, 1)) for _ in range(n)]
        d[0], d[-1] = rng.choice((-2, 3, 4)), rng.choice((2, -3, 6))
        p = random_unimodular(rng, n, steps=2 * n)
        s = mat_mul(mat_mul(mat_transpose(p), [[d[i] * (i == j) for j in range(n)]
                                               for i in range(n)]), p)
        blocks.append(degenerate_draw(rng, m, s=s)[0])
    for L in blocks:
        mod = from_surgery(L)
        q_values = lift_q_values(block_decomposition(L))
        assert q_values == {x: mod.q(x) for x in elements(mod)}
        for k in (2, 4, 6, 8):
            want = gauss_sum_per_element(q_values, k)
            assert abs(gauss_sums([(mod, k)])[0] - want) <= sum_tolerance(mod.order)


def kernel_gauss_sum(module, k):
    """The normalized Gauss sum of a module by enumeration: its form ``k G``
    on the cyclic orders, modulus ``2e``, through the one exponential-sum
    kernel, as :func:`gauss_sums` sums a non-cyclic group."""
    total = phasesums.quadratic_phase_sums(
        [[[k * x for x in row] for row in module.gram]],
        module.cyclic_orders, 2 * module.exponent)[0]
    return total / math.sqrt(module.order)


def test_gauss_sum_near_group_cap_has_unit_modulus():
    # |T| = 999983 (prime), one step below the 10**6 cap: the kernel sums
    # over a single cyclic factor with modulus 2|T|, where int64 overflow in
    # the quadratic values would show.
    mod = from_surgery(sym([[999983]]))
    assert abs(abs(kernel_gauss_sum(mod, 2)) - 1) <= sum_tolerance(mod.order)


def test_root_table_cache_keeps_no_large_table():
    # A table for modulus N holds 16 N bytes; at the group cap N ~ 2 * 10**6.
    phasesums._root_table.cache_clear()
    for p in (999983, 999979):
        kernel_gauss_sum(from_surgery(sym([[p]])), 2)
    assert phasesums._root_table.cache_info().currsize == 0
    kernel_gauss_sum(from_surgery(sym([[3]])), 2)
    assert phasesums._root_table.cache_info().currsize == 1


def test_grid_cache_keeps_no_large_grid():
    # An unsplit cyclic group of order p has a trailing grid of 8 p bytes;
    # only its empty leading grid is small enough to keep.
    phasesums._grid.cache_clear()
    for p in (999983, 999979):
        kernel_gauss_sum(from_surgery(sym([[p]])), 2)
    assert phasesums._grid.cache_info().currsize == 1
    kernel_gauss_sum(from_surgery(sym([[3]])), 2)
    assert phasesums._grid.cache_info().currsize == 2


# ---------------------------------------------------------------------------
# The closed form of cyclic Gauss sums, against the enumeration kernel

def closed_gauss_sum(a, n):
    """:func:`quadmod.cyclic_gauss_sum` as the exact polar value, converted
    by :func:`polar_to_approx`."""
    m2, j = quadmod.cyclic_gauss_sum(a, n)
    return polar_to_approx(PolarValue(m2, UnitPhase(Fraction(j, 8))))


def test_cyclic_closed_form_is_the_kernel_on_every_small_form(time_limit):
    # Every Gram g mod 2n of Z/n, n <= 64, at every even level k <= 16:
    # one kernel batch per n, ground truth for the closed form.
    for n in range(1, 65):
        forms = [(g, k) for g in range(2 * n) for k in range(2, 17, 2)]
        totals = phasesums.quadratic_phase_sums(
            [[[k * g]] for g, k in forms], (n,), 2 * n)
        for (g, k), total in zip(forms, totals):
            a = k // 2 * g
            closed = closed_gauss_sum(a, n)
            assert abs(closed - total / math.sqrt(n)) <= sum_tolerance(n)
            # The sum vanishes exactly when c = n / gcd(a, n) is 2 mod 4.
            c = n // math.gcd(a, n)
            assert (closed == 0) == (c % 4 == 2)


#: Cyclic groups near the 10**6 cap, a prime, powers of 2 and 3 and 4 times
#: a prime, each with units and non-units ``a``: the last of 2**19 and of
#: 4 * 250007 leave ``c = 2``, where the sum vanishes.
NEAR_CAP = [*((999983, a) for a in (1, 2, 0)),
            *((2 ** 19, a) for a in (1, 3, 2 ** 6, 2 ** 18)),
            *((3 ** 12, a) for a in (1, 2, 3 ** 5)),
            *((4 * 250007, a) for a in (1, 3, 250007, 2 * 250007))]


@pytest.mark.parametrize("n, a", NEAR_CAP)
def test_cyclic_closed_form_is_the_kernel_near_the_group_cap(n, a):
    total = phasesums.quadratic_phase_sums([[[2 * a]]], (n,), 2 * n)[0]
    assert abs(closed_gauss_sum(a, n) - total / math.sqrt(n)) \
        <= sum_tolerance(n)


def test_jacobi_symbol_is_sympys():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 200, 2):
        for a in range(400):
            assert quadmod.jacobi_symbol(a, n) == sympy.jacobi_symbol(a, n)


def test_cyclic_sums_are_their_polar_values_bit_for_bit():
    # gauss_sums converts (m2, j) through a table of the eighth roots; the
    # value is polar_to_approx of the exact polar value for all 8 phases.
    seen = set()
    for n in range(1, 41):
        for g in range(2 * n):
            mod = FiniteQuadraticModule((n,), ((g,),))
            seen.add(quadmod.cyclic_gauss_sum(g, n)[1])
            assert repr(gauss_sums([(mod, 2)])[0]) \
                == repr(closed_gauss_sum(g, n))
    assert seen == set(range(8))


#: Modules of several groups, some sharing one: trivial (two of them),
#: Z/3 (three Grams), Z/2, Z/2 + Z/2, Z/5 (two Grams) and a degenerate L.
BATCH_MATRICES = [[[3]], [[1]], [[2, 1], [1, 2]], [[2]], [[-3]], [],
                  [[2, 0], [0, 2]], [[5]], [[-5]], [[1, 0], [0, 0]],
                  [[6, 3, 0], [3, 6, 0], [0, 0, 0]]]


def batch_pairs():
    modules = [from_surgery(sym(rows)) for rows in BATCH_MATRICES]
    return [(mod, k) for k in (2, 4, 6) for mod in modules] \
        + [(modules[0], 2), (modules[2], 4)]


def test_gauss_sums_is_gauss_sum_bit_for_bit():
    pairs = batch_pairs()
    assert [repr(z) for z in gauss_sums(pairs)] \
        == [repr(gauss_sums([(mod, k)])[0]) for mod, k in pairs]
    assert gauss_sums([]) == []


def test_gauss_sums_runs_one_kernel_call_per_group(monkeypatch):
    groups = []

    def counted(grams, moduli, modulus, _fn=phasesums.quadratic_phase_sums):
        groups.append(tuple(moduli))
        return _fn(grams, moduli, modulus)

    monkeypatch.setattr(phasesums, "quadratic_phase_sums", counted)
    pairs = batch_pairs()
    gauss_sums(pairs)
    # Z/2 + Z/2 and Z/3 + Z/9 reach the kernel, once each; the trivial and
    # cyclic groups are summed in closed form.
    assert groups == [(2, 2), (3, 9)]
    assert groups == list(dict.fromkeys(mod.cyclic_orders for mod, _ in pairs
                                        if len(mod.cyclic_orders) > 1))
    groups.clear()
    gauss_sums([pair for pair in pairs if len(pair[0].cyclic_orders) <= 1])
    assert groups == []


REFUSALS = [
    (False, ValueError, "^level k must be an even integer >= 2$"),
    (True, GroupTooLarge, "^torsion group of order 7 exceeds cap 4$"),
]


@pytest.mark.parametrize("large_first, raised, message", REFUSALS)
def test_gauss_sums_refuses_the_first_refused_pair_before_any_sum(
        large_first, raised, message, monkeypatch):
    def never(*args):
        raise AssertionError("a sum ran before every pair was checked")

    monkeypatch.setattr(quadmod, "GROUP_ENUMERATION_CAP", 4)
    monkeypatch.setattr(phasesums, "quadratic_phase_sums", never)
    small, large = from_surgery(sym([[3]])), from_surgery(sym([[7]]))
    klein = from_surgery(sym([[2, 0], [0, 2]]))  # summed by the kernel
    refused = [(small, 3), (large, 2)]  # an odd level, a group over the cap
    pairs = [(small, 2), (klein, 2)] \
        + (refused[::-1] if large_first else refused)
    with pytest.raises(raised, match=message):
        gauss_sums(pairs)


def test_gauss_sum_requires_even_level():
    with pytest.raises(ValueError):
        gauss_sums([(from_surgery(sym([[3]])), 3)])[0]


LEVEL_MESSAGE = "level k must be an even integer >= 2"

LEVEL_TAKING = {
    "coloring_sums": lambda k: coloring_sums(
        [(SurgeryPresentation(sym([[1]])), k)]),
    "gauss_sums": lambda k: gauss_sums([(from_surgery(sym([[3]])), k)]),
    "cyclic_module": cyclic_module,
    "modular_rep": modular_rep,
    "verify_reciprocity_dt": lambda k: verify_reciprocity_dt(sym([[1]]), k),
}


@pytest.mark.parametrize("name", sorted(LEVEL_TAKING))
@pytest.mark.parametrize("k", [0, 1, 3, -2])
def test_every_level_taking_function_has_the_one_level_rule(name, k):
    with pytest.raises(ValueError) as info:
        LEVEL_TAKING[name](k)
    assert str(info.value) == LEVEL_MESSAGE


# ---------------------------------------------------------------------------
# The standard cyclic module (Z_k, q_k)

@pytest.mark.parametrize("k", range(2, 65, 2))
def test_cyclic_module_is_the_module_of_the_k_framed_unknot(k):
    assert cyclic_module(k) == from_surgery(sym([[k]]))


def test_bicharacter_examples():
    assert cyclic_module(4).linking((1,), (2,)) == Fraction(1, 2)
    assert cyclic_module(4).linking((0,), (3,)) == 0
    assert cyclic_module(2).linking((1,), (1,)) == Fraction(1, 2)


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_cyclic_module_values_on_every_representative(k):
    # q and the linking are well defined mod k at even k, so every integer
    # representative gives the reduced Fraction of x^2/2k and xy/k
    module = cyclic_module(k)
    for x in range(-2 * k, 2 * k):
        assert module.q((x,)) == Fraction(x * x, 2 * k) % 1
        for y in range(-k, k):
            assert module.linking((x,), (y,)) == Fraction(x * y, k) % 1


def test_cyclic_data_requires_even_level():
    with pytest.raises(ValueError):
        cyclic_module(3)


def test_twist_exponent():
    assert cyclic_module(4).q((1,)) == Fraction(1, 8)
    assert cyclic_module(4).q((2,)) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# Structural invariants

SMALL_MATRICES = [
    [[2]], [[3]], [[4]], [[5]], [[-3]], [[6]],
    [[2, 1], [1, 2]], [[2, 0], [0, 2]], [[3, 1], [1, 3]],
    [[2, 1], [1, -2]], [[4, 1], [1, 4]],
    [[2, 0, 0], [0, 3, 0], [0, 0, 4]],
]


def add(u, v):
    """Tuple addition without reduction, so lifts add exactly."""
    return tuple(a + b for a, b in zip(u, v))


@pytest.mark.parametrize("rows", SMALL_MATRICES)
def test_refinement_identity_exhaustive(rows):
    mod = from_surgery(sym(rows))
    assert mod.order <= 500
    group = list(elements(mod))
    for u in group:
        for v in group:
            lhs = (mod.q(add(u, v)) - mod.q(u) - mod.q(v)) % 1
            assert lhs == mod.linking(u, v)


@pytest.mark.parametrize("rows", SMALL_MATRICES[:6])
def test_linking_symmetric_and_bilinear(rows):
    mod = from_surgery(sym(rows))
    group = list(elements(mod))
    for u in group:
        for v in group:
            assert mod.linking(u, v) == mod.linking(v, u)
            for w in group:
                total = (mod.linking(u, w) + mod.linking(v, w)) % 1
                assert mod.linking(add(u, v), w) == total


def test_q_vanishes_at_zero():
    for rows in SMALL_MATRICES:
        mod = from_surgery(sym(rows))
        assert mod.q((0,) * len(mod.cyclic_orders)) == 0


def test_q_is_lift_sensitive_on_odd_blocks_but_weighted_q_descends():
    # On an odd block the raw quadratic value moves by 1/2 across lifts of
    # one coset; every even-level multiple of it is coset-independent.
    inverse = exact_inverse([[3]])

    def q_of_lift(x):
        return (inverse_form(inverse, x) / 2) % 1

    assert from_surgery(sym([[3]])).q((0,)) == q_of_lift([0]) == 0
    assert q_of_lift([3]) == Fraction(1, 2)
    for k in (2, 4, 6, 8):
        assert (k * q_of_lift([3])) % 1 == (k * q_of_lift([0])) % 1


def test_level_weighted_q_constant_on_cosets():
    from abtqft.intlinalg import mat_vec

    rng = random.Random(31)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 3)
        L = random_symmetric(rng, n)
        if determinant(L) == 0:
            continue
        rd = regular_decomposition(L)
        reg = rd.matrix
        k = rng.choice((2, 4, 6, 8))
        element = tuple(rng.randrange(d) for d in rd.cyclic_orders)
        base = lift(rd, element)
        z = [rng.randint(-3, 3) for _ in range(reg.m)]
        shifted = [a + b for a, b in zip(base, mat_vec(reg.rows(), z))]
        inverse = exact_inverse(reg.rows())
        delta = k * (inverse_form(inverse, shifted) - inverse_form(inverse, base)) / 2
        assert delta.denominator == 1
        checked += 1


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_bicharacter_rows_are_orthogonal(k):
    module = cyclic_module(k)
    mat = np.array([[unit_phase_eval(UnitPhase(module.linking((x,), (y,))))
                     for y in range(k)] for x in range(k)])
    gram = mat @ mat.conj().T
    assert np.max(np.abs(gram - k * np.eye(k))) < 1e-10


def test_nondegeneracy_of_bicharacter():
    for k in (2, 4, 6, 8):
        module = cyclic_module(k)
        for x in range(1, k):
            assert any(module.linking((x,), (y,)) != 0 for y in range(k))
