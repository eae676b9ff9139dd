import itertools
import math
import random
from fractions import Fraction

import pytest

from abtqft import surgery
from abtqft.compare import E8_ROWS
from abtqft.errors import EnumerationTooLarge, IndexOutOfRange
from abtqft.intlinalg import IntSymMatrix, mat_mul, signature
from abtqft.numeric import (PolarValue, UnitPhase, polar_to_approx,
                            sum_tolerance, unit_phase_eval)
from abtqft.phasesums import quadratic_phase_sums
from abtqft.surgery import (
    KirbyMove,
    SurgeryPresentation,
    apply_kirby,
    coloring_sums,
    max_enumeration,
    normalization_prefactor,
    random_presentation,
    rt_raw_closed,
    rt_raw_closed_many,
)
from test_intlinalg import mat_transpose
from test_numeric import phase_sum_per_term

LEVELS = (2, 4, 6, 8)


def coloring_sum_exact(rows, k, linear=None, constant=0):
    """Per-term reference of a coloring sum, ``sum over n in (Z_k)^m of
    exp((pi i / k)(n^T A n + linear.n + constant))``: one exact rational
    phase per coloring."""
    m = len(rows)
    return phase_sum_per_term(rows, [k] * m, 2 * k, linear or [0] * m, constant)


def rt_link_eval(p, g, k):
    """Exact link-evaluation phase of one coloring ``g`` of the surgery
    components, the insertion colors taken from the presentation:
    ``(<g, L g> + 2 <g, B h> + <h, C h>) / 2k``, the form of the whole
    linking matrix at the coloring ``g + h`` of every component, so that it
    shares no code with :func:`coloring_sums`."""
    assert len(g) == p.m
    x = tuple(g) + p.insertion_colors
    quad = sum(xi * sum(c * xj for c, xj in zip(row, x))
               for xi, row in zip(x, p.linking.entries))
    return UnitPhase(Fraction(quad, 2 * k))


def rt_raw_closed_reference(p, k):
    """Per-term reference of :func:`rt_raw_closed`: exact phases from
    :func:`rt_link_eval`, summed one coloring at a time."""
    total = 0j
    for g in itertools.product(range(k), repeat=p.m):
        total += unit_phase_eval(rt_link_eval(p, g, k))
    pref = normalization_prefactor(p.m, signature(p.surgery), k)
    return polar_to_approx(pref) * total


def random_unimodular(rng, m, steps=6):
    """Product of random elementary transvections (determinant +1): ``U =
    E_steps ... E_1``, ``E = I + s e_i e_j^T`` for the draw ``(i, j, s)`` of
    :func:`surgery.random_transvection`; no draw below ``m = 2``."""
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    if m < 2:
        return u
    for _ in range(steps):
        i, j, s = surgery.random_transvection(rng, m)
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
    return u


def closed(rows):
    return SurgeryPresentation(IntSymMatrix.from_rows(rows))


def with_insertions(L, B, C, h):
    """The presentation with surgery block ``L``, mixed block ``B``,
    insertion block ``C`` and colors ``h``: the block assembly of
    :meth:`SurgeryPresentation.from_json`."""
    return SurgeryPresentation.from_json(
        {"L": [list(row) for row in L], "B": [list(row) for row in B],
         "C": [list(row) for row in C], "h": list(h)})


def direct_sum(a, b):
    """Split presentation of the connected sum: the block-diagonal join,
    its components ordered [surgery of ``a`` | surgery of ``b`` | insertions
    of ``a`` | insertions of ``b``]."""
    joined = a.linking.direct_sum(b.linking).entries
    na = a.linking.m
    order = [*range(a.m), *range(na, na + b.m), *range(a.m, na),
             *range(na + b.m, len(joined))]
    return SurgeryPresentation(
        IntSymMatrix.from_rows([[joined[i][j] for j in order] for i in order]),
        a.insertion_colors + b.insertion_colors)


EMPTY = SurgeryPresentation(IntSymMatrix.empty())


# ---------------------------------------------------------------------------
# Stabilization Gauss sums

def a_gauss(k, sign):
    """``A+-(k) = sum_{s in Z_k} exp(+- pi i s^2 / k)``, the coloring sum of
    the ``+-1``-framed unknot through the kernel, and its closed form
    ``sqrt(k) e^{+- pi i/4}``, the one the prefactor expands."""
    brute = coloring_sums([(closed([[sign]]), k)])[0]
    return brute, PolarValue(Fraction(k), UnitPhase(Fraction(sign, 8)))


def test_a_gauss_level_two_plus():
    brute, closed_form = a_gauss(2, +1)
    assert abs(brute - (1 + 1j)) < 1e-12
    assert closed_form.magnitude_squared == 2
    assert closed_form.phase.angle == Fraction(1, 8)


def test_a_gauss_level_four_minus():
    brute, closed_form = a_gauss(4, -1)
    expect = math.sqrt(2) * (1 - 1j)
    assert abs(brute - expect) < 1e-12
    assert abs(polar_to_approx(closed_form) - expect) < 1e-12


@pytest.mark.parametrize("k", LEVELS + (10, 12))
@pytest.mark.parametrize("sign", [1, -1])
def test_a_gauss_brute_matches_closed_form(k, sign):
    brute, closed_form = a_gauss(k, sign)
    assert abs(brute - polar_to_approx(closed_form)) <= sum_tolerance(k)
    # The prefactor of [[sign]] is k^{-1/2} A^{-1}: the invariant of S^3.
    pref = polar_to_approx(normalization_prefactor(1, sign, k))
    assert abs(pref * brute - 1 / math.sqrt(k)) <= sum_tolerance(k)


def test_a_gauss_rejects_odd_level():
    with pytest.raises(ValueError):
        a_gauss(3, 1)


# ---------------------------------------------------------------------------
# Link evaluation

def test_link_eval_zero_coloring():
    p = closed([[3, 1], [1, -2]])
    assert rt_link_eval(p, (0, 0), 4).angle == 0


def test_link_eval_hopf_insertion():
    p = SurgeryPresentation(IntSymMatrix.from_rows([[0, 1], [1, 0]]), (1, 1))
    assert rt_link_eval(p, (), 4).angle == Fraction(1, 4)


def test_link_eval_single_framing():
    p = closed([[1]])
    assert rt_link_eval(p, (1,), 2).angle == Fraction(1, 4)


def test_link_eval_includes_mixed_block():
    p = with_insertions([[0]], [[1]], [[0]], (1,))
    # exponent 2*g*B*h = 2 at g=1: phase 2/(2k)
    assert rt_link_eval(p, (1,), 4).angle == Fraction(1, 4)


def random_presentation_with_insertions(rng, m, r):
    L = surgery.random_symmetric_matrix(rng, m, 4)
    C = surgery.random_symmetric_matrix(rng, r, 3)
    B = tuple(tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(m))
    h = tuple(rng.randint(-9, 9) for _ in range(r))
    return with_insertions(L.entries, B, C.entries, h)


def test_link_eval_is_the_full_quadratic_exponent():
    # <g, L g> + 2 <g, B h> + <h, C h> over 2k, written out entrywise.
    rng = random.Random(19)
    for _ in range(200):
        m, r, k = rng.randint(0, 3), rng.randint(0, 3), rng.choice(LEVELS)
        p = random_presentation_with_insertions(rng, m, r)
        g = [rng.randrange(k) for _ in range(m)]
        blocks = p.to_json()
        L, B, C, h = (blocks[key] for key in "LBCh")
        exponent = sum(g[i] * L[i][j] * g[j] for i in range(m) for j in range(m)) \
            + 2 * sum(g[i] * B[i][j] * h[j] for i in range(m) for j in range(r)) \
            + sum(h[i] * C[i][j] * h[j] for i in range(r) for j in range(r))
        assert rt_link_eval(p, g, k).angle == Fraction(exponent, 2 * k) % 1


# ---------------------------------------------------------------------------
# Closed invariant

@pytest.mark.parametrize("k", LEVELS)
def test_sphere_presentations(k):
    want = 1 / math.sqrt(k)
    assert abs(rt_raw_closed(closed([[1]]), k) - want) < 1e-12
    assert abs(rt_raw_closed(EMPTY, k) - want) < 1e-12


@pytest.mark.parametrize("k", LEVELS)
def test_zero_framing_gives_one(k):
    assert abs(rt_raw_closed(closed([[0]]), k) - 1) < 1e-12


def test_fast_path_matches_exact_reference():
    rng = random.Random(41)
    for _ in range(60):
        p = random_presentation(rng, max_components=3)
        k = rng.choice((2, 4, 6))
        assert abs(rt_raw_closed(p, k) - rt_raw_closed_reference(p, k)) < 1e-10


def test_quadratic_sum_fast_vs_exact_with_linear_terms():
    rng = random.Random(43)
    for _ in range(40):
        m = rng.randint(1, 3)
        rows = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                rows[i][j] = rows[j][i] = rng.randint(-4, 4)
        lin = [rng.randint(-6, 6) for _ in range(m)]
        const = rng.randint(-5, 5)
        k = rng.choice((2, 4, 6))
        # Odd linear terms, which no presentation produces, straight to the
        # kernel with the coloring sum's moduli k and modulus 2k.
        fast = quadratic_phase_sums([rows], [k] * m, 2 * k, [lin], [const])[0]
        slow = coloring_sum_exact(rows, k, lin, const)
        assert abs(fast - slow) < 1e-10


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "10")
    with pytest.raises(EnumerationTooLarge):
        rt_raw_closed(closed([[1, 0], [0, 1]]), 8)


def test_env_override_controls_cap(monkeypatch):
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "3")
    assert max_enumeration() == 3
    with pytest.raises(EnumerationTooLarge):
        rt_raw_closed(closed([[1]]), 4)
    monkeypatch.delenv("ABTQFT_MAX_ENUM")
    assert max_enumeration() == 10 ** 7


# ---------------------------------------------------------------------------
# Kirby moves

def test_k1_appends_block():
    p = apply_kirby(closed([[0]]), KirbyMove("K1", +1))
    assert p.surgery.entries == ((0, 0), (0, 1))
    # with insertions, the unknot is inserted after the surgery components
    p = apply_kirby(with_insertions([[0]], [[1]], [[2]], (1,)),
                    KirbyMove("K1", -1))
    assert p.to_json() == {"L": [[0, 0], [0, -1]], "B": [[1], [0]],
                           "C": [[2]], "h": [1]}


def test_k2_congruence_example():
    p = apply_kirby(closed([[1, 0], [0, 1]]), KirbyMove("K2", +1, 1, 0))
    assert p.surgery.entries == ((1, 1), (1, 2))


def test_k1_minus_preserves_value():
    base = closed([[1]])
    stabilized = apply_kirby(base, KirbyMove("K1", -1))
    assert abs(rt_raw_closed(base, 4) - 0.5) < 1e-12
    assert abs(rt_raw_closed(stabilized, 4) - 0.5) < 1e-12


def test_k2_equals_the_full_congruence():
    # The slide updates one row and one column of the whole linking
    # matrix; the oracle is A^T L A and A^T B with A = I + s E[target,
    # source], and C unchanged.
    rng = random.Random(23)
    for _ in range(300):
        m, r = rng.randint(2, 5), rng.randint(0, 3)
        p = random_presentation_with_insertions(rng, m, r)
        move = surgery.random_kirby_move(rng, m)
        if move.kind != "K2":
            continue
        a = [[int(row == col) for col in range(m)] for row in range(m)]
        a[move.target][move.source] = move.sign
        at = mat_transpose(a)
        want_L = mat_mul(mat_mul(at, p.surgery.rows()), a)
        want_B = mat_mul(at, p.to_json()["B"]) if r else [[]] * m
        blocks = apply_kirby(p, move).to_json()
        assert blocks == dict(p.to_json(), L=want_L, B=want_B)


def test_k2_requires_distinct_valid_indices():
    with pytest.raises(IndexOutOfRange):
        apply_kirby(closed([[1, 0], [0, 1]]), KirbyMove("K2", 1, 0, 2))
    with pytest.raises(IndexOutOfRange):
        apply_kirby(closed([[1, 0], [0, 1]]), KirbyMove("K2", 1, 1, 1))


def test_k2_moves_track_insertions():
    p = with_insertions([[1, 0], [0, 2]], [[1], [0]], [[0]], (1,))
    k = 4
    before = rt_raw_closed(p, k)
    for move in (KirbyMove("K2", +1, 0, 1), KirbyMove("K2", -1, 1, 0),
                 KirbyMove("K1", +1)):
        p = apply_kirby(p, move)
        assert abs(rt_raw_closed(p, k) - before) < sum_tolerance(k ** p.m)


def test_kirby_invariance_random_corpus():
    rng = random.Random(47)
    for _ in range(200):
        p = random_presentation(rng, max_components=3)
        k = rng.choice(LEVELS)
        before = rt_raw_closed(p, k)
        if p.m >= 2 and rng.random() < 0.6:
            i = rng.randrange(p.m)
            j = rng.randrange(p.m - 1)
            if j >= i:
                j += 1
            move = KirbyMove("K2", rng.choice((1, -1)), i, j)
        else:
            move = KirbyMove("K1", rng.choice((1, -1)))
        after = rt_raw_closed(apply_kirby(p, move), k)
        assert abs(after - before) <= sum_tolerance(k ** (p.m + 1))


def test_connected_sum_rule():
    rng = random.Random(53)
    for _ in range(40):
        a = random_presentation(rng, 2, 3)
        b = random_presentation(rng, 2, 3)
        k = rng.choice((2, 4))
        lhs = rt_raw_closed(direct_sum(a, b), k) * rt_raw_closed(EMPTY, k)
        rhs = rt_raw_closed(a, k) * rt_raw_closed(b, k)
        assert abs(lhs - rhs) < 1e-10


def test_orientation_reversal_conjugates():
    # The mirror presentation: every linking number and framing flips sign.
    rng = random.Random(59)
    for _ in range(40):
        p = random_presentation(rng, 3, 4)
        k = rng.choice((2, 4, 6))
        mirror = closed([[-x for x in row] for row in p.surgery.entries])
        assert abs(rt_raw_closed(mirror, k)
                   - rt_raw_closed(p, k).conjugate()) < 1e-10


def test_insertion_colors_live_mod_k():
    p = with_insertions([[2]], [[1]], [[1]], (1,))
    k = 6
    shifted = SurgeryPresentation(p.linking, (1 + 3 * k,))
    assert abs(rt_raw_closed(p, k) - rt_raw_closed(shifted, k)) < 1e-12


def test_rt_raw_closed_many_equals_one_call_per_presentation():
    # Mixed sizes and levels, with and without colored insertions, in an
    # order that interleaves the (m, k) classes.
    rng = random.Random(17)
    cases = []
    for _ in range(120):
        m, r, k = rng.randint(0, 4), rng.randint(0, 2), rng.choice(LEVELS)
        cases.append((random_presentation_with_insertions(rng, m, r), k))
    assert rt_raw_closed_many(cases) == [rt_raw_closed(p, k) for p, k in cases]
    assert rt_raw_closed_many([]) == []


def test_rt_raw_closed_many_refuses_the_first_pair_a_loop_refuses(monkeypatch):
    monkeypatch.setenv("ABTQFT_MAX_ENUM", "100")
    ok = closed([[1]])
    p3, p4 = (SurgeryPresentation(IntSymMatrix.diagonal([1] * m))
              for m in (3, 4))
    # 4^4 comes before 6^3 in the caller's order, though its class is
    # larger in m; both exceed the cap.
    with pytest.raises(EnumerationTooLarge, match=r"^4\^4 colorings"):
        rt_raw_closed_many([(ok, 2), (p4, 4), (p3, 6)])
    # A bad level after a refused pair is not reached, one before it is.
    with pytest.raises(EnumerationTooLarge, match=r"^6\^3 colorings"):
        rt_raw_closed_many([(p3, 6), (ok, 3)])
    with pytest.raises(ValueError, match="level"):
        rt_raw_closed_many([(ok, 3), (p3, 6)])


# ---------------------------------------------------------------------------
# Serialization

def test_presentation_json_round_trip():
    blocks = {"L": [[2, 1], [1, 0]], "B": [[1, 0], [0, 2]],
              "C": [[0, 1], [1, 3]], "h": [1, 2]}
    p = SurgeryPresentation.from_json(blocks)
    assert p.linking.entries == ((2, 1, 1, 0), (1, 0, 0, 2),
                                 (1, 0, 0, 1), (0, 2, 1, 3))
    assert p.to_json() == blocks
    assert SurgeryPresentation.from_json(p.to_json()) == p


def test_presentation_json_closed_defaults():
    p = SurgeryPresentation.from_json({"L": [[4]]})
    assert p == closed([[4]])


def test_empty_mixed_block_is_one_empty_row_per_surgery_component():
    # "B": [], "B": [[]] and a missing "B" mean the same zero-width block
    for blocks in ({"L": [[1]], "B": []}, {"L": [[1]], "B": [[]]},
                   {"L": [[1]]}):
        p = SurgeryPresentation.from_json(blocks)
        assert p == closed([[1]])
        assert p.to_json()["B"] == [[]]
        assert direct_sum(p, p) == closed([[1, 0], [0, 1]])


def randint_symmetric_matrix(rng, m, entry_bound):
    """The reference draw of ``random_symmetric_matrix``: the upper
    triangle row by row, each entry ``rng.randint(-b, b)``."""
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = rng.randint(-entry_bound, entry_bound)
    return IntSymMatrix.from_rows(rows)


def test_random_symmetric_matrix_draws_what_randint_draws():
    # Same matrix and same generator state after it, so every later draw
    # of a seeded report is the same too.
    for seed in range(200):
        for m in range(7):
            for bound in (1, 4, 6):
                rng, ref = random.Random(seed), random.Random(seed)
                assert surgery.random_symmetric_matrix(rng, m, bound) \
                    == randint_symmetric_matrix(ref, m, bound)
                assert rng.getstate() == ref.getstate()


def test_block_symmetry_enforced():
    with pytest.raises(ValueError):
        IntSymMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        SurgeryPresentation(IntSymMatrix.from_rows([[1]]), (1, 2))


# ---------------------------------------------------------------------------
# Large coloring sums

@pytest.mark.parametrize("k", [6, 8])
def test_e8_raw_invariant_is_k_to_the_minus_half(k, monkeypatch, time_limit):
    # E8 is even, unimodular and of signature 8, so its coloring sum is
    # k^4 and the raw invariant k^{-1/2}.  8^8 colorings exceed the default
    # cap; a per-term enumeration of either sum would not fit the time
    # limit.  The prefactor has magnitude k^{-9/2}, so the sum's budget
    # carried through it is far below 1e-9 * sqrt(k^8).
    monkeypatch.setenv("ABTQFT_MAX_ENUM", str(2 * 10 ** 7))
    e8 = closed(E8_ROWS)
    total = coloring_sums([(e8, k)])[0]
    assert abs(total - k ** 4) <= sum_tolerance(k ** 8)
    assert abs(rt_raw_closed(e8, k) - k ** -0.5) <= k ** -4.5 * sum_tolerance(k ** 8)


def test_cached_prefactor_is_bit_identical_to_the_exact_one():
    for m in range(9):
        for sigma in range(-m, m + 1):
            for k in LEVELS:
                assert surgery._approx_prefactor(m, sigma % 8, k) == \
                    polar_to_approx(normalization_prefactor(m, sigma, k))
