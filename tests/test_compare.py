import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from abtqft.compare import (
    E8_ROWS,
    EquivalenceCase,
    PhaseTable,
    ZERO_GAUSS_TOLERANCE,
    _CLASSIC_ROWS,
    _CORPUS_TORSION_BOUND,
    build_phase_table,
    cs_closed,
    cs_closed_many,
    default_corpus,
    load_fixture_table,
    random_degenerate,
    random_nondegenerate,
    verify_reciprocity_dt,
    verify_reciprocity_dt_many,
)
from abtqft import cli, compare, intlinalg, quadmod, surgery
from abtqft.errors import GroupTooLarge, InconsistentPhase
from abtqft.intlinalg import IntSymMatrix, regular_decomposition, signature
from abtqft.numeric import UnitPhase, sum_tolerance, unit_phase_eval
from abtqft.quadmod import from_decomposition, from_surgery, gauss_sums
from abtqft.surgery import (SurgeryPresentation, random_symmetric_matrix,
                            rt_raw_closed)
from test_intlinalg import (assert_module_is_the_blocks, block_decomposition,
                             degenerate_draw, determinant, mat_transpose)
from test_surgery import random_unimodular

LEVELS = (2, 4, 6, 8)


def sym(rows):
    return IntSymMatrix.from_rows(rows)


E8 = sym([list(r) for r in E8_ROWS])


def evaluate_case(L, k):
    """One pair on both routes: the torsion route, then the brute-force
    route unless the torsion Gauss sum vanishes."""
    cs = cs_closed(L, k)
    ratio = None
    if abs(cs.value) > ZERO_GAUSS_TOLERANCE:
        ratio = rt_raw_closed(SurgeryPresentation(L), k) / cs.value
    return EquivalenceCase(L, k, signature(L), ratio)


# ---------------------------------------------------------------------------
# Torsion-formula invariant

@pytest.mark.parametrize("k", LEVELS)
def test_cs_closed_sphere(k):
    res = cs_closed(sym([[1]]), k)
    assert res.m_exponent == Fraction(-1, 2)
    assert res.torsion_order == 1
    assert abs(res.value - 1 / math.sqrt(k)) < 1e-12


@pytest.mark.parametrize("k", LEVELS)
def test_cs_closed_zero_framing(k):
    res = cs_closed(sym([[0]]), k)
    assert res.m_exponent == 0
    assert abs(res.value - 1) < 1e-12


def test_cs_closed_vanishing_gauss_sum():
    res = cs_closed(sym([[2]]), 2)
    assert res.torsion_order == 2
    assert abs(res.value) < 1e-12


def test_cs_closed_value_decomposition():
    res = cs_closed(sym([[3]]), 2)
    assert res.torsion_order == 3
    assert abs(res.value - float(2) ** float(res.m_exponent) * res.gauss) < 1e-12


# ---------------------------------------------------------------------------
# Equivalence ratios

@pytest.mark.parametrize("k", (2, 4))
def test_ratio_examples(k):
    for rows, sigma in (([[1]], 1), ([[0]], 0)):
        case = evaluate_case(sym(rows), k)
        assert abs(case.ratio - 1) < 1e-10
        assert case.sigma_reg == sigma
    case = evaluate_case(E8, k)
    assert abs(case.ratio - 1) < 1e-9
    assert case.sigma_reg == 8


def test_ratio_skips_vanishing_gauss_sum():
    assert evaluate_case(sym([[2]]), 2).ratio is None


def test_two_sided_zero_when_gauss_sum_vanishes():
    # both routes vanish together; tested instead of the ratio
    rt = rt_raw_closed(SurgeryPresentation(sym([[2]])), 2)
    cs = cs_closed(sym([[2]]), 2).value
    assert abs(rt) < 1e-10 and abs(cs) < 1e-10


def test_default_convention_gives_unit_ratio_everywhere():
    rng = random.Random(61)
    from abtqft.surgery import random_symmetric_matrix

    checked = 0
    while checked < 80:
        L = random_symmetric_matrix(rng, rng.randint(1, 4), 4)
        k = rng.choice(LEVELS)
        ratio = evaluate_case(L, k).ratio
        if ratio is None:
            continue
        assert abs(ratio - 1) < 1e-7
        checked += 1


def positive_exponent_case(L, k):
    """The pair evaluated with the unconjugated torsion Gauss sum:
    ``rt / (sqrt(k^(nu - 1)) * gauss_sum)``."""
    nu = regular_decomposition(L).nullity
    cs = math.sqrt(float(k) ** (nu - 1)) * gauss_sums([(from_surgery(L), k)])[0]
    rt = rt_raw_closed(SurgeryPresentation(L), k)
    return EquivalenceCase(L, k, signature(L), rt / cs)


def test_positive_exponent_convention_is_signature_inconsistent():
    # Same signature class, different ratios: the positive-exponent reading
    # of the torsion sum admits no signature-indexed phase table.
    c3 = positive_exponent_case(sym([[3]]), 2)
    c5 = positive_exponent_case(sym([[5]]), 2)
    assert c3.sigma_reg == c5.sigma_reg == 1
    assert abs(c3.ratio + 1) < 1e-10
    assert abs(c5.ratio - 1) < 1e-10
    with pytest.raises(InconsistentPhase):
        build_phase_table([c3, c5])


def test_magnitude_matches_on_degenerate_presentations():
    rng = random.Random(67)
    for _ in range(50):
        L = random_degenerate(rng)
        k = rng.choice((2, 4))
        rt = rt_raw_closed(SurgeryPresentation(L), k)
        cs = cs_closed(L, k)
        expected = float(k) ** float(cs.m_exponent) * abs(cs.gauss)
        assert abs(abs(rt) - expected) < 1e-8


@pytest.mark.parametrize("rows, order, vanishes", [
    ([[-3, 4, 0, 2, -1, 3], [4, -1, -1, 3, 2, 3], [0, -1, -4, -1, 2, 3],
      [2, 3, -1, -1, 2, -1], [-1, 2, 2, 2, 3, -1], [3, 3, 3, -1, -1, -4]],
     1592, True),
    ([[-2, 1, 0, 3, 1, 2], [1, 4, -1, 0, 1, 2], [0, -1, 3, -3, 0, -1],
      [3, 0, -3, -4, 2, -2], [1, 1, 0, 2, 0, -4], [2, 2, -1, -2, -4, -2]],
     1771, False),
])
def test_cs_closed_finishes_on_6x6_draws(rows, order, vanishes, time_limit):
    # Two random 6x6 draws whose torsion route once did not finish.
    L = sym(rows)
    cs = cs_closed(L, 2)
    rt = rt_raw_closed(SurgeryPresentation(L), 2)
    tol = sum_tolerance(2 ** 6)
    assert cs.torsion_order == order
    assert (abs(cs.value) <= tol) == vanishes
    assert abs(cs.value - rt) <= tol


# ---------------------------------------------------------------------------
# Phase table

def test_phase_table_classic_corpus():
    corpus = [evaluate_case(sym(rows), k)
              for rows in ([[1]], [[-1]], [[0]], [[1, 0], [0, 1]])
              for k in (2, 4)]
    corpus.append(evaluate_case(E8, 2))
    table = build_phase_table(corpus)
    assert table.mapping[0] == UnitPhase(Fraction(0))
    assert table.mapping[1] == UnitPhase(Fraction(0))
    assert table.max_deviation < 1e-7


def test_phase_table_singleton_corpus():
    table = build_phase_table([evaluate_case(sym([[1]]), 2)])
    assert set(table.mapping) == {1}


def test_phase_table_json_round_trip():
    table = build_phase_table([evaluate_case(sym([[1]]), 2),
                               evaluate_case(sym([[0]]), 4)])
    clone = PhaseTable.from_json(table.to_json())
    assert clone.same_phases(table)
    assert clone.corpus_size == table.corpus_size


def test_default_corpus_is_deterministic_and_spans_classes():
    a = list(default_corpus(seed=0, size=120, block=cli.BLOCK))
    b = list(default_corpus(seed=0, size=120, block=cli.BLOCK))
    assert a == b
    table = build_phase_table(a)
    assert set(table.mapping) == set(range(8))
    assert None not in [case.ratio for case in a]  # no vanishing sums


def test_fixture_reproduced_by_rebuild():
    fixture = load_fixture_table()
    rebuilt = build_phase_table(default_corpus(
        seed=0, size=fixture.corpus_size, block=cli.BLOCK))
    assert rebuilt.same_phases(fixture)
    assert rebuilt.corpus_size == fixture.corpus_size
    assert rebuilt.max_deviation <= 1e-7


# ---------------------------------------------------------------------------
# Reciprocity, nondegenerate

def test_reciprocity_unit_framings():
    chk = verify_reciprocity_dt(sym([[1]]), 2)
    assert abs(chk.lhs - (1 + 1j)) < 1e-12
    assert abs(chk.rhs - math.sqrt(2) * complex(math.sqrt(0.5), math.sqrt(0.5))) < 1e-12
    assert chk.ok
    chk = verify_reciprocity_dt(sym([[-1]]), 2)
    assert abs(chk.lhs - (1 - 1j)) < 1e-12
    assert chk.ok


def test_reciprocity_vanishing_both_sides():
    chk = verify_reciprocity_dt(sym([[2]]), 2)
    assert abs(chk.lhs) < 1e-12 and abs(chk.rhs) < 1e-12 and chk.ok


def test_reciprocity_rejects_degenerate_and_odd():
    # degenerate L is checked with its null-direction factor (below); an
    # odd level has no reciprocity identity
    with pytest.raises(ValueError):
        verify_reciprocity_dt(sym([[1]]), 3)


def test_reciprocity_random_corpus():
    rng = random.Random(71)
    for _ in range(200):
        L = random_nondegenerate(rng, 3, 4)
        r = rng.choice((2, 4, 6))
        chk = verify_reciprocity_dt(L, r)
        assert chk.ok, (L.entries, r, chk.lhs, chk.rhs)


# ---------------------------------------------------------------------------
# Reciprocity, degenerate

def test_degenerate_zero_matrix_modes():
    full = verify_reciprocity_dt(sym([[0]]), 2, "full_nullity")
    assert abs(full.lhs - 2) < 1e-12 and abs(full.rhs - 2) < 1e-12 and full.ok
    half = verify_reciprocity_dt(sym([[0]]), 2, "paper_half")
    assert abs(half.rhs - math.sqrt(2)) < 1e-12
    assert not half.ok


def test_degenerate_block_example():
    chk = verify_reciprocity_dt(sym([[1, 0], [0, 0]]), 2)
    assert abs(chk.lhs - 2 * (1 + 1j)) < 1e-12
    assert chk.ok


def test_degenerate_random_constructed_corpus():
    rng = random.Random(73)
    for _ in range(100):
        L = random_degenerate(rng)
        r = rng.choice((2, 4))
        chk = verify_reciprocity_dt(L, r)
        assert chk.ok, (L.entries, r)


def test_degenerate_mode_validation():
    with pytest.raises(ValueError):
        verify_reciprocity_dt(sym([[0]]), 2, "thirds")


def reciprocity_rhs_oracle(L, r, mode):
    """The right side as written out from the regular block ``L_reg`` that
    the reference Smith form builds: its signature, its rank and the
    conjugated Gauss sum of its torsion module, times the null-direction
    factor."""
    block = block_decomposition(L)
    reg, nullity = block.matrix, L.m - block.matrix.m
    sig_phase = unit_phase_eval(UnitPhase(Fraction(signature(reg), 8)))
    gauss = gauss_sums([(from_decomposition(block), r)])[0].conjugate()
    rhs = math.sqrt(float(r) ** reg.m) * sig_phase * gauss
    if nullity:
        power = float(r) ** nullity
        rhs = (math.sqrt(power) if mode == "paper_half" else power) * rhs
    return rhs


@pytest.mark.parametrize("mode", ["full_nullity", "paper_half"])
def test_reciprocity_right_side_is_the_regular_block_expression(mode):
    # the right side comes from cs_closed; it must be the same bits as the
    # expression in the regular block it stands for
    rng = random.Random(89)
    draws = [random_nondegenerate(rng, 3, 4) for _ in range(40)]
    draws += [random_degenerate(rng) for _ in range(40)]
    for L in draws:
        r = rng.choice((2, 4, 6))
        chk = verify_reciprocity_dt(L, r, mode)
        assert repr(chk.rhs) == repr(reciprocity_rhs_oracle(L, r, mode)), \
            (L.entries, r)


def test_random_nondegenerate_accepts_the_determinant_rule_draws(eliminations):
    # A draw is accepted on the rank its signature's elimination counts:
    # the draws are those of the determinant rule, each candidate is
    # eliminated once, and the accepted draw keeps its signature.
    rng, ref = random.Random(3), random.Random(3)
    for _ in range(200):
        del eliminations[:]
        L = random_nondegenerate(rng, 3, 4)
        want, candidates = None, []
        while want is None or determinant(want) == 0:
            want = random_symmetric_matrix(ref, ref.randint(1, 3), 4)
            candidates.append((want.m, want.m))
        assert eliminations == candidates
        assert L == want
        assert getattr(L, "_signature", None) == signature(want)


def test_random_degenerate_is_the_congruence_by_a_drawn_unimodular():
    # The 2m transvections act as handle slides in reverse draw order: that
    # is U^T (L_reg + 0) U for the U that random_unimodular multiplies from
    # the same draws, on a clone of the generator.
    for seed in range(600):
        rng = random.Random(seed)
        ref = random.Random()
        ref.setstate(rng.getstate())
        L = random_degenerate(rng)
        reg = random_nondegenerate(ref, 2, 3)
        nullity = ref.randint(1, 2)
        m = reg.m + nullity
        padded = [list(row) + [0] * nullity for row in reg.entries]
        padded += [[0] * m for _ in range(nullity)]
        u = random_unimodular(ref, m, steps=2 * m)
        assert L.rows() == intlinalg.mat_mul(
            intlinalg.mat_mul(mat_transpose(u), padded), u)
        assert rng.getstate() == ref.getstate()


def test_random_degenerate_really_degenerate():
    rng = random.Random(79)
    for _ in range(20):
        L = random_degenerate(rng)
        assert regular_decomposition(L).nullity >= 1


# ---------------------------------------------------------------------------
# Work per torsion evaluation

NONDEGENERATE = [[11, -20, 3], [-20, 7, 14], [3, 14, -9]]
DEGENERATE = [[6, 3, 0, 0], [3, 6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def verify_reciprocity_half(L, r):
    """The degenerate identity in its half-kernel ``"paper_half"`` mode."""
    return verify_reciprocity_dt(L, r, null_exponent_mode="paper_half")


@pytest.mark.parametrize("evaluate, rows, shapes", [
    (cs_closed, NONDEGENERATE, [(3, 3), (4, 3)]),
    (cs_closed, DEGENERATE, [(4, 4), (6, 4)]),
    (verify_reciprocity_dt, NONDEGENERATE, [(3, 3), (4, 3)]),
    (verify_reciprocity_dt, DEGENERATE, [(4, 4), (6, 4)]),
    (verify_reciprocity_half, NONDEGENERATE, [(3, 3), (4, 3)]),
    (verify_reciprocity_half, DEGENERATE, [(4, 4), (6, 4)]),
], ids=["cs-nondegenerate", "cs-degenerate", "dt-nondegenerate",
        "dt-degenerate", "degenerate-nondegenerate", "degenerate-degenerate"])
def test_torsion_evaluation_runs_one_smith_form_and_two_eliminations(
        evaluate, rows, shapes, monkeypatch, eliminations):
    # The two eliminations are the signature elimination of L, which gives
    # the Smith form its modulus |det L| and the reciprocity check its
    # signature, and the Gram elimination of the bordered L (one lift for
    # the nondegenerate L, with T = Z/992; two for the degenerate one, with
    # T = Z/3 + Z/9, whose two radical rows take no pivot); the torsion data
    # comes from the one Smith form of L.
    calls, real = [], intlinalg.smith_normal_form

    def counted(L):
        calls.append(L.m)
        return real(L)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    evaluate(sym(rows), 2)
    assert calls == [len(rows)]
    assert eliminations == shapes


# ---------------------------------------------------------------------------
# Batches of the torsion route

#: Duplicate ``L`` at several levels, a duplicate ``(L, k)``, groups of
#: several shapes (trivial, Z/2, Z/3, Z/2 + Z/2, Z/5 at two framings),
#: degenerate ``L`` and the empty matrix.
MIXED_BATCH = [
    ([[3]], 2), ([[2, 1], [1, 2]], 4), ([[3]], 4), ([], 2), ([[2, 0], [0, 2]], 2),
    ([[3]], 2), ([[0]], 6), ([[1, 0], [0, 0]], 2), ([[5]], 2), ([[-5]], 4),
    ([[6, 3, 0, 0], [3, 6, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 2),
    ([[2, 1], [1, 2]], 4), (list(map(list, E8_ROWS)), 2), ([], 8), ([[2]], 2),
]


def test_cs_closed_many_is_cs_closed_bit_for_bit():
    pairs = [(sym(rows), k) for rows, k in MIXED_BATCH]
    batch = cs_closed_many(pairs)
    assert [repr(res) for res in batch] \
        == [repr(cs_closed(L, k)) for L, k in pairs]
    assert cs_closed_many([]) == []


def test_cs_closed_many_decomposes_each_distinct_L_once(monkeypatch):
    decomposed, summed = [], []

    def counted(L, _fn=compare.regular_decomposition):
        decomposed.append(L)
        return _fn(L)

    def batched(pairs, _fn=compare.gauss_sums):
        summed.append(len(pairs))
        return _fn(pairs)

    monkeypatch.setattr(compare, "regular_decomposition", counted)
    monkeypatch.setattr(compare, "gauss_sums", batched)
    pairs = [(sym(rows), k) for rows, k in MIXED_BATCH]
    cs_closed_many(pairs)
    assert decomposed == list(dict.fromkeys(L for L, _ in pairs))
    assert summed == [len(set(pairs))]


@pytest.mark.parametrize("large_first, raised, message", [
    (False, ValueError, "^level k must be an even integer >= 2$"),
    (True, GroupTooLarge, "^torsion group of order 7 exceeds cap 4$"),
])
def test_cs_closed_many_refuses_the_first_refused_pair(
        large_first, raised, message, monkeypatch):
    monkeypatch.setattr(quadmod, "GROUP_ENUMERATION_CAP", 4)
    refused = [(sym([[3]]), 3), (sym([[7]]), 2)]  # odd level, |T| over the cap
    pairs = [(sym([[3]]), 2)] + (refused[::-1] if large_first else refused)
    with pytest.raises(raised, match=message):
        cs_closed_many(pairs)


@pytest.mark.parametrize("rows", [
    [[[1009, 0], [0, 1013]]],
    [[[3]], [[2, 1], [1, 2]], [[1009, 0], [0, 1013]], [[5]]],
], ids=["one", "mixed"])
def test_cs_closed_many_refuses_before_any_gram_solve(rows, monkeypatch):
    # |T| = 1009 * 1013 is over the cap: the refusal comes as soon as the
    # decomposition gives |T|, before any pair's module is built.
    solved = []

    def counted(rd, _fn=compare.from_decomposition):
        solved.append(rd)
        return _fn(rd)

    monkeypatch.setattr(compare, "from_decomposition", counted)
    with pytest.raises(GroupTooLarge, match="^torsion group of order 1022117 "
                                            "exceeds cap 1000000$"):
        cs_closed_many([(sym(r), 2) for r in rows])
    assert solved == []


def test_cs_closed_many_refuses_a_nondegenerate_pair_before_its_smith_form(
        monkeypatch):
    # |T| = |det L| = 1009 * 1013 is over the cap: the pair is refused on
    # the determinant its signature elimination gives, and the Smith form
    # runs only for the pairs before it.
    decomposed = []

    def counted(L, _fn=intlinalg.smith_normal_form):
        decomposed.append(L)
        return _fn(L)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    first, large = sym([[2, 1], [1, 2]]), sym([[1009, 0], [0, 1013]])
    with pytest.raises(GroupTooLarge, match="^torsion group of order 1022117 "
                                            "exceeds cap 1000000$"):
        cs_closed_many([(first, 2), (large, 2), (sym([[5]]), 2)])
    assert decomposed == [first]


@pytest.mark.parametrize("seed", [0, 1])
def test_m28_degenerate_draw_is_refused_before_its_gram_solve(seed,
                                                              time_limit):
    # A 28x28 draw of rank 26 whose regular block once took minutes to
    # solve before the group cap refused it.
    rng = random.Random(seed)
    for _ in range(4):
        s = random_symmetric_matrix(rng, 26, 4)
        order = abs(determinant(s))
        L, _ = degenerate_draw(rng, 28, s.rows(), bound=3)
        message = f"^torsion group of order {order} exceeds cap 1000000$"
        with pytest.raises(GroupTooLarge, match=message):
            cs_closed(L, 2)


def small_torsion_draw(m):
    """A degenerate ``B^T S B`` of rank ``m - 2`` with ``S = P^T diag(3, 3,
    3, 3, 1, ..., 1) P``, which has ``T = (Z/3)^4`` whatever the unimodular
    ``P``: ``P`` from ``random_unimodular(random.Random(2), m - 2, 2 (m -
    2))`` and ``B = [I | V]`` with ``V`` in [-3, 3] from the same
    generator."""
    rng = random.Random(2)
    p = random_unimodular(rng, m - 2, steps=2 * (m - 2))
    d = IntSymMatrix.diagonal([3] * 4 + [1] * (m - 6)).rows()
    s = intlinalg.mat_mul(intlinalg.mat_mul(mat_transpose(p), d), p)
    return degenerate_draw(rng, m, s, bound=3)[0]


def test_m28_degenerate_draw_with_small_torsion_gets_its_value(time_limit):
    # T = (Z/3)^4, so the Gauss sum is that of diag(3, 3, 3, 3).
    L = small_torsion_draw(28)
    for k in (2, 4):
        cs = cs_closed(L, k)
        want = cs_closed(IntSymMatrix.diagonal([3, 3, 3, 3]), k)
        assert (cs.nullity, cs.torsion_order) == (2, 81)
        assert abs(cs.gauss - want.gauss) <= sum_tolerance(81)


@pytest.mark.parametrize("m", [16, 40])
def test_small_torsion_draw_has_the_module_of_its_regular_block(m):
    # At m = 64 the regular block of this recipe once grew to over a
    # million bits; the library reads the module off L, and only the test's
    # reference Smith form builds the block it is checked against.
    L = small_torsion_draw(m)
    assert regular_decomposition(L).cyclic_orders == (3, 3, 3, 3)
    assert_module_is_the_blocks(L)


@pytest.mark.parametrize("mode", ["full_nullity", "paper_half"])
def test_verify_reciprocity_dt_many_is_a_loop_bit_for_bit(mode):
    rng = random.Random(97)
    cases = [(random_nondegenerate(rng, 3, 4), rng.choice((2, 4, 6)))
             for _ in range(60)]
    cases += [(random_degenerate(rng), rng.choice((2, 4))) for _ in range(30)]
    cases += [(sym(rows), k) for rows, k in MIXED_BATCH]
    batch = verify_reciprocity_dt_many(cases, mode)
    loop = [verify_reciprocity_dt(L, r, mode) for L, r in cases]
    assert [repr(chk) for chk in batch] == [repr(chk) for chk in loop]
    assert verify_reciprocity_dt_many([], mode) == []


def sequential_corpus_pairs(seed, size, levels=LEVELS):
    """The ``(L, k)`` pairs of :func:`default_corpus` drawn one candidate at
    a time, each evaluated alone, until ``size`` pairs are usable."""
    pairs = []

    def consider(L, k):
        cs = cs_closed(L, k)
        if cs.torsion_order <= _CORPUS_TORSION_BOUND \
                and abs(cs.value) > ZERO_GAUSS_TOLERANCE:
            pairs.append((L, k))

    for rows in _CLASSIC_ROWS:
        for k in levels:
            consider(sym(rows), k)
    for k in levels:
        if k ** 8 <= 10 ** 7:
            consider(E8, k)
    rng = random.Random(seed)
    drawn = 0
    while len(pairs) < size:
        m = rng.randint(1, 4)
        consider(random_symmetric_matrix(rng, m, 4), levels[drawn % len(levels)])
        drawn += 1
    return pairs


@pytest.mark.parametrize("seed, size", [(0, 40), (3, 150), (5, 301)])
def test_default_corpus_blocks_draw_what_a_sequential_loop_draws(seed, size):
    # Blocks of 7 split the classics and the random draws into many batches.
    for block in (7, cli.BLOCK):
        corpus = default_corpus(seed=seed, size=size, block=block)
        assert [(case.L, case.k) for case in corpus] \
            == sequential_corpus_pairs(seed, size)


def test_default_corpus_evaluates_each_pair_once(monkeypatch):
    # Within a block, one batch, a repeated pair is evaluated once and a
    # repeated L decomposed once.  Nothing is kept across blocks: seed 0
    # draws 378 (L, k) candidates on 253 distinct L in blocks of 300, 56,
    # 15, 5 and 2, and decomposes a matrix met again in a later block again,
    # so 264 decompositions remain.
    decomposed, batched = [], []

    def counted_decomposition(L, _fn=compare.regular_decomposition):
        decomposed.append(L)
        return _fn(L)

    def counted_batch(pairs, _fn=compare.cs_closed_many):
        start = len(decomposed)
        result = _fn(pairs)
        batched.append((pairs, decomposed[start:]))
        return result
    monkeypatch.setattr(compare, "regular_decomposition", counted_decomposition)
    monkeypatch.setattr(compare, "cs_closed_many", counted_batch)
    list(default_corpus(seed=0, block=cli.BLOCK))
    assert [len(pairs) for pairs, _ in batched] == [300, 56, 15, 5, 2]
    for pairs, done in batched:
        assert sorted(map(repr, done)) == sorted({repr(L) for L, _ in pairs})
    assert (len(decomposed), len(set(decomposed))) == (264, 253)


def decomposed_matrices(monkeypatch, run):
    """The distinct ``L`` that ``run()`` decomposes, in first-seen order."""
    seen = []

    def record(L, _fn=compare.regular_decomposition):
        seen.append(L)
        return _fn(L)
    with monkeypatch.context() as patch:
        patch.setattr(compare, "regular_decomposition", record)
        run()
    return list(dict.fromkeys(seen))


def torsion_records(matrices):
    """The exact torsion data of each matrix: ``L``, nullity, cyclic orders,
    generator lifts and Gram matrix, all of them integers."""
    records = []
    for L in matrices:
        rd = regular_decomposition(L)
        records.append([L.to_json(), rd.nullity, list(rd.cyclic_orders),
                        [list(g) for g in rd.generator_reps],
                        [list(row) for row in from_decomposition(rd).gram]])
    return records


def digest(records):
    """Count and SHA-256 of integer records, the same on any platform."""
    text = json.dumps(records, separators=(",", ":"))
    return len(records), hashlib.sha256(text.encode()).hexdigest()


def module_digest(records):
    """The digest of ``(L, nullity, cyclic orders, Gram)`` alone: the
    module, whichever lifts it was solved from."""
    return digest([[L, nu, orders, gram] for L, nu, orders, _, gram in records])


def test_torsion_data_of_the_corpus_and_reciprocity_draws_is_golden(
        monkeypatch, capsys):
    # The module digests were recorded when the module of a degenerate L
    # came from its regular block C L C^T, C rows of the Smith form's row
    # transform; the full digests, with the lifts, when the lifts of every
    # L became columns of W = U^{-1}.  The lifts pin the Smith form's pivots
    # and 2x2 steps.
    corpus = torsion_records(decomposed_matrices(
        monkeypatch, lambda: list(default_corpus(seed=0, block=cli.BLOCK))))
    assert module_digest(corpus) == (
        253, "fbf4116770c7ed06a59bd009b8e36c50acfce83627d939a5637eb618d6a608b7")
    assert digest(corpus) == (
        253, "4b909e9c964dd8fd0642faba04e5cb5393d238336e8961ed77f9defb394df484")
    drawn = torsion_records(decomposed_matrices(
        monkeypatch, lambda: cli.main(["verify", "reciprocity", "--seed", "1"])))
    capsys.readouterr()
    assert module_digest(drawn) == (
        247, "c0591d29cd7b582d72fe23a7f665ec866b532a6f30cd184fa9e8ec166c629d1f")
    assert digest(drawn) == (
        247, "1521aba3c6b1c9b44b6fca38ce116da69a3ea969d2392e26b0b871401677dc6a")
