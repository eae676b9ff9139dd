import itertools
import math
import random
from fractions import Fraction

import pytest

from abtqft import surgery
from abtqft.compare import E8_ROWS
from abtqft.errors import EnumerationTooLarge, IndexOutOfRange
from abtqft.intlinalg import IntSymMatrix, signature
from abtqft.numeric import polar_to_approx, sum_tolerance, unit_phase_eval
from abtqft.surgery import (
    KirbyMove,
    SurgeryPresentation,
    a_gauss,
    apply_kirby,
    kirby_fuzz,
    max_enumeration,
    normalization_prefactor,
    quadratic_exponential_sum,
    random_presentation,
    rt_link_eval,
    rt_raw_closed,
)
from test_numeric import phase_sum_per_term

LEVELS = (2, 4, 6, 8)


def quadratic_exponential_sum_exact(rows, k, linear=None, constant=0):
    """Per-term reference of :func:`quadratic_exponential_sum`: one exact
    rational phase per coloring."""
    m = len(rows)
    return phase_sum_per_term(rows, [k] * m, 2 * k, linear or [0] * m, constant)


def rt_raw_closed_reference(p, k):
    """Per-term reference of :func:`rt_raw_closed`: exact phases from
    :func:`rt_link_eval`, summed one coloring at a time."""
    total = 0j
    for g in itertools.product(range(k), repeat=p.m):
        total += unit_phase_eval(rt_link_eval(p, g, k))
    pref = normalization_prefactor(p.m, signature(p.surgery), k)
    return polar_to_approx(pref) * total


def closed(rows):
    return SurgeryPresentation.from_linking_rows(rows)


EMPTY = SurgeryPresentation.closed(IntSymMatrix.empty())


# ---------------------------------------------------------------------------
# Stabilization Gauss sums

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


def test_a_gauss_rejects_odd_level():
    with pytest.raises(ValueError):
        a_gauss(3, 1)


# ---------------------------------------------------------------------------
# Link evaluation

def test_link_eval_zero_coloring():
    p = closed([[3, 1], [1, -2]])
    assert rt_link_eval(p, (0, 0), 4).angle == 0


def test_link_eval_hopf_insertion():
    p = SurgeryPresentation(IntSymMatrix.empty(), (),
                            IntSymMatrix.from_rows([[0, 1], [1, 0]]), (1, 1))
    assert rt_link_eval(p, (), 4).angle == Fraction(1, 4)


def test_link_eval_single_framing():
    p = closed([[1]])
    assert rt_link_eval(p, (1,), 2).angle == Fraction(1, 4)


def test_link_eval_includes_mixed_block():
    p = SurgeryPresentation(IntSymMatrix.from_rows([[0]]), ((1,),),
                            IntSymMatrix.from_rows([[0]]), (1,))
    # exponent 2*g*B*h = 2 at g=1: phase 2/(2k)
    assert rt_link_eval(p, (1,), 4).angle == Fraction(1, 4)


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
        fast = quadratic_exponential_sum(rows, k, lin, const)
        slow = quadratic_exponential_sum_exact(rows, k, lin, const)
        assert abs(fast - slow) < 1e-10


def test_enumeration_cap():
    with pytest.raises(EnumerationTooLarge):
        rt_raw_closed(closed([[1, 0], [0, 1]]), 8, max_terms=10)


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


def test_k2_congruence_example():
    p = apply_kirby(closed([[1, 0], [0, 1]]), KirbyMove("K2", +1, 1, 0))
    assert p.surgery.entries == ((1, 1), (1, 2))


def test_k1_minus_preserves_value():
    base = closed([[1]])
    stabilized = apply_kirby(base, KirbyMove("K1", -1))
    assert abs(rt_raw_closed(base, 4) - 0.5) < 1e-12
    assert abs(rt_raw_closed(stabilized, 4) - 0.5) < 1e-12


def test_k2_requires_distinct_valid_indices():
    with pytest.raises(IndexOutOfRange):
        apply_kirby(closed([[1, 0], [0, 1]]), KirbyMove("K2", 1, 0, 2))
    with pytest.raises(IndexOutOfRange):
        apply_kirby(closed([[1, 0], [0, 1]]), KirbyMove("K2", 1, 1, 1))


def test_k2_moves_track_insertions():
    p = SurgeryPresentation(IntSymMatrix.from_rows([[1, 0], [0, 2]]),
                            ((1,), (0,)), IntSymMatrix.from_rows([[0]]), (1,))
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
        lhs = rt_raw_closed(a.direct_sum(b), k) * rt_raw_closed(EMPTY, k)
        rhs = rt_raw_closed(a, k) * rt_raw_closed(b, k)
        assert abs(lhs - rhs) < 1e-10


def test_orientation_reversal_conjugates():
    rng = random.Random(59)
    for _ in range(40):
        p = random_presentation(rng, 3, 4)
        k = rng.choice((2, 4, 6))
        assert abs(rt_raw_closed(p.reversed_orientation(), k)
                   - rt_raw_closed(p, k).conjugate()) < 1e-10


def test_insertion_colors_live_mod_k():
    p = SurgeryPresentation(IntSymMatrix.from_rows([[2]]), ((1,),),
                            IntSymMatrix.from_rows([[1]]), (1,))
    k = 6
    shifted = SurgeryPresentation(p.surgery, p.insertion_mixed,
                                  p.insertion_self, (1 + 3 * k,))
    assert abs(rt_raw_closed(p, k) - rt_raw_closed(shifted, k)) < 1e-12


# ---------------------------------------------------------------------------
# Fuzzing

def test_fuzz_zero_walk():
    report = kirby_fuzz(closed([[1]]), 2, 0, seed=1)
    assert report.max_deviation == 0.0
    assert report.moves == ()


def test_fuzz_deterministic_and_small_drift():
    a = kirby_fuzz(closed([[1]]), 2, 50, seed=7, max_components=4)
    b = kirby_fuzz(closed([[1]]), 2, 50, seed=7, max_components=4)
    assert a == b
    assert a.max_deviation < 1e-7


def test_fuzz_hundred_moves():
    report = kirby_fuzz(closed([[3]]), 4, 100, seed=3, max_components=5)
    assert report.max_deviation < 1e-7


def test_fuzz_skips_over_cap_stabilizations():
    report = kirby_fuzz(closed([[1]]), 8, 30, seed=5, max_components=2)
    assert report.skipped > 0
    assert all("skipped" in entry or "deviation" in entry
               for entry in report.moves)
    assert report.max_deviation < 1e-7


def test_fuzz_report_json_shape():
    report = kirby_fuzz(closed([[1]]), 2, 5, seed=2)
    obj = report.to_json()
    assert set(obj) == {"seed", "moves", "max_dev", "skipped"}


# ---------------------------------------------------------------------------
# Serialization

def test_presentation_json_round_trip():
    p = SurgeryPresentation(IntSymMatrix.from_rows([[2, 1], [1, 0]]),
                            ((1, 0), (0, 2)),
                            IntSymMatrix.from_rows([[0, 1], [1, 3]]), (1, 2))
    assert SurgeryPresentation.from_json(p.to_json()) == p


def test_presentation_json_closed_defaults():
    p = SurgeryPresentation.from_json({"L": [[4]]})
    assert p == closed([[4]])


def test_block_symmetry_enforced():
    with pytest.raises(ValueError):
        IntSymMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        SurgeryPresentation(IntSymMatrix.from_rows([[1]]), ((1,),),
                            IntSymMatrix.from_rows([[0]]), ())


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
    total = quadratic_exponential_sum(E8_ROWS, k)
    assert abs(total - k ** 4) <= sum_tolerance(k ** 8)
    assert abs(rt_raw_closed(e8, k) - k ** -0.5) <= k ** -4.5 * sum_tolerance(k ** 8)


def test_cached_prefactor_is_bit_identical_to_the_exact_one():
    for m in range(9):
        for sigma in range(-m, m + 1):
            for k in LEVELS:
                assert surgery._approx_prefactor(m, sigma % 8, k) == \
                    polar_to_approx(normalization_prefactor(m, sigma, k))
