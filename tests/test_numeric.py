import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abtqft import numeric
from abtqft.numeric import (
    ONE_PHASE,
    PolarValue,
    UnitPhase,
    approx_eq,
    approx_from_json,
    approx_to_json,
    polar_from_json,
    polar_to_approx,
    polar_to_json,
    quadratic_phase_sum,
    rational_from_json,
    rational_to_json,
    sum_tolerance,
    unit_phase_eval,
    unit_phase_from_json,
    unit_phase_to_json,
)

SQRT_HALF = math.sqrt(2) / 2

rational_angles = st.fractions(max_denominator=10 ** 6)


def test_unit_phase_eval_identity():
    assert unit_phase_eval(UnitPhase(Fraction(0))) == 1 + 0j


def test_unit_phase_eval_half_turn():
    assert unit_phase_eval(UnitPhase(Fraction(1, 2))) == -1 + 0j


def test_unit_phase_eval_eighth_turn():
    z = unit_phase_eval(UnitPhase(Fraction(1, 8)))
    assert abs(z - complex(SQRT_HALF, SQRT_HALF)) < 1e-15


def test_unit_phase_quarter_turns_exact():
    assert unit_phase_eval(UnitPhase(Fraction(1, 4))) == 1j
    assert unit_phase_eval(UnitPhase(Fraction(3, 4))) == -1j


def test_angle_reduced_into_unit_interval():
    assert UnitPhase(Fraction(9, 4)).angle == Fraction(1, 4)
    assert UnitPhase(Fraction(-1, 3)).angle == Fraction(2, 3)


def test_polar_to_approx_examples():
    assert abs(polar_to_approx(PolarValue(Fraction(2), UnitPhase(Fraction(1, 8))))
               - (1 + 1j)) < 1e-12
    assert polar_to_approx(PolarValue(Fraction(0), UnitPhase(Fraction(1, 3)))) == 0
    assert abs(polar_to_approx(PolarValue(Fraction(1, 4), UnitPhase(Fraction(1, 2))))
               - (-0.5)) < 1e-15


def test_approx_eq_examples():
    assert approx_eq(1 + 0j, 1 + 1e-12j, 1e-9)
    assert not approx_eq(1 + 0j, -1 + 0j, 1e-9)
    assert not approx_eq(0j, 1e-8 + 0j, 1e-9)


def test_approx_eq_requires_positive_tolerance():
    with pytest.raises(ValueError):
        approx_eq(1, 1, 0.0)


@given(a=rational_angles, b=rational_angles, c=rational_angles)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_phase_group_laws(a, b, c):
    pa, pb, pc = UnitPhase(a), UnitPhase(b), UnitPhase(c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * pb == pb * pa
    assert pa * ONE_PHASE == pa


def test_phase_inverse_on_thousand_random_angles():
    rng = random.Random(0)
    for _ in range(1000):
        p = UnitPhase(Fraction(rng.randint(-10 ** 9, 10 ** 9),
                               rng.randint(1, 10 ** 9)))
        assert (p * p.conjugate()).angle == 0


def test_polar_multiplication_matches_complex_on_thousand_randoms():
    rng = random.Random(1)
    for _ in range(1000):
        v = PolarValue(Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 100)),
                       UnitPhase(Fraction(rng.randint(-50, 50), rng.randint(1, 60))))
        w = PolarValue(Fraction(rng.randint(0, 100), rng.randint(1, 100)),
                       UnitPhase(Fraction(rng.randint(-50, 50), rng.randint(1, 60))))
        exact = polar_to_approx(v * w)
        floaty = polar_to_approx(v) * polar_to_approx(w)
        assert abs(exact - floaty) <= 1e-12 * max(1.0, abs(floaty))


def test_polar_inverse_and_zero():
    v = PolarValue(Fraction(9, 2), UnitPhase(Fraction(5, 12)))
    assert v * v.inverse() == PolarValue.one()
    with pytest.raises(ZeroDivisionError):
        PolarValue.zero().inverse()
    # phase is normalized away on zero values
    assert PolarValue(Fraction(0), UnitPhase(Fraction(1, 3))) == PolarValue.zero()


@given(st.fractions(max_denominator=10 ** 9), st.fractions(max_denominator=10 ** 9))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


def test_big_integer_rationals_stay_exact():
    a = Fraction(10 ** 40 + 1, 10 ** 20 + 7)
    b = Fraction(-10 ** 35 + 3, 10 ** 18 + 11)
    assert (a + b) - b == a


def test_sum_tolerance_scales_like_sqrt():
    assert sum_tolerance(1) == pytest.approx(1e-9)
    assert sum_tolerance(4) == pytest.approx(2e-9)


def test_json_round_trips():
    f = Fraction(-7, 3)
    assert rational_from_json(rational_to_json(f)) == f
    p = UnitPhase(Fraction(5, 8))
    assert unit_phase_from_json(unit_phase_to_json(p)) == p
    v = PolarValue(Fraction(3, 2), UnitPhase(Fraction(1, 6)))
    assert polar_from_json(polar_to_json(v)) == v
    z = 1.25 - 0.5j
    assert approx_from_json(approx_to_json(z)) == z


# ---------------------------------------------------------------------------
# The exponential-sum kernel

def phase_sum_per_term(gram, moduli, modulus, linear, constant):
    """Per-term reference: one exact rational phase per point."""
    total = 0j
    for x in itertools.product(*(range(n) for n in moduli)):
        quad = constant + sum(x[i] * (gram[i][j] * x[j]) for i in range(len(x))
                              for j in range(len(x)))
        quad += sum(b * xi for b, xi in zip(linear, x))
        total += unit_phase_eval(UnitPhase(Fraction(quad, modulus)))
    return total


@pytest.mark.parametrize("block", [1, 8, 48, 1 << 16])
def test_phase_sum_mixed_moduli_matches_per_term_loop(block, monkeypatch):
    # Odd off-diagonals, entries beyond the modulus, a nonzero linear term
    # and constant; small blocks force every split into leading and
    # trailing coordinates.
    monkeypatch.setattr(numeric, "_BLOCK", block)
    moduli = (2, 4, 12)
    gram = [[3, 5, -7], [5, 2, 9], [-7, 9, 10 ** 30 + 1]]
    linear = [1, -3, 10 ** 20 + 5]
    for modulus, constant in ((24, 7), (48, -5), (10, 3)):
        want = phase_sum_per_term(gram, moduli, modulus, linear, constant)
        got = quadratic_phase_sum(gram, moduli, modulus, linear, constant)
        assert abs(got - want) <= sum_tolerance(2 * 4 * 12)


@pytest.mark.parametrize("seed", range(4))
def test_phase_sum_every_split_point_matches_per_term_loop(seed, monkeypatch):
    # Random integer forms, neither symmetric nor well defined on the group:
    # moduli include 1, the modulus need not be a multiple of them (so a
    # trailing axis may be zero-padded before it is folded), and cross terms
    # are odd as often as even.  Each split point is forced in turn.
    rng = random.Random(seed)
    for _ in range(30):
        m = rng.randint(1, 4)
        moduli = [rng.choice((1, 2, 3, 4, 5, 6, 8, 12)) for _ in range(m)]
        modulus = rng.choice((2, 6, 7, 8, 9, 10, 12, 24))
        gram = [[rng.randint(-30, 30) for _ in range(m)] for _ in range(m)]
        linear = [rng.randint(-20, 20) for _ in range(m)]
        constant = rng.randint(-9, 9)
        want = phase_sum_per_term(gram, moduli, modulus, linear, constant)
        for s in range(m):
            monkeypatch.setattr(numeric, "_split_point", lambda moduli, s=s: s)
            got = quadratic_phase_sum(gram, moduli, modulus, linear, constant)
            assert abs(got - want) <= sum_tolerance(math.prod(moduli))


def test_split_point_is_unsplit_when_small_and_balanced_when_large():
    assert numeric._split_point([4] * 4) == 0
    for moduli in ([6] * 8, [8] * 7, [16] * 5, [2, 3, 5, 7, 11], [3, 1000],
                   [5000]):
        s = numeric._split_point(moduli)
        lead, total = math.prod(moduli[:s]), math.prod(moduli)
        assert 0 <= s < len(moduli)
        assert lead ** 2 <= total < (lead * moduli[s]) ** 2


def test_phase_sum_empty_product_is_the_constant_phase():
    assert quadratic_phase_sum([], [], 8, [], 3) == unit_phase_eval(
        UnitPhase(Fraction(3, 8)))


def test_phase_table_equals_unit_phase_eval_bit_for_bit():
    for n in list(range(1, 130)) + [997, 4096, 20011]:
        table = numeric._root_table(n)
        for r in range(n):
            assert table[r] == unit_phase_eval(UnitPhase(Fraction(r, n)))
