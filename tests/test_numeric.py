import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abtqft import phasesums
from abtqft.numeric import (
    ONE_PHASE,
    PolarValue,
    UnitPhase,
    approx_eq,
    approx_to_json,
    polar_from_json,
    polar_to_approx,
    polar_to_json,
    rational_from_json,
    rational_to_json,
    sum_tolerance,
    unit_phase_eval,
)
from abtqft.phasesums import quadratic_phase_sums

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
        assert (p * UnitPhase(-p.angle)).angle == 0


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
    # phase is normalized away on zero values
    assert PolarValue(Fraction(0), UnitPhase(Fraction(1, 3))) \
        == PolarValue(Fraction(0), ONE_PHASE)


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
    v = PolarValue(Fraction(3, 2), UnitPhase(Fraction(1, 6)))
    assert polar_from_json(polar_to_json(v)) == v
    assert approx_to_json(1.25 - 0.5j) == [1.25, -0.5]


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


#: Moduli (2, 4, 12) with odd off-diagonals, entries beyond the modulus, a
#: nonzero linear term and constant, at three ``(modulus, constant)`` pairs.
MIXED_MODULI_CASES = [
    ([[3, 5, -7], [5, 2, 9], [-7, 9, 10 ** 30 + 1]], (2, 4, 12), modulus,
     [1, -3, 10 ** 20 + 5], constant)
    for modulus, constant in ((24, 7), (48, -5), (10, 3))]


@pytest.mark.parametrize("block", [1, 8, 48, 1 << 16])
def test_phase_sum_mixed_moduli_matches_per_term_loop(block, monkeypatch):
    # The default split point, with the root table of the modulus taken
    # from the cache (large blocks) or built per call (small blocks).
    monkeypatch.setattr(phasesums, "_BLOCK", block)
    for gram, moduli, modulus, linear, constant in MIXED_MODULI_CASES:
        want = phase_sum_per_term(gram, moduli, modulus, linear, constant)
        got = quadratic_phase_sums([gram], moduli, modulus, [linear],
                                   [constant])[0]
        assert abs(got - want) <= sum_tolerance(2 * 4 * 12)


@pytest.mark.parametrize("seed", range(4))
def test_phase_sum_every_split_point_matches_per_term_loop(seed, monkeypatch):
    # The mixed-moduli cases, then random integer forms, neither symmetric
    # nor well defined on the group: moduli include 1, the modulus need not
    # be a multiple of them (so a trailing axis may be zero-padded before it
    # is folded), and cross terms are odd as often as even.  Each split
    # point is forced in turn.
    rng = random.Random(seed)
    cases = list(MIXED_MODULI_CASES)
    for _ in range(30):
        m = rng.randint(1, 4)
        moduli = [rng.choice((1, 2, 3, 4, 5, 6, 8, 12)) for _ in range(m)]
        modulus = rng.choice((2, 6, 7, 8, 9, 10, 12, 24))
        gram = [[rng.randint(-30, 30) for _ in range(m)] for _ in range(m)]
        linear = [rng.randint(-20, 20) for _ in range(m)]
        cases.append((gram, moduli, modulus, linear, rng.randint(-9, 9)))
    for gram, moduli, modulus, linear, constant in cases:
        want = phase_sum_per_term(gram, moduli, modulus, linear, constant)
        for s in range(len(moduli)):
            monkeypatch.setattr(phasesums, "_split_point",
                                lambda moduli, s=s: s)
            got = quadratic_phase_sums([gram], moduli, modulus, [linear],
                                       [constant])[0]
            assert abs(got - want) <= sum_tolerance(math.prod(moduli))


def test_split_point_is_unsplit_when_small_and_balanced_when_large():
    assert phasesums._split_point([4] * 4) == 0
    for moduli in ([6] * 8, [8] * 7, [16] * 5, [2, 3, 5, 7, 11], [3, 1000],
                   [5000]):
        s = phasesums._split_point(moduli)
        lead, total = math.prod(moduli[:s]), math.prod(moduli)
        assert 0 <= s < len(moduli)
        assert lead ** 2 <= total < (lead * moduli[s]) ** 2


def test_phase_sum_empty_product_is_the_constant_phase():
    assert quadratic_phase_sums([[]], [], 8, [[]], [3])[0] == unit_phase_eval(
        UnitPhase(Fraction(3, 8)))


def test_phase_table_equals_unit_phase_eval_bit_for_bit():
    for n in list(range(1, 130)) + [997, 4096, 20011]:
        table = phasesums._root_table(n)
        for r in range(n):
            assert table[r] == unit_phase_eval(UnitPhase(Fraction(r, n)))


# ---------------------------------------------------------------------------
# Batches of forms

#: Entries small and beyond int64, reduced mod the modulus before int64.
batch_entries = st.one_of(st.integers(-40, 40), st.integers(-10 ** 30, 10 ** 30))


#: Groups of 257 to 800 points, which the kernel splits by default.
SPLIT_GROUPS = [moduli for size in (2, 3, 4)
                for moduli in itertools.product((2, 3, 4, 6, 8, 12), repeat=size)
                if 256 < math.prod(moduli) <= 800]


@st.composite
def form_batches(draw, groups=st.lists(st.sampled_from((1, 2, 3, 4, 6, 8, 12)),
                                       min_size=1, max_size=4)):
    """Two to five forms on one group (at most 800 points) whose cross terms
    are scaled by different divisors of the modulus, so the trailing
    characters of one batch have different periods; with linear terms and
    constants, some of them omitted."""
    moduli = list(draw(groups))
    assume(math.prod(moduli) <= 800)
    modulus = draw(st.sampled_from((2, 6, 8, 12, 24, 48)))
    divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
    m = len(moduli)
    grams, linears, constants = [], [], []
    for _ in range(draw(st.integers(2, 5))):
        scale = draw(st.sampled_from(divisors))
        grams.append([[draw(batch_entries) * (scale if i != j else 1)
                       for j in range(m)] for i in range(m)])
        linears.append(draw(st.one_of(
            st.none(), st.lists(batch_entries, min_size=m, max_size=m))))
        constants.append(draw(batch_entries))
    return grams, moduli, modulus, linears, constants


def check_batch_against_batches_of_one(grams, moduli, modulus, linears,
                                       constants):
    """Each value of the batch is its batch-of-one value bit for bit, and
    that value is within budget of the per-term loop.  A batch of several
    forms takes its exponents from the monomial tables and a batch of one
    evaluates its form directly, so this compares both sides of that
    choice."""
    batch = quadratic_phase_sums(grams, moduli, modulus, linears, constants)
    assert len(batch) == len(grams)
    for value, gram, linear, constant in zip(batch, grams, linears, constants):
        one = quadratic_phase_sums([gram], moduli, modulus, [linear], [constant])
        assert one == [value]
        want = phase_sum_per_term(gram, moduli, modulus,
                                  linear or [0] * len(moduli), constant)
        assert abs(value - want) <= sum_tolerance(math.prod(moduli))


@given(form_batches(st.sampled_from(SPLIT_GROUPS)))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batch_values_equal_batches_of_one(batch):
    check_batch_against_batches_of_one(*batch)


@given(form_batches(), st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batch_values_equal_batches_of_one_at_every_split_point(batch, data):
    s = data.draw(st.integers(0, len(batch[1]) - 1), label="split point")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phasesums, "_split_point", lambda moduli: s)
        check_batch_against_batches_of_one(*batch)


@pytest.mark.parametrize("moduli", [(4, 4, 4), (4, 4, 4, 8)],
                         ids=["unsplit", "split"])
def test_batch_chunk_boundaries_keep_every_value(moduli, monkeypatch):
    # Cross terms alternate between two scales, so the forms of a period
    # class are not consecutive; a block of two forms' trailing points cuts
    # each class into chunks of two and one.
    rng = random.Random(len(moduli))
    m = len(moduli)
    grams = [[[rng.randint(-9, 9) * (2 if i != j and f % 2 else 1)
               for j in range(m)] for i in range(m)] for f in range(9)]
    linears = [[rng.randint(-9, 9) for _ in range(m)] for _ in grams]
    constants = [rng.randint(-9, 9) for _ in grams]
    one_by_one = [quadratic_phase_sums([gram], moduli, 8, [linear],
                                       [constant])[0]
                  for gram, linear, constant in zip(grams, linears, constants)]
    trailing = math.prod(moduli[phasesums._split_point(moduli):])
    monkeypatch.setattr(phasesums, "_BLOCK", 2 * trailing)
    assert quadratic_phase_sums(grams, moduli, 8, linears,
                                constants) == one_by_one


def test_empty_batch_is_empty():
    assert quadratic_phase_sums([], [4, 4], 8) == []


@pytest.mark.parametrize("seed", range(3))
def test_monomial_exponents_equal_the_direct_evaluation(seed):
    # The kernel's two exponent paths on random forms, moduli that exceed
    # the modulus and the largest moduli the caps allow: both are exact, so
    # they agree entry for entry, as C-ordered (forms, points) arrays.  On
    # the group of 10**6 points, coefficients near N times a square x^2
    # pass int64 unless the monomial is reduced mod N first.
    rng = random.Random(seed)
    groups = [(tuple(rng.choice((1, 2, 3, 5, 8, 12))
                     for _ in range(rng.randint(0, 4))),
               rng.choice((2, 7, 12, 24, 2 * 10 ** 6, 2 * 10 ** 7)), 0)
              for _ in range(40)] + [((10 ** 6,), 2 * 10 ** 7, 10 ** 7)]
    for moduli, n, low in groups:
        width = len(moduli)
        forms = rng.randint(1, 4)
        g, b, c = (np.array([rng.randrange(low, n)
                             for _ in range(math.prod(shape))],
                            dtype=np.int64).reshape(shape)
                   for shape in ((forms, width, width), (forms, width),
                                 (forms,)))
        points = phasesums._points(moduli)
        product = (phasesums._coefficients(g, b, c, slice(0, width))
                   @ phasesums._monomials(points, n) % n)
        direct = phasesums._values(points, g, b[:, None, :], c[:, None], n)
        assert product.flags.c_contiguous and product.shape == direct.shape
        assert np.array_equal(product, direct)


#: The largest moduli the default caps allow: ``2k`` at the largest level
#: the coloring cap lets run (``k = 10**7``, one component), and ``2e`` for
#: a torsion group at the group cap (``|T| = e = 10**6``).  Each group is
#: small.  The two unsplit ones have a first coordinate whose square passes
#: the modulus, so monomials and exponents reach their largest values; the
#: split one (40 x 40 x 5) has cross terms that keep every period within
#: its axis.
LARGEST_MODULI = [(2 * 10 ** 7, (4473, 3)), (2 * 10 ** 6, (1415, 5)),
                  (2 * 10 ** 6, (40, 40, 5))]


@pytest.mark.parametrize("modulus, moduli", LARGEST_MODULI,
                         ids=["coloring", "torsion", "torsion-split"])
def test_phase_sums_at_the_largest_modulus_of_the_caps(modulus, moduli):
    rng = random.Random(modulus + len(moduli))
    m, s = len(moduli), phasesums._split_point(moduli)
    grams, linears, constants = [], [], []
    for _ in range(2):
        gram = [[modulus - 1 - rng.randrange(1000) for _ in range(m)]
                for _ in range(m)]
        for i in range(s):  # cross terms of the split group
            for j in range(s, m):
                gram[i][j] = rng.randrange(5) * modulus // moduli[j]
                gram[j][i] = 0
        grams.append(gram)
        linears.append([modulus - 1 - rng.randrange(1000) for _ in range(m)])
        constants.append(rng.randrange(modulus))
    batch = quadratic_phase_sums(grams, moduli, modulus, linears, constants)
    assert quadratic_phase_sums(grams[:1], moduli, modulus, linears[:1],
                                constants[:1]) == batch[:1]
    for value, form in zip(batch, zip(grams, linears, constants)):
        want = phase_sum_per_term(form[0], moduli, modulus, *form[1:])
        assert abs(value - want) <= sum_tolerance(math.prod(moduli))
