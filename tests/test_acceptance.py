"""Acceptance gate: every criterion at its stated tolerance.

Each criterion is one test that prints a single pass/fail line (visible with
``pytest -s``); the whole module targets well under a minute on a laptop.
"""

import math
import random
from fractions import Fraction

from abtqft.cli import BLOCK
from abtqft.compare import (
    build_phase_table,
    cs_closed,
    default_corpus,
    load_fixture_table,
    random_degenerate,
    random_nondegenerate,
    verify_reciprocity_dt,
)
from abtqft.extended import (
    ANOMALY_PHASE,
    TorusStateVector,
    anomaly_check,
    hopf_pairing,
    maslov_index,
    random_lagrangian,
)
from abtqft.intlinalg import IntSymMatrix
from abtqft.numeric import UnitPhase
from abtqft.surgery import (
    KirbyMove,
    SurgeryPresentation,
    apply_kirby,
    random_presentation,
    rt_raw_closed,
)
from test_intlinalg import determinant
from test_surgery import closed, direct_sum

LEVELS = (2, 4, 6, 8)
EMPTY = SurgeryPresentation(IntSymMatrix.empty())


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d} {status}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_sphere_value():
    worst = 0.0
    for k in LEVELS:
        want = 1 / math.sqrt(k)
        for p in (EMPTY, closed([[1]]), closed([[-1]])):
            worst = max(worst, abs(rt_raw_closed(p, k) - want))
        worst = max(worst, abs(cs_closed(IntSymMatrix.from_rows([[1]]), k).value - want))
        worst = max(worst, abs(cs_closed(IntSymMatrix.empty(), k).value - want))
    report(1, worst < 1e-10,
           f"sphere = k^(-1/2) on both routes, max dev {worst:.2e}")


def test_criterion_02_zero_framing_value():
    worst = 0.0
    for k in LEVELS:
        worst = max(worst, abs(rt_raw_closed(closed([[0]]), k) - 1))
        worst = max(worst, abs(cs_closed(IntSymMatrix.from_rows([[0]]), k).value - 1))
    report(2, worst < 1e-10,
           f"0-framed unknot = 1 on both routes, max dev {worst:.2e}")


def test_criterion_03_kirby_invariance_500_moves():
    rng = random.Random(2024)
    worst_ratio = 0.0
    for _ in range(500):
        p = random_presentation(rng, max_components=4, entry_bound=4)
        k = rng.choice(LEVELS)
        before = rt_raw_closed(p, k)
        if p.m >= 2 and rng.random() < 0.7:
            i = rng.randrange(p.m)
            j = rng.randrange(p.m - 1)
            if j >= i:
                j += 1
            move = KirbyMove("K2", rng.choice((1, -1)), i, j)
        else:
            move = KirbyMove("K1", rng.choice((1, -1)))
        q = apply_kirby(p, move)
        after = rt_raw_closed(q, k)
        tol = 1e-9 * math.sqrt(k ** max(p.m, q.m))
        worst_ratio = max(worst_ratio, abs(after - before) / tol)
    report(3, worst_ratio < 1.0,
           f"500 K1/K2 moves, worst deviation {worst_ratio:.2e} of budget")


def test_criterion_04_reciprocity_200_nondegenerate():
    rng = random.Random(2025)
    failures = 0
    for _ in range(200):
        L = random_nondegenerate(rng, max_components=3, entry_bound=4)
        r = rng.choice((2, 4, 6))
        if not verify_reciprocity_dt(L, r).ok:
            failures += 1
    report(4, failures == 0,
           f"explicit-signature reciprocity on 200 random matrices, "
           f"{failures} failures")


def test_criterion_05_closed_equivalence_and_frozen_table():
    corpus = list(default_corpus(seed=0, size=300, block=BLOCK))
    ratios = [case.ratio for case in corpus if case.ratio is not None]
    unit_dev = max(abs(abs(r) - 1) for r in ratios)
    table = build_phase_table(corpus)  # raises if any class is inconsistent
    fixture = load_fixture_table()
    ok = (len(ratios) >= 300 and unit_dev < 1e-7
          and table.same_phases(fixture)
          and table.corpus_size == fixture.corpus_size)
    report(5, ok,
           f"{len(ratios)} ratios, |ratio| dev {unit_dev:.2e}, "
           f"class-constant table matches the frozen fixture")


def test_criterion_06_torsion_order_100_randoms():
    from test_intlinalg import bfs_cokernel_order, random_symmetric

    rng = random.Random(2026)
    done = 0
    mismatches = 0
    while done < 100:
        n = rng.randint(1, 3)
        L = IntSymMatrix.from_rows(random_symmetric(rng, n, 4))
        det = determinant(L)
        if det == 0 or abs(det) > 200:
            continue
        if bfs_cokernel_order(L) != abs(det):
            mismatches += 1
        done += 1
    report(6, mismatches == 0,
           f"enumerated cokernel order = |det| on 100 matrices, "
           f"{mismatches} mismatches")


def test_criterion_07_modular_anomaly_all_even_levels():
    worst = 0.0
    for k in range(2, 17, 2):
        chk = anomaly_check(k)
        worst = max(worst, abs(chk.phase - ANOMALY_PHASE),
                    chk.max_entry_deviation, chk.conjugation_deviation)
    report(7, worst < 1e-9,
           f"(ST)^3 = e^(i pi/4) S^2 and S^2 = conjugation for k <= 16, "
           f"max dev {worst:.2e}")


def test_criterion_08_state_space_dimension():
    ok = all(len(TorusStateVector(k, g, {}).coefficients) == k ** g
             for g in (1, 2, 3) for k in LEVELS)
    report(8, ok, "label-set cardinality k^g for g <= 3, k in {2,4,6,8}")


def test_criterion_09_hopf_pairing_matrix():
    ok = True
    for k in LEVELS:
        for x in range(k):
            for y in range(k):
                ok &= hopf_pairing(k, x, y) == UnitPhase(Fraction(x * y, k))
    report(9, ok, "Hopf pairing matrix equals the bicharacter matrix, exact")


def test_criterion_10_maslov_properties():
    rng = random.Random(2027)
    bad = 0
    for _ in range(100):
        g = rng.choice((1, 2, 3))
        f = [random_lagrangian(rng, g) for _ in range(4)]
        m123 = maslov_index(f[0], f[1], f[2])
        checks = (
            maslov_index(f[0], f[0], f[1]) == 0,
            maslov_index(f[2], f[1], f[0]) == -m123,
            maslov_index(f[1], f[0], f[2]) == -m123,
            maslov_index(f[1], f[2], f[0]) == m123,
            m123 - maslov_index(f[0], f[1], f[3])
            + maslov_index(f[0], f[2], f[3])
            - maslov_index(f[1], f[2], f[3]) == 0,
        )
        if not all(checks):
            bad += 1
    report(10, bad == 0,
           f"vanishing/antisymmetry/cocycle on 100 quadruples, {bad} bad")


def test_criterion_11_connected_sum_law():
    rng = random.Random(2028)
    worst = 0.0
    for _ in range(50):
        a = random_presentation(rng, max_components=2, entry_bound=3)
        b = random_presentation(rng, max_components=2, entry_bound=3)
        k = rng.choice((2, 4))
        lhs = rt_raw_closed(direct_sum(a, b), k) * rt_raw_closed(EMPTY, k)
        rhs = rt_raw_closed(a, k) * rt_raw_closed(b, k)
        worst = max(worst, abs(lhs - rhs))
    report(11, worst < 1e-8,
           f"split-presentation product law on 50 pairs, max dev {worst:.2e}")


def test_criterion_12_degenerate_reciprocity_modes():
    rng = random.Random(2029)
    failures = 0
    for _ in range(100):
        L = random_degenerate(rng)
        r = rng.choice((2, 4))
        if not verify_reciprocity_dt(L, r, "full_nullity").ok:
            failures += 1
    half = verify_reciprocity_dt(IntSymMatrix.from_rows([[0]]), 2, "paper_half")
    mismatch = (not half.ok and abs(half.lhs - 2) < 1e-12
                and abs(half.rhs - math.sqrt(2)) < 1e-12)
    print(f"[acceptance] half-kernel normalization on [[0]], r=2: "
          f"lhs {half.lhs.real:g} vs rhs {half.rhs.real:g} "
          f"(mismatch documents the null-exponent ambiguity)")
    report(12, failures == 0 and mismatch,
           f"full-nullity mode on 100 degenerate matrices ({failures} "
           f"failures); half mode mismatch reproduced")
