import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from sympy import Matrix

from abtqft import extended
from abtqft.errors import NotLagrangian
from abtqft.extended import (
    ANOMALY_PHASE,
    ExtendedBordism,
    LagrangianFrame,
    TorusStateVector,
    anomaly_check,
    boundary_vector,
    closure_weight,
    compose_weights,
    cylinder_bordism,
    empty_boundary_bordism,
    hopf_pairing,
    maslov_index,
    modular_rep,
    random_lagrangian,
    solid_torus_bordism,
    twist_phase,
    walker_correct,
)
from abtqft.intlinalg import IntSymMatrix, mat_mul, mat_vec, signature
from abtqft.numeric import UnitPhase, unit_phase_eval
from abtqft.surgery import (SurgeryPresentation, random_symmetric_matrix,
                            rt_raw_closed)
from test_intlinalg import mat_transpose
from test_surgery import random_unimodular

LEVELS = (2, 4, 6, 8)


# ---------------------------------------------------------------------------
# Hopf pairing

def test_hopf_pairing_examples():
    assert unit_phase_eval(hopf_pairing(4, 1, 2)) == -1
    assert unit_phase_eval(hopf_pairing(6, 0, 4)) == 1
    assert unit_phase_eval(hopf_pairing(2, 1, 1)) == -1


@pytest.mark.parametrize("k", LEVELS)
def test_hopf_pairing_matrix_equals_bicharacter_matrix(k):
    # labels outside range(k) too: x y / k is well defined mod k
    for x in range(-k, 2 * k):
        for y in range(k):
            assert hopf_pairing(k, x, y) == UnitPhase(Fraction(x * y, k))


# ---------------------------------------------------------------------------
# Modular representation

def test_modular_rep_level_two():
    s, t = modular_rep(2)
    assert np.allclose(s * math.sqrt(2), np.array([[1, 1], [1, -1]]))
    assert np.allclose(np.diag(t), np.array([1, 1j]))


def test_twist_phase_exact():
    assert twist_phase(2, 1).angle == Fraction(1, 4)
    assert twist_phase(8, 2).angle == Fraction(1, 4)
    # x^2 / 2k is well defined mod k at even k, so any representative works
    for k in LEVELS:
        for x in range(-k, 2 * k):
            assert twist_phase(k, x) == UnitPhase(Fraction(x * x, 2 * k))


@pytest.mark.parametrize("k", range(2, 17, 2))
def test_s_matrix_unitary(k):
    s, _ = modular_rep(k)
    assert np.max(np.abs(s @ s.conj().T - np.eye(k))) < 1e-10


@pytest.mark.parametrize("k", range(2, 17, 2))
def test_s_squared_is_charge_conjugation(k):
    # The deviation that anomaly_check reports is that of its own S^2 from
    # the permutation e_x -> e_{-x}.
    chk = anomaly_check(k)
    conjugation = np.eye(k)[-np.arange(k) % k]
    assert chk.conjugation_deviation \
        == float(np.max(np.abs(chk.rhs - conjugation)))
    assert chk.conjugation_deviation < 1e-10


@pytest.mark.parametrize("k", range(2, 17, 2))
def test_anomaly_phase(k):
    chk = anomaly_check(k)
    assert chk.ok
    assert abs(chk.phase - ANOMALY_PHASE) < 1e-9
    assert chk.max_entry_deviation < 1e-9 * k


def test_anomaly_check_caps_level():
    with pytest.raises(ValueError):
        anomaly_check(66)


# ---------------------------------------------------------------------------
# State vectors

@pytest.mark.parametrize("g", (1, 2, 3))
@pytest.mark.parametrize("k", LEVELS)
def test_state_vector_has_k_to_the_g_slots(g, k):
    vec = TorusStateVector(k, g, {})
    assert len(vec.coefficients) == k ** g


def test_state_vector_reduces_labels_mod_k():
    vec = TorusStateVector(4, 1, {(5,): 1 + 0j})
    assert vec[(1,)] == 1 + 0j
    assert vec[(5,)] == 1 + 0j


def test_state_vector_json_shape():
    vec = TorusStateVector(2, 2, {(0, 1): 1j})
    obj = vec.to_json()
    assert obj["k"] == 2 and obj["g"] == 2
    assert set(obj["coeffs"]) == {"0,0", "0,1", "1,0", "1,1"}
    assert obj["coeffs"]["0,1"] == [0.0, 1.0]


# ---------------------------------------------------------------------------
# Boundary vectors via filling

@pytest.mark.parametrize("k", (2, 4, 6))
def test_solid_torus_closure_is_fourier_pairing(k):
    s3 = 1 / math.sqrt(k)
    for y in range(k):
        vec = boundary_vector(solid_torus_bordism(y), k)
        for x in range(k):
            expect = unit_phase_eval(hopf_pairing(k, x, y)) * s3
            assert abs(vec[(x,)] - expect) < 1e-12


def test_zero_framed_filling_of_bare_boundary():
    vec = boundary_vector(empty_boundary_bordism(), 2, mode="zero_framed")
    want = rt_raw_closed(SurgeryPresentation(IntSymMatrix.from_rows([[0]])), 2)
    assert abs(vec[(0,)] - want) < 1e-12
    assert abs(want - 1) < 1e-12


def test_meridian_filling_of_bare_boundary_gives_sphere_normalization():
    k = 4
    vec = boundary_vector(empty_boundary_bordism(), k, mode="meridian")
    for x in range(k):
        assert abs(vec[(x,)] - 1 / math.sqrt(k)) < 1e-12


def test_boundary_vector_requires_single_boundary():
    with pytest.raises(ValueError):
        boundary_vector(cylinder_bordism(), 2)


def test_unknown_filling_mode_rejected():
    with pytest.raises(ValueError):
        empty_boundary_bordism().fill((0,), mode="sideways")


@pytest.mark.parametrize("k", (2, 4))
def test_cylinder_pairing_matrix_is_bicharacter(k):
    cyl = cylinder_bordism()
    s3 = rt_raw_closed(SurgeryPresentation(IntSymMatrix.empty()), k)
    for x in range(k):
        for y in range(k):
            val = rt_raw_closed(cyl.fill((x, y)), k)
            assert abs(val - unit_phase_eval(hopf_pairing(k, x, y)) * s3) < 1e-12


def random_blocks(rng, s, r, t):
    """The six blocks of a random linking matrix over [surgery |
    insertion | boundary] with ``s``, ``r`` and ``t`` components: the
    surgery, insertion and boundary self blocks, then the surgery-insertion,
    surgery-boundary and insertion-boundary blocks."""
    def block(n, p):
        return tuple(tuple(rng.randint(-3, 3) for _ in range(p))
                     for _ in range(n))
    return (random_symmetric_matrix(rng, s, 3).entries,
            random_symmetric_matrix(rng, r, 3).entries,
            random_symmetric_matrix(rng, t, 3).entries,
            block(s, r), block(s, t), block(r, t))


def joined(blocks):
    """The linking matrix whose blocks are ``blocks``."""
    L, C, E, B, D, F = blocks
    s, r, t = len(L), len(C), len(E)
    rows = [L[i] + B[i] + D[i] for i in range(s)]
    rows += [tuple(B[a][i] for a in range(s)) + C[i] + F[i] for i in range(r)]
    rows += [tuple(D[a][j] for a in range(s)) + tuple(F[a][j] for a in range(r))
             + E[j] for j in range(t)]
    return IntSymMatrix.from_rows(rows)


def reference_fill(blocks, insertion_colors, colors, mode):
    """The filling assembled row by row from the six blocks, as it was
    written when the bordism and the presentation stored blocks: the
    reference of ``ExtendedBordism.fill``, as the presentation JSON
    ``{"L", "B", "C", "h"}``."""
    L, C, E, B, D, F = blocks
    s, r, t = len(L), len(C), len(E)
    h = list(insertion_colors) + list(colors)
    if mode == "meridian":
        mixed = [list(B[i] + D[i]) for i in range(s)]
        self_rows = [list(C[i]) + list(F[i]) for i in range(r)]
        self_rows += [[F[i][j] for i in range(r)] + list(E[j]) for j in range(t)]
        return {"L": [list(row) for row in L], "B": mixed, "C": self_rows,
                "h": h}
    L_rows = [list(L[i]) + list(D[i]) for i in range(s)]
    L_rows += [[D[i][j] for i in range(s)] + list(E[j]) for j in range(t)]
    mixed = [list(B[i]) + [0] * t for i in range(s)]
    mixed += [[F[i][j] for i in range(r)] + [int(a == j) for a in range(t)]
              for j in range(t)]
    self_rows = [list(C[i]) + [0] * t for i in range(r)]
    self_rows += [[0] * (r + t) for _ in range(t)]
    return {"L": L_rows, "B": mixed, "C": self_rows, "h": h}


def test_fill_slices_what_the_block_assembly_builds():
    # 47 bordisms for each of the 64 shapes (s, r, t) in 0..3, t = 0 among
    # them: 3008 bordisms, each filled in both modes, whose JSON blocks are
    # the reference's and whose presentation is the one those blocks read
    rng = random.Random(101)
    for s, r, t in itertools.product(range(4), repeat=3):
        for _ in range(47):
            blocks = random_blocks(rng, s, r, t)
            insertion_colors = tuple(rng.randrange(8) for _ in range(r))
            colors = tuple(rng.randrange(8) for _ in range(t))
            bordism = ExtendedBordism(joined(blocks), insertion_colors, t)
            for mode in ("meridian", "zero_framed"):
                want = reference_fill(blocks, insertion_colors, colors, mode)
                filled = bordism.fill(colors, mode)
                assert filled.to_json() == want
                assert filled == SurgeryPresentation.from_json(want)


def test_meridian_filling_keeps_the_linking_matrix():
    # The boundary components become insertions in place: the presentation
    # holds the bordism's matrix itself, and with it any elimination it keeps
    rng = random.Random(103)
    for s, r, t in itertools.product(range(3), repeat=3):
        bordism = ExtendedBordism(joined(random_blocks(rng, s, r, t)),
                                  tuple(range(r)), t)
        filled = bordism.fill(tuple(range(t)), "meridian")
        assert filled.linking is bordism.linking
        assert filled.insertion_colors == tuple(range(r)) + tuple(range(t))


def test_bordism_needs_rows_for_its_insertions_and_boundary():
    L = IntSymMatrix.from_rows([[0, 1], [1, 0]])
    for colors, t in (((1, 2), 1), ((), 3), ((), -1)):
        with pytest.raises(ValueError):
            ExtendedBordism(L, colors, t)
    assert ExtendedBordism(L, (1,), 1, weight=11).weight == 3
    # colors given as a list are stored as a tuple, so fill can extend them
    assert ExtendedBordism(L, [1], 1).fill((2,)) == solid_torus_bordism(1).fill((2,))


def test_boundary_vector_agrees_with_direct_closure():
    rng = random.Random(83)
    for _ in range(20):
        s = rng.randint(0, 2)
        bordism = ExtendedBordism(joined(random_blocks(rng, s, 0, 1)),
                                  boundary_count=1)
        k = rng.choice((2, 4))
        for mode in ("meridian", "zero_framed"):
            vec = boundary_vector(bordism, k, mode=mode)
            for x in range(k):
                direct = rt_raw_closed(bordism.fill((x,), mode=mode), k)
                assert abs(vec[(x,)] - direct) < 1e-8


@pytest.mark.parametrize("k", LEVELS)
def test_zero_framed_vector_is_s_bar_of_the_meridian_one(k):
    # Summing the new surgery color against its meridian is the conjugate
    # Fourier kernel: zero_framed = e^{-pi i (sigma(L_zero) - sigma(L_S))/4}
    # S-bar meridian, L_zero the zero-framed surgery block, L_S the
    # bordism's.
    rng = random.Random(107 + k)
    s_bar = modular_rep(k)[0].conj()
    for _ in range(125):
        s, r = rng.randint(0, 3), rng.randint(0, 2)
        bordism = ExtendedBordism(joined(random_blocks(rng, s, r, 1)),
                                  tuple(rng.randrange(k) for _ in range(r)), 1)
        L_S = IntSymMatrix.from_rows(row[:s] for row in bordism.linking.entries[:s])
        L_zero = bordism.fill((0,), "zero_framed").surgery
        phase = unit_phase_eval(UnitPhase(Fraction(signature(L_S) - signature(L_zero), 8)))
        meridian = boundary_vector(bordism, k, "meridian")
        zero = boundary_vector(bordism, k, "zero_framed")
        want = phase * s_bar @ np.array([meridian[x] for x in range(k)])
        got = np.array([zero[x] for x in range(k)])
        assert np.max(np.abs(got - want)) <= 1e-9 * math.sqrt(k ** (s + 1))


def test_filled_bordism_respects_insertions():
    bordism = solid_torus_bordism(core_color=1)
    filled = bordism.fill((2,))
    assert filled.insertion_colors == (1, 2)
    assert filled.to_json()["C"] == [[0, 1], [1, 0]]


# ---------------------------------------------------------------------------
# Maslov index

def frame(cols):
    g = len(cols)
    return LagrangianFrame(g, cols)


def test_maslov_vanishes_on_repeats():
    l1 = frame([[1, 0]])
    l2 = frame([[0, 1]])
    assert maslov_index(l1, l1, l2) == 0
    assert maslov_index(l1, l2, l2) == 0
    assert maslov_index(l2, l1, l2) == 0


def test_maslov_standard_triple():
    l1 = frame([[1, 0]])
    l2 = frame([[1, 1]])
    l3 = frame([[0, 1]])
    assert maslov_index(l1, l2, l3) == 1
    assert maslov_index(l3, l2, l1) == -1


def test_maslov_scale_invariance():
    l1 = frame([[1, 0]])
    l2 = frame([[Fraction(2, 3), Fraction(2, 3)]])
    l3 = frame([[0, Fraction(5, 7)]])
    assert maslov_index(l1, l2, l3) == 1


def test_maslov_antisymmetry_and_cocycle_on_random_quadruples():
    rng = random.Random(89)
    cases = 0
    while cases < 100:
        g = rng.choice((1, 2, 3))
        f = [random_lagrangian(rng, g) for _ in range(4)]
        m123 = maslov_index(f[0], f[1], f[2])
        assert maslov_index(f[2], f[1], f[0]) == -m123
        assert maslov_index(f[0], f[2], f[1]) == -m123
        assert maslov_index(f[1], f[2], f[0]) == m123
        cocycle = (m123
                   - maslov_index(f[0], f[1], f[3])
                   + maslov_index(f[0], f[2], f[3])
                   - maslov_index(f[1], f[2], f[3]))
        assert cocycle == 0
        cases += 1


def test_lagrangian_validation():
    with pytest.raises(NotLagrangian):
        LagrangianFrame(1, [[1, 0], [0, 1]])  # too many columns
    with pytest.raises(NotLagrangian):
        LagrangianFrame(2, [[1, 0, 0, 0], [0, 1, 1, 0]])
    with pytest.raises(NotLagrangian):
        LagrangianFrame(2, [[1, 0, 0, 0], [2, 0, 0, 0]])


def pairing_by_coordinates(g, u, v):
    """``w(e_i, e_{g+i}) = 1`` written out coordinate by coordinate."""
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))


def test_random_lagrangians_are_lagrangian():
    rng = random.Random(97)
    for _ in range(50):
        g = rng.choice((1, 2, 3))
        f = random_lagrangian(rng, g)
        for i in range(g):
            for j in range(g):
                assert pairing_by_coordinates(g, f.columns[i], f.columns[j]) == 0


def gram_by_pairs(l1, l2, l3):
    """The Maslov Gram assembled one pairing at a time, as the library
    once did: slot pairs (0,1) and (1,2) with +w, (0,2) with -w."""
    g = l1.genus
    frames = (l1.columns, l2.columns, l3.columns)
    gram = [[0] * (3 * g) for _ in range(3 * g)]
    for (a, b, sign) in ((0, 1, 1), (1, 2, 1), (0, 2, -1)):
        for i, u in enumerate(frames[a]):
            for j, v in enumerate(frames[b]):
                val = sign * pairing_by_coordinates(g, u, v)
                gram[a * g + i][b * g + j] += val
                gram[b * g + j][a * g + i] += val
    return gram


def test_symplectic_pairing_is_the_coordinate_form():
    # A frame pairs through the stored images, w(u, v) = u . J v.
    rng = random.Random(307)
    for _ in range(200):
        g = rng.randint(1, 4)
        u = [rng.randint(-5, 5) for _ in range(2 * g)]
        v = [rng.randint(-5, 5) for _ in range(2 * g)]
        w_uv = mat_vec((extended._symplectic_image(g, v),), u)[0]
        w_vu = mat_vec((extended._symplectic_image(g, u),), v)[0]
        assert w_uv == pairing_by_coordinates(g, u, v) == -w_vu


def test_frame_images_are_hidden_from_equality_and_repr():
    f = frame([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert f.images == ((0, 0, -1, 0), (0, 0, 0, -1))
    assert f == LagrangianFrame(2, ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert "images" not in repr(f)
    scaled = frame([[Fraction(1, 2), Fraction(3, 2)]])
    assert scaled.columns == ((1, 3),) and scaled.images == ((3, -1),)


def test_maslov_index_matches_the_pairwise_gram(monkeypatch):
    # Seeded triples, repeated frames among them, and the same frames
    # given by rational columns: the Gram handed to ``signature`` is the
    # pairwise one entry for entry, and so is the index.
    grams = []

    def recorded(rows):
        grams.append([list(row) for row in rows])
        return signature(rows)

    monkeypatch.setattr(extended, "signature", recorded)
    rng = random.Random(311)
    for _ in range(60):
        g = rng.choice((1, 2, 3))
        f = [random_lagrangian(rng, g) for _ in range(3)]
        rational = [LagrangianFrame(
            g, [[Fraction(x, d) for x in col]
                for col, d in zip(fr.columns, (rng.randint(1, 5) for _ in range(g)))])
            for fr in f]
        for a, b, c in ((0, 1, 2), (0, 0, 1), (1, 0, 1), (2, 2, 2), (2, 1, 0)):
            for frames in ((f[a], f[b], f[c]), (rational[a], rational[b], rational[c])):
                grams.clear()
                index = maslov_index(*frames)
                want = gram_by_pairs(*frames)
                assert grams == [want]
                assert index == signature(want)
            assert maslov_index(rational[a], rational[b], rational[c]) \
                == maslov_index(f[a], f[b], f[c])


#: The seven indices of each of the first 20 cases of ``verify maslov
#: --seed 0`` (m012, m210, m120, m001, m013, m023, m123), recorded before
#: the Gram was built from stored symplectic images.
MASLOV_SEED0_INDICES = [
    (2, -2, 2, 0, 2, -2, -2), (1, -1, 1, 0, 1, -1, -1), (0, 0, 0, 0, 0, -2, -2),
    (1, -1, 1, 0, -1, -1, 1), (-3, 3, -3, 0, 1, 3, -1), (-1, 1, -1, 0, 1, 1, -1),
    (-1, 1, -1, 0, -1, 1, 1), (-2, 2, -2, 0, 2, 2, -2), (-1, 1, -1, 0, -1, 1, 1),
    (-1, 1, -1, 0, 1, -1, -3), (-1, 1, -1, 0, -3, -3, -1), (-1, 1, -1, 0, 1, 1, -1),
    (-2, 2, -2, 0, -2, -2, -2), (3, -3, 3, 0, 1, -1, 1), (1, -1, 1, 0, 1, -1, -1),
    (0, 0, 0, 0, 2, 2, 0), (-1, 1, -1, 0, -1, 1, 1), (-2, 2, -2, 0, 0, 0, -2),
    (-1, 1, -1, 0, 1, 1, -1), (-1, 1, -1, 0, 1, 1, -1),
]


def test_maslov_suite_seed0_indices_are_pinned():
    rng = random.Random(0)  # the draws of ``verify maslov --seed 0``
    got = []
    for _ in range(20):
        g = rng.choice((1, 2, 3))
        f = [random_lagrangian(rng, g) for _ in range(4)]
        got.append(tuple(maslov_index(f[a], f[b], f[c]) for a, b, c in
                         ((0, 1, 2), (2, 1, 0), (1, 2, 0), (0, 0, 1),
                          (0, 1, 3), (0, 2, 3), (1, 2, 3))))
    assert got == MASLOV_SEED0_INDICES


def random_lagrangian_by_dense_moves(rng, genus, moves=3):
    """The former ``random_lagrangian``: each move a dense 2g x 2g matrix
    applied to every column by ``mat_vec``, the GL(g, Z) move with
    sympy's inverse of ``A``."""
    g = genus

    def scaled_columns(entries):
        scales = [math.lcm(*(d for _, d in col)) for col in zip(*entries)]
        return [[n * (s // d) for (n, d), s in zip(row, scales)] for row in entries]

    sym = [[(0, 1)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            sym[i][j] = sym[j][i] = (rng.randint(-3, 3), rng.randint(1, 3))
    graph = [[(int(i == j), 1) for j in range(g)] for i in range(g)] + sym
    cols = mat_transpose(scaled_columns(graph))
    for _ in range(rng.randint(0, moves)):
        kind = rng.randrange(3)
        if kind == 0:
            mat = [[0] * (2 * g) for _ in range(2 * g)]
            for i in range(g):
                mat[i][g + i] = -1
                mat[g + i][i] = 1
        elif kind == 1:
            mat = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
            for i in range(g):
                for j in range(i, g):
                    mat[i][g + j] = mat[j][g + i] = rng.randint(-2, 2)
        else:
            a = random_unimodular(rng, g, steps=3)
            a_inv_t = [[int(x) for x in row] for row in Matrix(a).inv().T.tolist()]
            mat = [[0] * (2 * g) for _ in range(2 * g)]
            for i in range(g):
                for j in range(g):
                    mat[i][j] = a[i][j]
                    mat[g + i][g + j] = a_inv_t[i][j]
        cols = [mat_vec(mat, col) for col in cols]
    while True:
        mix = scaled_columns([[(rng.randint(-2, 2), rng.randint(1, 2))
                               for _ in range(g)] for _ in range(g)])
        if Matrix(mix).rank() == g:
            break
    return LagrangianFrame(g, mat_mul(mat_transpose(mix), cols))


def test_random_lagrangian_matches_dense_moves_draw_for_draw():
    seeder = random.Random(313)
    for _ in range(100):  # two calls on each generator: 200 calls
        seed = seeder.getrandbits(32)
        g, moves = seeder.choice((1, 2, 3)), seeder.choice((0, 1, 3, 6))
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(2):
            assert random_lagrangian(rng, g, moves) \
                == random_lagrangian_by_dense_moves(ref, g, moves)
            assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# Weights

def test_walker_correct_examples():
    assert walker_correct(1 + 0j, 0) == 1
    assert abs(walker_correct(1 + 0j, 4) + 1) < 1e-15
    val = 1 / math.sqrt(6)
    assert abs(walker_correct(val, 8) - val) < 1e-15


def test_compose_weights_examples():
    assert compose_weights(0, 0, 0) == 0
    assert compose_weights(3, 6, 1) == 2
    l1 = frame([[1, 0]])
    l2 = frame([[1, 1]])
    l3 = frame([[0, 1]])
    assert compose_weights(0, 0, maslov_index(l1, l2, l3)) == 1


def test_closure_weight_is_regular_signature():
    assert closure_weight(IntSymMatrix.from_rows([[1]])) == 1
    assert closure_weight(IntSymMatrix.from_rows([[0]])) == 0
    assert closure_weight(IntSymMatrix.from_rows([[-1, 0], [0, 0]])) == 7


def test_weight_correction_composes_like_weights():
    # correcting by n1 then n2+mu equals correcting by the composed weight,
    # up to a full turn
    z = 0.25 - 0.75j
    n1, n2, mu = 3, 6, 5
    combined = walker_correct(z, compose_weights(n1, n2, mu))
    stepped = walker_correct(walker_correct(z, n1), (n2 + mu) % 8)
    assert abs(combined - stepped) < 1e-12
