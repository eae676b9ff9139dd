"""Torus-boundary structure: state vectors, modular data, Maslov bookkeeping.

State spaces
------------
A disjoint union of ``g`` boundary tori (equivalently a genus-``g``
handlebody model) carries the free vector space on ``(Z_k)^g`` labels; a
:class:`TorusStateVector` is a coefficient table over exactly ``k^g`` label
tuples.

Modular data
------------
On one torus the modular operators in the label basis are fixed as

    S[y][x] = k^{-1/2} exp(-2 pi i x y / k),      T[x][x] = exp(pi i x^2 / k),

the linking and ``q`` of :func:`abtqft.quadmod.cyclic_module`.

``S^2`` is the charge-conjugation permutation ``e_x -> e_{-x}`` for either
sign of the Fourier kernel, but only this sign pairing satisfies the
anomaly identity ``(S T)^3 = exp(pi i / 4) S^2`` entrywise (with the
``+2 pi i x y / k`` kernel the triple product collapses to
``exp(pi i/4) * Id`` instead, which is not a scalar multiple of ``S^2``).
Conjugating both kernel and twist flips the anomaly phase to
``exp(-pi i / 4)``.  :func:`anomaly_check` checks both identities, the
anomaly and the charge conjugation, on one ``S``, ``T`` and ``S^2`` per
level.

Boundary coefficients
---------------------
A bordism with designated boundary components is one symmetric linking
matrix ``L`` over [surgery ``S`` | colored insertions ``I`` | boundary
``B``] components, the boundary components carrying framing data instead
of colors.  Filling the boundary at labels ``x``
(:meth:`ExtendedBordism.fill`) turns it into an honest closed presentation,
itself one linking matrix over [surgery | colored insertion] components,
and the boundary state vector is the table of closed evaluations over
``x``.  Two filling modes are implemented:

* ``"meridian"`` (default): each boundary component becomes a colored
  insertion with color ``x``, its framing on the insertion self-linking
  diagonal, so the presentation keeps ``L`` itself, with insertions
  ``I+B``.  The solid-torus pairing closure then evaluates to
  ``Omega(x, y) * Z(S^3)`` on a core colored ``y``, reproducing the Fourier
  pairing of the torus state space.
* ``"zero_framed"``: each boundary component becomes a surgery component
  (keeping its framing), and a fresh meridian insertion colored ``x``, of
  self-linking zero, links it once: the presentation is ``L`` reordered as
  [``S`` | ``B`` | ``I``], followed by one meridian row and column per
  boundary component.  The trivially filled empty bordism then gives the
  slot values of ``rt_raw_closed([[0]])``.

On one boundary torus the two conventions differ by the modular ``S``:
the zero-framed vector is ``e^{-pi i (sigma(L[S+B, S+B]) - sigma(L[S, S]))/4}
S-bar`` times the meridian one, since summing the new surgery color against
its meridian is the conjugate Fourier kernel.

Anomaly bookkeeping
-------------------
Bordisms carry an integer weight mod 8.  Weights compose additively with the
Maslov index of the gluing triple, and a closed weighted scalar is corrected
by ``exp(+ pi i n / 4)``.  The Maslov index of three Lagrangian frames is
the signature of the standard three-slot quadratic form

    Q(x1, x2, x3) = w(x1, x2) + w(x2, x3) + w(x3, x1)

on their direct sum, computed exactly (this classical construction is not
fixed by the invariants themselves; it is validated here through its
antisymmetry, vanishing and cocycle properties).  Each
:class:`LagrangianFrame` stores the symplectic image ``J v = (b, -a)`` of
every column ``v = (a, b)`` once, since ``w(u, v) = u . J v``: its
isotropy check and every Maslov Gram are then plain dot products.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from .errors import NotLagrangian
from .intlinalg import (IntSymMatrix, clear_denominators, mat_mul, mat_vec,
                        rational_rank, signature)
from .numeric import UnitPhase, approx_to_json, unit_phase_eval
from .quadmod import check_level, cyclic_module
from .surgery import SurgeryPresentation, random_transvection, rt_raw_closed_many

if TYPE_CHECKING:
    import numpy as np


def hopf_pairing(k: int, x: int, y: int) -> UnitPhase:
    """Pairing phase of dual label ``x`` against label ``y``: ``x y / k``."""
    return UnitPhase(cyclic_module(k).linking((x,), (y,)))


@dataclass(frozen=True)
class TorusStateVector:
    """Coefficients over the ``k^g`` label tuples of ``g`` boundary tori."""

    level: int
    genus: int
    coefficients: Dict[Tuple[int, ...], complex]

    def __post_init__(self) -> None:
        k, g = self.level, self.genus
        table: Dict[Tuple[int, ...], complex] = {}
        for label, value in self.coefficients.items():
            key = tuple(int(x) % k for x in label)
            if len(key) != g:
                raise ValueError("label arity must equal the genus")
            table[key] = table.get(key, 0j) + complex(value)
        for key in itertools.product(range(k), repeat=g):
            table.setdefault(key, 0j)
        object.__setattr__(self, "coefficients", table)

    def __getitem__(self, label) -> complex:
        if isinstance(label, int):
            label = (label,)
        return self.coefficients[tuple(int(x) % self.level for x in label)]

    def to_json(self) -> dict:
        return {"k": self.level, "g": self.genus,
                "coeffs": {",".join(str(x) for x in label): approx_to_json(val)
                           for label, val in sorted(self.coefficients.items())}}


# ---------------------------------------------------------------------------
# Modular representation on one torus

def modular_rep(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``S`` and ``T`` matrices on the torus label basis (k x k).

    ``S[y][x] = k^{-1/2} exp(-2 pi i x y / k)`` and
    ``T[x][x] = exp(pi i x^2 / k)``; see the module docstring for why the
    Fourier kernel carries the minus sign.  Both read the shared root
    tables of :mod:`abtqft.phasesums`, which equal :func:`unit_phase_eval`
    bit for bit; numpy is loaded only once the level has passed its check.
    """
    check_level(k)
    import numpy as np
    from . import phasesums
    x = np.arange(k)
    s = phasesums._root_table(k)[np.outer(-x, x) % k] / math.sqrt(k)
    t = np.diag(phasesums._root_table(2 * k)[x * x % (2 * k)])
    return s, t


def twist_phase(k: int, x: int) -> UnitPhase:
    """Exact twist phase of label ``x``: exponent ``x^2 / (2k)`` mod 1."""
    return UnitPhase(cyclic_module(k).q((x,)))


@dataclass(frozen=True)
class AnomalyCheck:
    lhs: np.ndarray            # (S T)^3
    rhs: np.ndarray            # S^2
    phase: complex             # scalar ratio lhs / rhs
    ok: bool
    max_entry_deviation: float
    conjugation_deviation: float  # of S^2 from delta[y, -x]


ANOMALY_PHASE = complex(math.sqrt(0.5), math.sqrt(0.5))  # exp(pi i / 4)

#: Largest deviation of the anomaly phase from :data:`ANOMALY_PHASE`; each
#: entry of ``(S T)^3 - phase S^2`` may deviate by ``k`` times it.
ANOMALY_TOLERANCE = 1e-9

#: Largest entry deviation of ``S^2`` from the charge conjugation.
CONJUGATION_TOLERANCE = 1e-10

ANOMALY_LEVEL_CAP = 64


def anomaly_check(k: int) -> AnomalyCheck:
    """Verify ``(S T)^3 = exp(pi i/4) S^2`` and that ``S^2`` is charge
    conjugation, at level ``k <= ANOMALY_LEVEL_CAP``."""
    if k > ANOMALY_LEVEL_CAP:
        raise ValueError(f"anomaly check capped at k = {ANOMALY_LEVEL_CAP}")
    s, t = modular_rep(k)
    import numpy as np
    st = s @ t
    lhs = st @ st @ st
    rhs = s @ s
    phase = lhs[0][0] / rhs[0][0]   # (S^2)[0][0] = 1 exactly
    max_dev = float(np.max(np.abs(lhs - phase * rhs)))
    x = np.arange(k)
    perm = np.zeros((k, k), dtype=complex)
    perm[-x % k, x] = 1.0
    conj_dev = float(np.max(np.abs(rhs - perm)))
    ok = abs(phase - ANOMALY_PHASE) <= ANOMALY_TOLERANCE \
        and max_dev <= ANOMALY_TOLERANCE * k \
        and conj_dev <= CONJUGATION_TOLERANCE
    return AnomalyCheck(lhs, rhs, phase, ok, max_dev, conj_dev)


# ---------------------------------------------------------------------------
# Bordisms with designated boundary tori

@dataclass(frozen=True)
class ExtendedBordism:
    """Surgery data with designated boundary components and a weight mod 8.

    ``linking`` is the symmetric linking matrix of the whole framed link, its
    components ordered as [surgery | insertion | boundary]: the last
    ``boundary_count`` carry framings instead of colors, the
    ``len(insertion_colors)`` before them are the colored insertions.
    """

    linking: IntSymMatrix
    insertion_colors: Tuple[int, ...] = ()
    boundary_count: int = 0
    weight: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "insertion_colors",
                           tuple(map(int, self.insertion_colors)))
        if not 0 <= self.boundary_count <= self.linking.m - len(self.insertion_colors):
            raise ValueError("linking matrix needs a row per insertion and boundary component")
        object.__setattr__(self, "weight", int(self.weight) % 8)

    def fill(self, colors: Sequence[int], mode: str = "meridian",
             ) -> SurgeryPresentation:
        """Close every boundary component at the given labels."""
        t = self.boundary_count
        if len(colors) != t:
            raise ValueError("one filling color per boundary component required")
        colors = self.insertion_colors + tuple(int(x) for x in colors)
        if mode == "meridian":
            return SurgeryPresentation(self.linking, colors)
        if mode == "zero_framed":
            L = self.linking.entries
            n, r = len(L), len(self.insertion_colors)
            B = range(n - t, n)
            order = [*range(n - r - t), *B, *range(n - r - t, n - t)]
            rows = [[L[i][j] for j in order] + [int(i == b) for b in B]
                    for i in order]
            rows += [[int(i == b) for i in order] + [0] * t for b in B]
            return SurgeryPresentation(IntSymMatrix(rows), colors)
        raise ValueError(f"unknown filling mode {mode!r}")


def boundary_vector(b: ExtendedBordism, k: int,
                    mode: str = "meridian") -> TorusStateVector:
    """State vector of a one-boundary bordism: slot ``x`` holds the closed
    evaluation of the presentation filled at ``x``."""
    if b.boundary_count != 1:
        raise ValueError("boundary_vector needs exactly one boundary component")
    values = rt_raw_closed_many([(b.fill((x,), mode), k) for x in range(k)])
    return TorusStateVector(k, 1, {(x,): value
                                   for x, value in enumerate(values)})


def solid_torus_bordism(core_color: int, core_framing: int = 0,
                        boundary_framing: int = 0) -> ExtendedBordism:
    """Solid torus with core colored ``core_color``, one boundary torus."""
    return ExtendedBordism(
        IntSymMatrix.from_rows([[core_framing, 1], [1, boundary_framing]]),
        (core_color,), 1)


def empty_boundary_bordism(boundary_framing: int = 0) -> ExtendedBordism:
    """One bare boundary torus (no surgery, no insertions)."""
    return ExtendedBordism(IntSymMatrix.from_rows([[boundary_framing]]),
                           boundary_count=1)


def cylinder_bordism() -> ExtendedBordism:
    """Two boundary tori linked once: the pairing cylinder."""
    return ExtendedBordism(IntSymMatrix.from_rows([[0, 1], [1, 0]]),
                           boundary_count=2)


# ---------------------------------------------------------------------------
# Lagrangian frames and the Maslov index

def _symplectic_image(g: int, v: Sequence[int]) -> Tuple[int, ...]:
    """``J v = (b, -a)`` for ``v = (a, b)``, so that ``w(u, v) = u . J v``
    for the standard symplectic form on ``Q^{2g}``, ``w(e_i, e_{g+i}) = 1``."""
    return tuple(v[g:]) + tuple(-x for x in v[:g])


@dataclass(frozen=True)
class LagrangianFrame:
    """A basis (2g x g, column-major storage) of a Lagrangian subspace of
    ``(Q^{2g}, w)``.  Columns may be rational; each is stored scaled to
    integers by the positive lcm of its denominators (same subspace).
    ``images`` holds the symplectic image ``J v`` of each stored column, so
    that ``w(u, v) = u . J v`` is one dot product."""

    genus: int
    columns: Tuple[Tuple[int, ...], ...]
    images: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self) -> None:
        g = self.genus
        cols = tuple(tuple(clear_denominators(col)) for col in self.columns)
        if len(cols) != g or any(len(col) != 2 * g for col in cols):
            raise NotLagrangian("frame must consist of g vectors in Q^{2g}")
        if rational_rank(cols) != g:
            raise NotLagrangian("frame columns are linearly dependent")
        images = tuple(_symplectic_image(g, col) for col in cols)
        if any(any(mat_vec(images[i + 1:], col)) for i, col in enumerate(cols)):
            raise NotLagrangian("frame is not isotropic")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "images", images)


def maslov_index(l1: LagrangianFrame, l2: LagrangianFrame,
                 l3: LagrangianFrame) -> int:
    """Signature of the three-slot form on ``l1 + l2 + l3`` (exact)."""
    g = l1.genus
    if l2.genus != g or l3.genus != g:
        raise ValueError("frames must share one genus")
    # Gram of 2Q for Q(x1,x2,x3) = w(x1,x2) + w(x2,x3) + w(x3,x1): slot
    # pairs (0,1) and (1,2) enter with +w, (0,2) with -w, and the diagonal
    # blocks vanish.  The frames are integral, and positive column scalings
    # are congruences, so this has the signature of Q on the rational
    # frames.
    w12 = [mat_vec(l2.images, u) for u in l1.columns]
    w23 = [mat_vec(l3.images, u) for u in l2.columns]
    w31 = [[-x for x in mat_vec(l3.images, u)] for u in l1.columns]
    zero = [0] * g
    gram = [zero + w12[i] + w31[i] for i in range(g)]
    gram += [list(c12) + zero + w23[i] for i, c12 in enumerate(zip(*w12))]
    gram += [list(c31 + c23) + zero for c31, c23 in zip(zip(*w31), zip(*w23))]
    return signature(gram)


def _scaled_columns(entries: Sequence[Sequence[Tuple[int, int]]]) -> List[List[int]]:
    """The columns of the matrix of fractions ``n / d``, given as pairs
    ``(n, d)``, each multiplied by the lcm of its denominators: integral,
    with the same spans."""
    cols = []
    for col in zip(*entries):
        scale = math.lcm(*[d for _, d in col])
        cols.append([n * (scale // d) for n, d in col])
    return cols


def random_lagrangian(rng: random.Random, genus: int,
                      moves: int = 3) -> LagrangianFrame:
    """Seeded random rational Lagrangian: a graph frame pushed around by a
    few integral symplectic moves and a rational change of basis.

    The rational entries are drawn as ``(numerator, denominator)`` pairs and
    every column is scaled to integers by :func:`_scaled_columns`, which
    changes no subspace; only the final frame is built and validated.  Each
    move acts on the halves ``(a, b)`` of every column directly.
    """
    g = genus
    sym = [[(0, 1)] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            sym[i][j] = sym[j][i] = (rng.randint(-3, 3), rng.randint(1, 3))
    # graph {(x, S x)}: column i is e_i + sum_j S[j][i] e_{g+j}
    graph = [[(int(i == j), 1) for j in range(g)] for i in range(g)] + sym
    halves = [(col[:g], col[g:]) for col in _scaled_columns(graph)]
    for _ in range(rng.randint(0, moves)):
        kind = rng.randrange(3)
        if kind == 0:
            # J: (a, b) -> (-b, a)
            halves = [([-x for x in b], a) for a, b in halves]
        elif kind == 1:
            # shear [[I, B], [0, I]] with B symmetric integral: a -> a + B b
            shear = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i, g):
                    shear[i][j] = shear[j][i] = rng.randint(-2, 2)
            halves = [([x + y for x, y in zip(a, mat_vec(shear, b))], b)
                      for a, b in halves]
        elif g >= 2:
            # block-diagonal GL(g, Z) action [[A, 0], [0, A^{-T}]], A the
            # product of three transvections: each (i, j, s) takes a_i +=
            # s a_j and b_j -= s b_i, its action on a and its inverse
            # transpose on b
            for _ in range(3):
                i, j, s = random_transvection(rng, g)
                for a, b in halves:
                    a[i] += s * a[j]
                    b[j] -= s * b[i]
    cols = [a + b for a, b in halves]

    # rational change of basis inside the subspace
    while True:
        mix = _scaled_columns([[(rng.randint(-2, 2), rng.randint(1, 2))
                                for _ in range(g)] for _ in range(g)])
        if rational_rank(mix) == g:
            break
    # new column c is sum_r mix[c][r] cols[r]
    return LagrangianFrame(g, mat_mul(mix, cols))


# ---------------------------------------------------------------------------
# Weight bookkeeping

def walker_correct(raw: complex, n: int) -> complex:
    """Weighted correction of a closed scalar: multiply by ``e^{+pi i n/4}``."""
    return complex(raw) * unit_phase_eval(UnitPhase(Fraction(n % 8, 8)))


def compose_weights(n1: int, n2: int, mu: int) -> int:
    """Weight of a composite bordism: ``n1 + n2 + mu`` mod 8."""
    return (n1 + n2 + mu) % 8


def closure_weight(L: IntSymMatrix) -> int:
    """Default weight of a handlebody closure presented by ``L``: the
    signature of the regular block, mod 8.  The regular block is congruent
    to ``L`` plus a zero block, so this is the signature of ``L``."""
    return signature(L) % 8
