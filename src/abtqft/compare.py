"""Torsion-formula invariant, reciprocity checks, and the equivalence engine.

Two independent ground truths are computed for every closed presentation:

* :func:`abtqft.surgery.rt_raw_closed` sums ``k^m`` exact link-evaluation
  phases (the brute-force route, through the one coloring-sum function
  :func:`abtqft.surgery.coloring_sums`), and
* :func:`cs_closed_many` evaluates the torsion formula

      value = k^{(nu - 1)/2} * |T|^{-1/2} * sum_{x in T} exp(-2 pi i k q(x)),

  where ``nu`` is the nullity of the surgery matrix, ``T`` the torsion group
  of its regular block, and ``q`` the quadratic refinement of the torsion
  linking form.  A batch of ``(L, k)`` pairs runs one regular decomposition
  per distinct ``L``, refuses a pair on its level or its ``|T|`` before any
  Gram solve, and makes one :func:`abtqft.quadmod.gauss_sums` call, one
  kernel batch per non-cyclic group; :func:`cs_closed` is its batch of
  one, as :func:`abtqft.surgery.rt_raw_closed` is of
  :func:`abtqft.surgery.rt_raw_closed_many`.  A value is the same bits in
  any batch.

The torsion route stays independent of the identity the two routes check.
On a cyclic ``T`` its Gauss sum is the classical one-dimensional
evaluation (:func:`abtqft.quadmod.cyclic_gauss_sum`: Gauss's sign and
Jacobi symbols of integers); no multi-dimensional reciprocity and no
Milgram formula over all of ``T`` enters it, and every other ``T`` is
enumerated by the kernel, which also checks the closed form in the tests.

The two routes meet in one place, :func:`both_routes`: the reciprocity
check, the equivalence corpus (streamed in blocks) and ``invariant --side
both`` read it.

Sign of the torsion exponent
----------------------------
The exponent sign in the cokernel sum is not forced by the definitions of
``q`` and ``T`` alone.  :func:`cs_closed` uses ``exp(-2 pi i k q(x))``, the
conjugate of :func:`abtqft.quadmod.gauss_sums`: it is the exponent produced
by substituting the explicit-signature reciprocity identity (Deloup and
Turaev, "On reciprocity", 2007) into the brute-force sum.  With it the two
routes agree exactly, so the equivalence ratio is 1 for every presentation
and in particular constant on signature classes.  The positive exponent is
not an equivalent choice: its rt/cs ratio depends on more than the
signature mod 8 (already ``[[3]]`` and ``[[5]]`` at ``k = 2`` give ratios
-1 and +1 with equal signature), so no signature-indexed phase table exists
for it and :func:`build_phase_table` raises :class:`InconsistentPhase` on
such ratios.

The resolution is empirical and frozen: the shipped phase-table fixture
pins the all-ones table.  A closed-form signature phase ``exp(-pi i
sigma/4)`` between the two routes is deliberately *not* asserted anywhere;
it fails the sanity check on ``[[1]]`` (both routes give ``k^{-1/2}``,
ratio 1, at signature 1).

Reciprocity
-----------
:func:`verify_reciprocity_dt_many` checks, by enumeration of both sides,

    sum_{n in Z_r^m} e^{(pi i/r) n^T L n}
        = r^d r^{rho/2} e^{pi i sigma(L)/4} |det L_reg|^{-1/2}
          sum_{l in Z^rho / L_reg Z^rho} e^{-pi i r l^T L_reg^{-1} l}

for even ``r``, with ``L_reg`` the regular block of rank ``rho`` and ``d``
the null-direction exponent (``d = 0`` for nondegenerate ``L``).  Both
sides come from one :func:`both_routes` batch; :func:`verify_reciprocity_dt`
is the batch of one.  The square-root branch of the determinant factor is
always taken through this explicit-signature form.  For degenerate ``L``
the left side factors over the saturated kernel and picks up ``r^nu``; the
check takes ``d = nu`` (``"full_nullity"``) or ``d = nu/2``
(``"paper_half"``), so the discrepancy between the two normalizations is
reproducible: already ``L = [[0]], r = 2`` gives 2 versus sqrt(2).
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import InconsistentPhase
from .intlinalg import (
    IntSymMatrix,
    RegularDecomposition,
    det,
    rank,
    regular_decomposition,
    signature,
)
from .numeric import (
    ROOTS8,
    SUM_TOLERANCE_BASE,
    UnitPhase,
    rational_from_json,
    rational_to_json,
    sum_tolerance,
    unit_phase_eval,
)
from .quadmod import (
    check_group_order,
    check_level,
    from_decomposition,
    gauss_sums,
)
from .surgery import (
    DEFAULT_ENUMERATION_CAP,
    SurgeryPresentation,
    coloring_sums,
    random_symmetric_matrix,
    random_transvection,
    raw_closed_from_sum,
    slide_rows,
)

#: Below this magnitude a torsion Gauss sum counts as vanishing and the
#: ratio of :func:`both_routes` is undefined (nonvanishing normalized sums at
#: desk scale have magnitude >= 1e-3, float noise sits near 1e-13).
ZERO_GAUSS_TOLERANCE = 1e-8

#: Largest distance of an equivalence ratio from the phase of its signature
#: class before :func:`build_phase_table` refuses the table.
PHASE_CLASS_TOL = 1e-7


@dataclass(frozen=True)
class CsClosedResult:
    """Torsion-formula invariant broken into its factors.

    ``value = k^{m_exponent} * gauss`` with ``gauss`` the normalized torsion
    Gauss sum and ``m_exponent = (nu - 1)/2``, ``nu`` the ``nullity``.
    """

    nullity: int
    torsion_order: int
    gauss: complex
    value: complex

    @property
    def m_exponent(self) -> Fraction:
        return Fraction(self.nullity - 1, 2)


def cs_closed_many(pairs: Sequence[Tuple[IntSymMatrix, int]]
                   ) -> List[CsClosedResult]:
    """Torsion-formula invariant of each ``(L, k)`` pair.

    Each distinct ``L`` gets one regular decomposition and one module, and
    each distinct ``(L, k)`` one Gauss sum, all of them in one
    :func:`abtqft.quadmod.gauss_sums` batch.  Each pair's ``L`` is looked
    up once, by its kept hash; decompositions and modules are then indexed
    by the position of their ``L``, and Gauss sums by ``(position, k)``.
    The level and then the group cap of each pair are checked in the order
    of ``pairs``, before any Gram solve, so a batch refuses the pair a loop
    of :func:`cs_closed` would.
    A nondegenerate ``L`` is checked on ``|T| = |det L|`` (:func:`det`),
    before its Smith form; a degenerate one on its decomposition's ``|T|``.
    """
    index: Dict[IntSymMatrix, int] = {}
    rds: List[RegularDecomposition] = []
    at: List[int] = []  # the position in rds of each pair's L
    for L, k in pairs:
        check_level(k)
        i = index.get(L)
        if i is None:
            check_group_order(abs(det(L)))
            rd = regular_decomposition(L)
            check_group_order(rd.order)
            i = index[L] = len(rds)
            rds.append(rd)
        at.append(i)
    modules = [from_decomposition(rd) for rd in rds]
    keys = list(dict.fromkeys(zip(at, (k for _, k in pairs))))
    gauss = dict(zip(keys, gauss_sums([(modules[i], k) for i, k in keys])))
    results = []
    for i, (_, k) in zip(at, pairs):
        nu = rds[i].nullity
        conj = gauss[i, k].conjugate()
        results.append(CsClosedResult(
            nullity=nu,
            torsion_order=modules[i].order,
            gauss=conj,
            value=math.sqrt(float(k) ** (nu - 1)) * conj,
        ))
    return results


def cs_closed(L: IntSymMatrix, k: int) -> CsClosedResult:
    """Evaluate the torsion-formula invariant of a closed presentation: the
    batch of one of :func:`cs_closed_many`."""
    return cs_closed_many([(L, k)])[0]


class Routes(NamedTuple):
    """Both routes on one ``(L, k)`` pair: the coloring sum, ``rt`` formed
    from it, the torsion result, and ``rt / cs`` (``None`` when the torsion
    Gauss sum vanishes; both routes are 0 there)."""

    coloring_sum: complex
    rt: complex
    cs: CsClosedResult
    ratio: Optional[complex]


def both_routes(pairs: Sequence[Tuple[IntSymMatrix, int]]) -> List[Routes]:
    """Both routes on each ``(L, k)`` pair, the one place where they meet:
    one :func:`coloring_sums` batch, checked and run first, then one
    :func:`cs_closed_many` batch, which shares the elimination ``rt`` reads."""
    sums = coloring_sums([(SurgeryPresentation(L), k) for L, k in pairs])
    rts = [raw_closed_from_sum(L, k, total)
           for (L, k), total in zip(pairs, sums)]
    return [Routes(total, rt, cs, None if abs(cs.value) <= ZERO_GAUSS_TOLERANCE
                   else rt / cs.value)
            for total, rt, cs in zip(sums, rts, cs_closed_many(pairs))]


@dataclass(frozen=True)
class EquivalenceCase:
    """One ``(L, k)`` pair of the corpus with its ratio ``rt / cs``;
    ``sigma_reg``, the signature of the regular block, equals the signature
    of ``L``."""

    L: IntSymMatrix
    k: int
    sigma_reg: int
    ratio: complex


@dataclass(frozen=True)
class PhaseTable:
    """Signature-class phase table with build provenance.

    ``mapping`` sends each realized ``sigma mod 8`` class to the eighth root
    of unity shared by every ratio in the class.
    """

    mapping: Dict[int, UnitPhase]
    corpus_size: int
    max_deviation: float

    def to_json(self) -> dict:
        return {
            "sigma_mod_8": {str(s): rational_to_json(self.mapping[s].angle)
                            for s in sorted(self.mapping)},
            "corpus_size": self.corpus_size,
            "max_dev": self.max_deviation,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PhaseTable":
        mapping = {int(s): UnitPhase(rational_from_json(v))
                   for s, v in obj["sigma_mod_8"].items()}
        return cls(mapping, int(obj["corpus_size"]), float(obj["max_dev"]))

    def same_phases(self, other: "PhaseTable") -> bool:
        return self.mapping == other.mapping


def _snap_to_eighth_root(z: complex) -> UnitPhase:
    angle = math.atan2(z.imag, z.real) / (2.0 * math.pi)
    return UnitPhase(Fraction(round(8 * angle) % 8, 8))


def build_phase_table(cases: Iterable[EquivalenceCase]) -> PhaseTable:
    """Snap the first ratio of each ``sigma(L_reg) mod 8`` class to an
    eighth root of unity, in one pass over ``cases``.

    If any ratio sits further than :data:`PHASE_CLASS_TOL` from its class
    phase the table is refused with :class:`InconsistentPhase`: that means
    the two routes do not differ by a constant on the class and no
    signature-indexed table exists.
    """
    mapping: Dict[int, UnitPhase] = {}
    targets: Dict[int, complex] = {}
    max_dev, total = 0.0, 0
    for total, case in enumerate(cases, 1):
        residue = case.sigma_reg % 8
        if residue not in mapping:
            mapping[residue] = _snap_to_eighth_root(case.ratio)
            targets[residue] = unit_phase_eval(mapping[residue])
        dev = abs(case.ratio - targets[residue])
        if dev > PHASE_CLASS_TOL:
            raise InconsistentPhase(
                f"ratio {case.ratio} deviates by {dev:.3e} from "
                f"{targets[residue]} in class sigma = {residue} (mod 8); no "
                "well-defined phase table")
        max_dev = max(max_dev, dev)
    return PhaseTable(mapping, total, max_dev)


# ---------------------------------------------------------------------------
# Default corpus and frozen fixture

_CLASSIC_ROWS: Tuple[Tuple[Tuple[int, ...], ...], ...] = (
    (),                              # empty presentation
    ((1,),),
    ((-1,),),
    ((0,),),
    ((2,),),
    ((3,),),
    ((5,),),
    ((1, 0), (0, 1)),
    ((-1, 0), (0, -1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((-1, 0, 0), (0, -1, 0), (0, 0, -1)),
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    ((0, 1), (1, 0)),
    ((2, 1), (1, 2)),
)

E8_ROWS: Tuple[Tuple[int, ...], ...] = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

#: Torsion groups larger than this are left out of the default corpus to
#: keep the equivalence sweep inside the desk-scale time budget.
_CORPUS_TORSION_BOUND = 4000

#: The levels the default corpus cycles through.
_CORPUS_LEVELS = (2, 4, 6, 8)


def default_corpus(seed: int = 0, size: int = 300, *, block: int
                   ) -> Iterator[EquivalenceCase]:
    """Deterministic corpus of usable pairs, streamed in blocks of at most
    ``block`` candidates.

    Starts with the catalog classics (covering every signature residue
    mod 8) and E8 at the levels 2, 4, 6, 8 (E8 within the default coloring
    cap), and pads with seeded random symmetric matrices, m <= 4 and
    entries in [-4, 4], until ``size`` pairs are usable: a small torsion
    group and a defined ratio.  A block, one :func:`both_routes` batch,
    takes the classics left or the candidates still needed, whichever is
    more; each candidate adds at most one usable pair, so no block draws
    past the one that completes the corpus.  Equal matrices in a block share
    one instance and the elimination it keeps; nothing is kept across
    blocks.
    """
    E8 = IntSymMatrix.from_rows(E8_ROWS)
    classics = [(IntSymMatrix.from_rows(rows), k) for rows in _CLASSIC_ROWS
                for k in _CORPUS_LEVELS] \
        + [(E8, k) for k in _CORPUS_LEVELS if k ** 8 <= DEFAULT_ENUMERATION_CAP]
    rng = random.Random(seed)
    stream = itertools.chain(classics, (
        (random_symmetric_matrix(rng, rng.randint(1, 4), 4), k)
        for k in itertools.cycle(_CORPUS_LEVELS)))
    taken = usable = 0
    while taken < len(classics) or usable < size:
        count = min(block, max(len(classics) - taken, size - usable))
        taken += count
        first: Dict[IntSymMatrix, IntSymMatrix] = {}
        pairs = [(first.setdefault(L, L), k)
                 for L, k in itertools.islice(stream, count)]
        for (L, k), routes in zip(pairs, both_routes(pairs)):
            if routes.cs.torsion_order <= _CORPUS_TORSION_BOUND \
                    and routes.ratio is not None:
                usable += 1
                yield EquivalenceCase(L, k, signature(L), routes.ratio)


def fixture_path() -> str:
    import importlib.resources as resources
    return str(resources.files("abtqft").joinpath("fixtures/phase_table.json"))


def load_fixture_table() -> PhaseTable:
    with open(fixture_path(), "r", encoding="utf-8") as fh:
        return PhaseTable.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Reciprocity

@dataclass(frozen=True)
class ReciprocityCheck:
    lhs: complex
    rhs: complex
    ok: bool
    tolerance: float


NULL_EXPONENT_MODES = ("paper_half", "full_nullity")


def verify_reciprocity_dt_many(cases: Sequence[Tuple[IntSymMatrix, int]],
                               null_exponent_mode: str = "full_nullity",
                               tolerance_base: float = SUM_TOLERANCE_BASE,
                               ) -> List[ReciprocityCheck]:
    """Check the explicit-signature reciprocity identity for each ``(L, r)``
    case by enumerating both sides.

    Both sides come from one :func:`both_routes` batch.  The left side is
    the coloring sum (capped like every other one, and checked first).  The
    right side is ``r^{rho/2} e^{pi i sigma/4}`` times the torsion Gauss
    sum (the cokernel sum over ``sqrt|T|``), with ``rho = m - nullity`` and
    ``sigma(L) = sigma(L_reg)`` (Sylvester), times a null-direction factor
    ``r^d``: ``d = nullity`` in ``"full_nullity"`` mode (the factorization
    that is actually true: each saturated null direction contributes a full
    factor ``r``) or ``d = nullity / 2`` in ``"paper_half"`` mode (the
    half-kernel normalization, kept so its failure is reproducible).  For
    nondegenerate ``L`` the factor is 1 in both modes.  A check passes
    within ``tolerance_base * sqrt(r^m)`` and is the same bits in any batch.
    """
    if null_exponent_mode not in NULL_EXPONENT_MODES:
        raise ValueError(f"unknown mode {null_exponent_mode!r}")
    checks = []
    for (L, r), (left, _, cs, _) in zip(cases, both_routes(cases)):
        sig_phase = ROOTS8[signature(L) % 8]
        rhs = math.sqrt(float(r) ** (L.m - cs.nullity)) * sig_phase * cs.gauss
        if cs.nullity:  # a complex product with 1.0 could flip the sign of a 0
            power = float(r) ** cs.nullity
            half = null_exponent_mode == "paper_half"
            rhs = (math.sqrt(power) if half else power) * rhs
        tol = sum_tolerance(r ** L.m, tolerance_base)
        checks.append(ReciprocityCheck(left, rhs, abs(left - rhs) <= tol, tol))
    return checks


def verify_reciprocity_dt(L: IntSymMatrix, r: int,
                          null_exponent_mode: str = "full_nullity",
                          ) -> ReciprocityCheck:
    """Check the reciprocity identity for one ``(L, r)``: the batch of one
    of :func:`verify_reciprocity_dt_many`."""
    return verify_reciprocity_dt_many([(L, r)], null_exponent_mode)[0]


def random_nondegenerate(rng: random.Random, max_components: int = 3,
                         entry_bound: int = 4) -> IntSymMatrix:
    """Seeded nondegenerate symmetric matrix (rejection sampling).  A draw
    is accepted on its :func:`abtqft.intlinalg.rank`, so it keeps the
    signature of that elimination."""
    while True:
        m = rng.randint(1, max_components)
        L = random_symmetric_matrix(rng, m, entry_bound)
        if rank(L) == m:
            return L


def random_degenerate(rng: random.Random) -> IntSymMatrix:
    """Seeded degenerate matrix ``U^T (L_reg + 0) U`` with unimodular ``U``:
    ``L_reg`` of size at most 2 with entries in [-3, 3], nullity 1 or 2.

    ``U = E_{2m} ... E_1`` is a product of ``2m`` drawn transvections
    (:func:`abtqft.surgery.random_transvection`), ``E = I + s e_i e_j^T``
    for a draw ``(i, j, s)``; ``U`` is never formed.  The congruences by
    ``E_{2m}``, ..., ``E_1``, in reverse draw order, act on ``L_reg + 0``
    as handle slides of component ``j`` over component ``i``
    (:func:`abtqft.surgery.slide_rows`), ``O(m)`` work each."""
    reg = random_nondegenerate(rng, 2, 3)
    nullity = rng.randint(1, 2)
    m = reg.m + nullity
    rows = reg.direct_sum(IntSymMatrix.diagonal([0] * nullity)).rows()
    draws = [random_transvection(rng, m) for _ in range(2 * m)]
    for i, j, s in reversed(draws):
        slide_rows(rows, j, i, s)
    return IntSymMatrix.from_rows(rows)
