"""Surgery presentations and the raw level-``k`` surgery invariant.

A closed oriented 3-manifold is presented by the symmetric linking matrix
``L`` of a framed surgery link (framings on the diagonal).  An auxiliary
colored link may be carried along: a :class:`SurgeryPresentation` is one
symmetric linking matrix over [surgery | colored insertion] components,
whose blocks are ``L``, the mixed block ``B`` between surgery and colored
components and the self-linking block ``C`` of the colored components, with
the colors ``h`` in ``Z_k`` of the insertions.  Its JSON form keeps the
blocks apart (``{"L", "B", "C", "h"}``), and
:meth:`SurgeryPresentation.from_json`, the path of input from outside the
program, checks that they fit.

For a coloring ``g`` of the surgery components the link evaluation is the
exact unit phase

    exp( (pi i / k) * ( <g, L g> + 2 <g, B h> + <h, C h> ) ).

The raw closed invariant averages over ``g`` with the stabilization-move
normalization

    Z_raw = k^{-1/2} * A+^{(-m-sigma)/2} * A-^{(-m+sigma)/2}
            * sum_{g in Z_k^m} (link evaluation),

where ``A+-(k) = sum_s exp(+- pi i s^2 / k) = sqrt(k) exp(+- pi i / 4)``
for even ``k`` and ``sigma`` is the signature of ``L``.  Half-integer powers
of ``A+-`` never go through complex square roots: the prefactor is expanded
exactly as magnitude ``k^{-(m+1)/2}`` and phase ``exp(-pi i sigma / 4)``,
which stays well defined even when ``m`` and ``sigma`` have opposite parity
(degenerate ``L``).  The global ``k^{-1/2}`` is applied uniformly, with and
without colored insertions, so the two cases agree when there are no
insertions.

The enumeration over ``(Z_k)^m`` is capped (default ``10**7`` colorings,
overridable through the ``ABTQFT_MAX_ENUM`` environment variable).  The
coloring sum is evaluated by the library's one exponential-sum kernel,
:func:`abtqft.phasesums.quadratic_phase_sums`, with moduli ``k`` and modulus
``2k``: it sums over the trailing colors for every leading coloring at once
by one inverse DFT of exact root-of-unity values (split-Fourier), so the
floating error stays far below the ``1e-9 * sqrt(k^m)`` budget.  This is
exact algebra, not reciprocity, so the coloring sum stays an independent
check of the torsion route.  ``A+-`` enters only through its closed form;
the tests check it against the one-component coloring sums of ``[[+-1]]``.
Per-term exact-phase loops, the link evaluation of one coloring among
them, are kept in the tests as oracles.

Every coloring sum goes through one function, :func:`coloring_sums`: it
checks the levels and the cap, and sends the sums of each ``(m, k)`` class
to the kernel as one batch, so a value is the same bits in any batch.
:func:`rt_raw_closed_many` is the prefactor times those sums
(:func:`raw_closed_from_sum`), :func:`rt_raw_closed` its batch of one, and
:func:`abtqft.compare.both_routes`, where the two routes meet, one batch of
:func:`coloring_sums`.  ``verify kirby``, the one Kirby-invariance check,
draws its cases through :func:`random_kirby_move` (no draw depends on a
value) and evaluates them in the blocks of the CLI's one block driver.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EnumerationTooLarge, IndexOutOfRange
from .intlinalg import IntSymMatrix, signature
from .numeric import PolarValue, UnitPhase, polar_to_approx
from .quadmod import check_level

DEFAULT_ENUMERATION_CAP = 10 ** 7
_ENUMERATION_ENV = "ABTQFT_MAX_ENUM"


def max_enumeration() -> int:
    """Active coloring-enumeration cap (env override wins); an override
    that is not an integer raises :class:`EnumerationTooLarge`."""
    raw = os.environ.get(_ENUMERATION_ENV)
    if not raw:
        return DEFAULT_ENUMERATION_CAP
    try:
        return int(raw)
    except ValueError:
        raise EnumerationTooLarge(
            f"{_ENUMERATION_ENV} must be an integer cap, got {raw!r}") from None


@dataclass(frozen=True)
class SurgeryPresentation:
    """A framed link with colored insertions: one symmetric ``linking``
    matrix over [surgery | colored insertion] components, the last
    ``len(insertion_colors)`` of them the insertions.

    ``surgery`` is the block of the surgery components; without insertions
    it is ``linking`` itself, so it keeps the one elimination of ``L``.
    ``insertion_colors`` live in ``Z_k`` but are stored as plain integers;
    they are reduced mod ``k`` at evaluation time, so shifting a color by a
    multiple of ``k`` cannot change any invariant.
    """

    linking: IntSymMatrix
    insertion_colors: Tuple[int, ...] = ()
    surgery: IntSymMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        colors = tuple(map(int, self.insertion_colors))
        object.__setattr__(self, "insertion_colors", colors)
        m = self.linking.m - len(colors)
        if m < 0:
            raise ValueError("linking matrix needs a row per insertion component")
        surgery = self.linking
        if colors:
            surgery = IntSymMatrix(tuple(row[:m] for row in surgery.entries[:m]))
        object.__setattr__(self, "surgery", surgery)

    @property
    def m(self) -> int:
        return self.surgery.m

    @property
    def r(self) -> int:
        return len(self.insertion_colors)

    def to_json(self) -> dict:
        """The blocks ``L``, ``B``, ``C`` of ``linking`` and the colors ``h``."""
        m, rows = self.m, self.linking.entries
        return {
            "L": self.surgery.to_json(),
            "B": [list(row[m:]) for row in rows[:m]],
            "C": [list(row[m:]) for row in rows[m:]],
            "h": list(self.insertion_colors),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SurgeryPresentation":
        """Presentation from the blocks of :meth:`to_json`; ``L``, ``B`` and
        ``C`` must be lists of rows and ``h`` a list, their entries JSON
        integers (``int()`` would make ``1.5`` or ``"3"`` another matrix),
        and the blocks must fit.  A missing or null ``B`` is the zero-width
        mixed block."""
        if not isinstance(obj, dict):
            raise ValueError("a presentation must be a JSON object")
        for key in ("L", "B", "C", "h"):
            value = obj.get(key, [])
            if key == "B" and value is None:
                continue
            if key == "h":
                if not isinstance(value, list):
                    raise ValueError("h must be a list of colors")
                entries = value
            elif isinstance(value, list) \
                    and all(isinstance(row, list) for row in value):
                entries = [x for row in value for x in row]
            else:
                raise ValueError(f"{key} must be a list of rows")
            for x in entries:
                if type(x) is not int:
                    raise ValueError(f"entry {x!r} of {key} is not an integer")
        L = IntSymMatrix.from_json(obj.get("L", []))
        C = IntSymMatrix.from_json(obj.get("C", []))
        B = obj.get("B")
        if B is None:
            B = [[]] * L.m  # a zero-width mixed block
        h = obj.get("h", [])
        if len(h) != C.m:
            raise ValueError("one color per insertion component required")
        if not C.m:
            if any(B):  # a nonempty row
                raise ValueError("mixed block must have zero width without insertions")
            return cls(L)
        if len(B) != L.m:
            raise ValueError("mixed block needs one row per surgery component")
        if any(len(row) != C.m for row in B):
            raise ValueError("mixed block width must match insertion count")
        rows = [row + tuple(mixed) for row, mixed in zip(L.entries, B)]
        rows += [tuple(mixed[i] for mixed in B) + row
                 for i, row in enumerate(C.entries)]
        return cls(IntSymMatrix(rows), h)


def _check_enumeration(k: int, m: int) -> None:
    """Refuse ``k^max(m, 1)`` above the cap (:func:`max_enumeration`); at
    ``m = 0`` the kernel still builds a root table of ``2k`` entries."""
    cap = max_enumeration()
    if k ** max(m, 1) > cap:
        if not m:
            raise EnumerationTooLarge(
                f"level {k} exceeds the enumeration cap {cap}")
        raise EnumerationTooLarge(
            f"{k}^{m} colorings exceed the enumeration cap {cap}")


def normalization_prefactor(m: int, sigma: int, k: int) -> PolarValue:
    """Exact value of ``k^{-1/2} A+^{(-m-sigma)/2} A-^{(-m+sigma)/2}``.

    With ``A+- = sqrt(k) e^{+- pi i/4}`` the product collapses to magnitude
    ``k^{-(m+1)/2}`` and phase ``e^{-pi i sigma/4}``, valid for every parity
    combination of ``m`` and ``sigma``.
    """
    return PolarValue(Fraction(1, k ** (m + 1)), UnitPhase(Fraction(-sigma, 8)))


@lru_cache(maxsize=256)
def _approx_prefactor(m: int, sigma_mod_8: int, k: int) -> complex:
    """:func:`normalization_prefactor` in double precision; its phase
    depends on ``sigma`` only mod 8, so the cache keys on that."""
    return polar_to_approx(normalization_prefactor(m, sigma_mod_8, k))


def _insertion_terms(p: SurgeryPresentation) -> Tuple[Optional[List[int]], int]:
    """Linear term ``2 B h`` and constant ``h^T C h`` of the coloring sum,
    ``B`` and ``C`` the insertion columns of ``p.linking``; without
    insertions the linear term is ``None``, which the kernel reads as
    zero."""
    if not p.r:
        return None, 0
    m, h, rows = p.m, p.insertion_colors, p.linking.entries
    linear = [2 * sum(b * x for b, x in zip(row[m:], h)) for row in rows[:m]]
    constant = sum(x * sum(c * y for c, y in zip(row[m:], h))
                   for x, row in zip(h, rows[m:]))
    return linear, constant


def coloring_sums(cases: Sequence[Tuple[SurgeryPresentation, int]]
                  ) -> List[complex]:
    """``sum_g <link(g)>`` over ``g in (Z_k)^m`` for each ``(presentation,
    k)`` pair: the one path of every coloring sum in the library.

    Levels and the enumeration cap (:func:`max_enumeration`) are checked in
    the order of ``cases`` (the cap once per ``(m, k)`` class, at its first
    pair) before any sum runs, so the first refused pair is the one a loop
    over batches of one refuses, and a refusal never loads numpy.  Each
    class then goes to :func:`abtqft.phasesums.quadratic_phase_sums` as one
    batch, with moduli ``k`` and modulus ``2k``; a value is the same bits
    in any batch.
    """
    classes: Dict[Tuple[int, int], List[int]] = {}
    for i, (p, k) in enumerate(cases):
        check_level(k)
        if (p.m, k) not in classes:
            _check_enumeration(k, p.m)
            classes[p.m, k] = []
        classes[p.m, k].append(i)
    from . import phasesums
    sums = [0j] * len(cases)
    for (m, k), members in classes.items():
        terms = [_insertion_terms(cases[i][0]) for i in members]
        values = phasesums.quadratic_phase_sums(
            [cases[i][0].surgery.entries for i in members], [k] * m, 2 * k,
            [linear for linear, _ in terms], [constant for _, constant in terms])
        for i, total in zip(members, values):
            sums[i] = total
    return sums


def raw_closed_from_sum(L: IntSymMatrix, k: int, total: complex) -> complex:
    """``k^{-1/2} A+^{(-m-sigma)/2} A-^{(-m+sigma)/2}`` times the coloring
    sum ``total`` of surgery matrix ``L``, with ``sigma = signature(L)``."""
    return _approx_prefactor(L.m, signature(L) % 8, k) * total


def rt_raw_closed_many(cases: Sequence[Tuple[SurgeryPresentation, int]]
                       ) -> List[complex]:
    """Raw closed surgery invariant of each ``(presentation, k)`` pair:
    :func:`raw_closed_from_sum` of its :func:`coloring_sums` value."""
    return [raw_closed_from_sum(p.surgery, k, total)
            for (p, k), total in zip(cases, coloring_sums(cases))]


def rt_raw_closed(p: SurgeryPresentation, k: int) -> complex:
    """Raw closed surgery invariant at even level ``k``: the batch of one
    of :func:`rt_raw_closed_many`."""
    return rt_raw_closed_many([(p, k)])[0]


# ---------------------------------------------------------------------------
# Kirby moves

@dataclass(frozen=True)
class KirbyMove:
    """``K1`` (stabilize by a +-1 framed unknot) or ``K2`` (handle slide).

    ``K1`` inserts the unknot as the last surgery component.  For ``K2``
    the slide of surgery component ``source`` over surgery component
    ``target`` with sign ``s`` acts on the whole linking matrix by the
    unimodular congruence ``A = I + s E[target, source]``: ``M -> A^T M A``,
    that is, row ``source`` gains ``s`` times row ``target`` and then column
    ``source`` gains ``s`` times column ``target``; on the blocks, ``L -> A^T
    L A``, ``B -> A^T B`` and ``C`` unchanged.  Indices are 0-based.
    """

    kind: str
    sign: int = 1
    source: int = 0
    target: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("K1", "K2"):
            raise ValueError("move kind must be 'K1' or 'K2'")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    def to_json(self) -> dict:
        if self.kind == "K1":
            return {"kind": "K1", "sign": self.sign}
        return {"kind": "K2", "sign": self.sign,
                "source": self.source, "target": self.target}


def apply_kirby(p: SurgeryPresentation, move: KirbyMove) -> SurgeryPresentation:
    """Apply a Kirby move, returning a new presentation of the same manifold."""
    m = p.m
    if move.kind == "K1":
        rows = [row[:m] + (0,) + row[m:] for row in p.linking.entries]
        rows.insert(m, (0,) * m + (move.sign,) + (0,) * p.r)
        return SurgeryPresentation(IntSymMatrix(rows), p.insertion_colors)
    i, j = move.source, move.target
    if not (0 <= i < m and 0 <= j < m) or i == j:
        raise IndexOutOfRange(f"invalid handle slide ({i} over {j}) for m={m}")
    s = move.sign
    rows = p.linking.rows()
    rows[i] = [x + s * y for x, y in zip(rows[i], rows[j])]
    for row in rows:
        row[i] += s * row[j]
    return SurgeryPresentation(IntSymMatrix(rows), p.insertion_colors)


def random_kirby_move(rng: random.Random, m: int) -> KirbyMove:
    """Seeded move on ``m`` components: a handle slide with probability 0.7
    when ``m >= 2``, else a stabilization.  Fixed-seed Kirby reports depend
    on the draw order: ``random``, then a slide is a
    :func:`random_transvection`."""
    if m >= 2 and rng.random() < 0.7:
        i, j, s = random_transvection(rng, m)
        return KirbyMove("K2", s, i, j)
    return KirbyMove("K1", rng.choice((1, -1)))


# ---------------------------------------------------------------------------
# Seeded random presentations (shared by verification suites and tests).
# Protocol: a walk on random.Random(seed); entries uniform in
# [-entry_bound, entry_bound], sizes uniform in [1, max_components].

def random_symmetric_matrix(rng: random.Random, m: int,
                            entry_bound: int = 4) -> IntSymMatrix:
    """Upper triangle drawn row by row, each entry uniform in
    ``[-entry_bound, entry_bound]``: ``randrange(2 b + 1) - b`` is the draw
    ``randint(-b, b)`` makes, without its argument handling."""
    rows = [[0] * m for _ in range(m)]
    draw, span = rng.randrange, 2 * entry_bound + 1
    for i in range(m):
        row = rows[i]
        for j in range(i, m):
            row[j] = rows[j][i] = draw(span) - entry_bound
    return IntSymMatrix.from_rows(rows)


def random_presentation(rng: random.Random, max_components: int = 4,
                        entry_bound: int = 4) -> SurgeryPresentation:
    m = rng.randint(1, max_components)
    return SurgeryPresentation(random_symmetric_matrix(rng, m, entry_bound))


def random_transvection(rng: random.Random, m: int) -> Tuple[int, int, int]:
    """Seeded transvection ``(i, j, s)``, ``i != j`` in ``range(m)`` (``m >=
    2``) and ``s = +-1``: row ``i`` gains ``s`` times row ``j``.  The one
    draw protocol (``randrange(m)``, ``randrange(m - 1)`` shifted past
    ``i``, then ``choice((1, -1))``) of every handle slide and unimodular
    matrix drawn, on which fixed-seed reports depend."""
    i = rng.randrange(m)
    j = rng.randrange(m - 1)
    if j >= i:
        j += 1
    return i, j, rng.choice((1, -1))


def random_unimodular(rng: random.Random, m: int, steps: int = 6) -> List[List[int]]:
    """Product of random elementary transvections (determinant +1)."""
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    if m < 2:
        return u
    for _ in range(steps):
        i, j, s = random_transvection(rng, m)
        u[i] = [x + s * y for x, y in zip(u[i], u[j])]
    return u
