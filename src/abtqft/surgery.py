"""Surgery presentations and the raw level-``k`` surgery invariant.

A closed oriented 3-manifold is presented by the symmetric linking matrix
``L`` of a framed surgery link (framings on the diagonal).  An auxiliary
colored link may be carried along: ``B`` is the mixed linking block between
surgery and colored components, ``C`` the self-linking block of the colored
components, and ``h`` their colors in ``Z_k``.

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
coloring sum and ``A+-`` are evaluated by the library's one exponential-sum
kernel, :func:`abtqft.numeric.quadratic_phase_sum`, with moduli ``k`` and
modulus ``2k``: it sums over the trailing colors for every leading coloring
at once by one inverse DFT of exact root-of-unity values (split-Fourier),
so the floating error stays far below the ``1e-9 * sqrt(k^m)`` budget.
This is exact algebra, not reciprocity, so the coloring sum stays an
independent check of the torsion route.  Per-term exact-phase loops are
kept in the tests as oracles.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import EnumerationTooLarge, IndexOutOfRange
from .intlinalg import IntSymMatrix, mat_mul, mat_transpose, signature
from .numeric import PolarValue, UnitPhase, polar_to_approx, quadratic_phase_sum

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


def _check_level(k: int) -> None:
    if k < 2 or k % 2 != 0:
        raise ValueError("level k must be an even integer >= 2")


@dataclass(frozen=True)
class SurgeryPresentation:
    """Surgery matrix plus optional colored-insertion blocks.

    ``insertion_colors`` live in ``Z_k`` but are stored as plain integers;
    they are reduced mod ``k`` at evaluation time, so shifting a color by a
    multiple of ``k`` cannot change any invariant.
    """

    surgery: IntSymMatrix
    insertion_mixed: Tuple[Tuple[int, ...], ...] = ()
    insertion_self: IntSymMatrix = IntSymMatrix.empty()
    insertion_colors: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        mixed = tuple(tuple(int(x) for x in row) for row in self.insertion_mixed)
        object.__setattr__(self, "insertion_mixed", mixed)
        object.__setattr__(self, "insertion_colors",
                           tuple(int(x) for x in self.insertion_colors))
        r = self.insertion_self.m
        if len(self.insertion_colors) != r:
            raise ValueError("one color per insertion component required")
        if r == 0:
            if any(len(row) != 0 for row in mixed):
                raise ValueError("mixed block must have zero width without insertions")
        else:
            if len(mixed) != self.surgery.m:
                raise ValueError("mixed block needs one row per surgery component")
            if any(len(row) != r for row in mixed):
                raise ValueError("mixed block width must match insertion count")

    @classmethod
    def closed(cls, L: IntSymMatrix) -> "SurgeryPresentation":
        return cls(L, tuple(() for _ in range(L.m)), IntSymMatrix.empty(), ())

    @classmethod
    def from_linking_rows(cls, rows: Iterable[Iterable[int]]) -> "SurgeryPresentation":
        return cls.closed(IntSymMatrix.from_rows(rows))

    @property
    def m(self) -> int:
        return self.surgery.m

    @property
    def r(self) -> int:
        return self.insertion_self.m

    def reversed_orientation(self) -> "SurgeryPresentation":
        """Mirror presentation: every linking number and framing flips sign."""
        return SurgeryPresentation(
            self.surgery.negated(),
            tuple(tuple(-x for x in row) for row in self.insertion_mixed),
            self.insertion_self.negated(),
            self.insertion_colors,
        )

    def direct_sum(self, other: "SurgeryPresentation") -> "SurgeryPresentation":
        """Split presentation of the connected sum (block-diagonal join)."""
        m1, m2 = self.m, other.m
        r1, r2 = self.r, other.r
        mixed = tuple(
            tuple(self.insertion_mixed[i]) + (0,) * r2 for i in range(m1)
        ) + tuple(
            (0,) * r1 + tuple(other.insertion_mixed[i]) for i in range(m2)
        )
        return SurgeryPresentation(
            self.surgery.direct_sum(other.surgery),
            mixed,
            self.insertion_self.direct_sum(other.insertion_self),
            self.insertion_colors + other.insertion_colors,
        )

    def to_json(self) -> dict:
        return {
            "L": self.surgery.to_json(),
            "B": [list(row) for row in self.insertion_mixed],
            "C": self.insertion_self.to_json(),
            "h": list(self.insertion_colors),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SurgeryPresentation":
        """Presentation from JSON; entries of ``L``, ``B``, ``C`` and ``h`` must
        be JSON integers (``int()`` would make ``1.5`` or ``"3"`` another matrix)."""
        if not isinstance(obj, dict):
            raise ValueError("a presentation must be a JSON object")
        for key in ("L", "B", "C", "h"):
            value = obj.get(key) or []
            for x in value if key == "h" else [x for row in value for x in row]:
                if type(x) is not int:
                    raise ValueError(f"entry {x!r} of {key} is not an integer")
        L = IntSymMatrix.from_json(obj.get("L", []))
        C = IntSymMatrix.from_json(obj.get("C", []))
        B = obj.get("B")
        if B is None:
            B = [[] for _ in range(L.m)] if C.m else [() for _ in range(L.m)]
        h = tuple(obj.get("h", []))
        return cls(L, tuple(tuple(row) for row in B), C, h)


# ---------------------------------------------------------------------------
# Gauss sums

def a_gauss(k: int, sign: int) -> Tuple[complex, PolarValue]:
    """The stabilization unit ``A+-(k)``: brute-force sum and closed form.

    Returns ``(sum_{s in Z_k} exp(+- pi i s^2 / k),  sqrt(k) e^{+- pi i/4})``;
    the pair agrees within ``1e-9 * sqrt(k)`` for even ``k``.
    """
    _check_level(k)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    brute = quadratic_phase_sum([[sign]], [k], 2 * k)
    closed = PolarValue(Fraction(k), UnitPhase(Fraction(sign, 8)))
    return brute, closed


def rt_link_eval(p: SurgeryPresentation, g: Sequence[int], k: int) -> UnitPhase:
    """Exact link-evaluation phase for one coloring ``g`` of the surgery
    components (insertion colors come from the presentation)."""
    _check_level(k)
    if len(g) != p.m:
        raise ValueError("one color per surgery component required")
    L = p.surgery.entries
    quad = 0
    for i in range(p.m):
        gi = g[i]
        if gi:
            row = L[i]
            quad += gi * sum(row[j] * g[j] for j in range(p.m))
    h = p.insertion_colors
    for i in range(p.m):
        if g[i]:
            quad += 2 * g[i] * sum(p.insertion_mixed[i][j] * h[j] for j in range(p.r))
    C = p.insertion_self.entries
    for i in range(p.r):
        if h[i]:
            quad += h[i] * sum(C[i][j] * h[j] for j in range(p.r))
    return UnitPhase(Fraction(quad, 2 * k))


def quadratic_exponential_sum(rows: Sequence[Sequence[int]], k: int,
                              linear: Optional[Sequence[int]] = None,
                              constant: int = 0,
                              max_terms: Optional[int] = None) -> complex:
    """``sum over n in (Z_k)^m of exp( (pi i / k)(n^T A n + linear.n + const) )``.

    The coloring sum: :func:`abtqft.numeric.quadratic_phase_sum` with moduli
    ``k`` and modulus ``2k``, behind the enumeration cap.
    """
    m = len(rows)
    cap = max_terms if max_terms is not None else max_enumeration()
    if k ** m > cap:
        raise EnumerationTooLarge(
            f"{k}^{m} colorings exceed the enumeration cap {cap}")
    return quadratic_phase_sum(rows, [k] * m, 2 * k, linear, constant)


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


def rt_raw_closed(p: SurgeryPresentation, k: int,
                  max_terms: Optional[int] = None) -> complex:
    """Raw closed surgery invariant at even level ``k``.

    Computes ``k^{-1/2} A+^{(-m-sigma)/2} A-^{(-m+sigma)/2} * sum_g <link(g)>``
    with ``sigma = signature(L)``.
    """
    _check_level(k)
    lin = [2 * sum(row[j] * p.insertion_colors[j] for j in range(p.r))
           for row in p.insertion_mixed] if p.m else []
    const = 0
    C = p.insertion_self.entries
    for i in range(p.r):
        if p.insertion_colors[i]:
            const += p.insertion_colors[i] * sum(
                C[i][j] * p.insertion_colors[j] for j in range(p.r))
    total = quadratic_exponential_sum(p.surgery.rows(), k, lin, const, max_terms)
    return _approx_prefactor(p.m, signature(p.surgery) % 8, k) * total


# ---------------------------------------------------------------------------
# Kirby moves

@dataclass(frozen=True)
class KirbyMove:
    """``K1`` (stabilize by a +-1 framed unknot) or ``K2`` (handle slide).

    For ``K2`` the slide of component ``source`` over component ``target``
    with sign ``s`` acts by the unimodular congruence ``A = I + s E[target,
    source]``: ``L -> A^T L A`` and ``B -> A^T B``.  Indices are 0-based.
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
    if move.kind == "K1":
        new_L = p.surgery.direct_sum(IntSymMatrix.from_rows([[move.sign]]))
        mixed = p.insertion_mixed + ((0,) * p.r,)
        return SurgeryPresentation(new_L, mixed, p.insertion_self,
                                   p.insertion_colors)
    i, j = move.source, move.target
    m = p.m
    if not (0 <= i < m and 0 <= j < m) or i == j:
        raise IndexOutOfRange(f"invalid handle slide ({i} over {j}) for m={m}")
    a = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
    a[j][i] = move.sign
    at = mat_transpose(a)
    new_L = IntSymMatrix.from_rows(mat_mul(mat_mul(at, p.surgery.rows()), a))
    if p.r:
        new_B = tuple(tuple(row) for row in
                      mat_mul(at, [list(r) for r in p.insertion_mixed]))
    else:
        new_B = tuple(() for _ in range(m))
    return SurgeryPresentation(new_L, new_B, p.insertion_self, p.insertion_colors)


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a random Kirby walk; deterministic for a fixed seed."""

    seed: int
    moves: Tuple[dict, ...]
    max_deviation: float
    skipped: int

    def to_json(self) -> dict:
        return {"seed": self.seed, "moves": list(self.moves),
                "max_dev": self.max_deviation, "skipped": self.skipped}


def random_kirby_move(rng: random.Random, m: int) -> KirbyMove:
    """Seeded move on ``m`` components: a handle slide with probability 0.7
    when ``m >= 2``, else a stabilization.  Fixed-seed Kirby reports depend
    on the draw order (``random``, two ``randrange``, ``choice``)."""
    if m >= 2 and rng.random() < 0.7:
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        return KirbyMove("K2", rng.choice((1, -1)), i, j)
    return KirbyMove("K1", rng.choice((1, -1)))


def kirby_fuzz(p: SurgeryPresentation, k: int, walk_length: int, seed: int,
               max_components: int = 6,
               max_terms: Optional[int] = None) -> FuzzReport:
    """Random walk through Kirby moves, recording invariant drift.

    Stabilizations that would push the enumeration past the cap (or the
    component bound) are skipped and logged rather than applied.
    """
    _check_level(k)
    cap = max_terms if max_terms is not None else max_enumeration()
    rng = random.Random(seed)
    current = p
    value = rt_raw_closed(current, k, cap)
    max_dev = 0.0
    log: List[dict] = []
    skipped = 0
    for _ in range(walk_length):
        m = current.m
        move = random_kirby_move(rng, m)
        if move.kind == "K1" and (m + 1 > max_components or k ** (m + 1) > cap):
            skipped += 1
            log.append({"move": move.to_json(), "skipped": True})
            continue
        current = apply_kirby(current, move)
        new_value = rt_raw_closed(current, k, cap)
        dev = abs(new_value - value)
        max_dev = max(max_dev, dev)
        log.append({"move": move.to_json(), "deviation": dev})
        value = new_value
    return FuzzReport(seed, tuple(log), max_dev, skipped)


# ---------------------------------------------------------------------------
# Seeded random presentations (shared by verification suites and tests).
# Protocol: a walk on random.Random(seed); entries uniform in
# [-entry_bound, entry_bound], sizes uniform in [1, max_components].

def random_symmetric_matrix(rng: random.Random, m: int,
                            entry_bound: int = 4) -> IntSymMatrix:
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = rng.randint(-entry_bound, entry_bound)
    return IntSymMatrix.from_rows(rows)


def random_presentation(rng: random.Random, max_components: int = 4,
                        entry_bound: int = 4) -> SurgeryPresentation:
    m = rng.randint(1, max_components)
    return SurgeryPresentation.closed(random_symmetric_matrix(rng, m, entry_bound))


def random_unimodular(rng: random.Random, m: int, steps: int = 6) -> List[List[int]]:
    """Product of random elementary transvections (determinant +1)."""
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    if m < 2:
        return u
    for _ in range(steps):
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        if j >= i:
            j += 1
        s = rng.choice((1, -1))
        for col in range(m):
            u[i][col] += s * u[j][col]
    return u
