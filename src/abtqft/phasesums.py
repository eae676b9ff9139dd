"""The one exponential-sum kernel: quadratic phase sums over finite groups.

Every exponential sum of the library (coloring sums, and the torsion Gauss
sums on non-cyclic groups that also give the reciprocity right side; those
on cyclic groups have the closed form of
:func:`abtqft.quadmod.cyclic_gauss_sum`) goes through
:func:`quadratic_phase_sums`, which evaluates a batch of forms on one
group; a single form is a batch of one.  It reads every phase from a table
equal to :func:`abtqft.numeric.unit_phase_eval`, and sums over a trailing
block of coordinates for all leading points at once by one inverse DFT
(split-Fourier).  A batch runs in stacked numpy passes: one integer product
gives the exponents of a pass, its forms are folded and transformed per
period of their trailing characters, and one stacked matmul ends it; a
form's value is the same bits in any batch.

This is the library's only module that imports numpy at load time.  Its
callers (:func:`abtqft.surgery.coloring_sums`,
:func:`abtqft.quadmod.gauss_sums` and :func:`abtqft.extended.modular_rep`)
import it inside the function, after their level and cap checks, so a
command that runs no sum of this kernel, or is refused before one, never
loads numpy.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np


@lru_cache(maxsize=64)
def _root_table(n: int) -> np.ndarray:
    """``exp(2 pi i r / n)`` for ``r`` in ``range(n)``, equal bit for bit to
    :func:`abtqft.numeric.unit_phase_eval` of ``r / n`` (same quarter-turn
    split, same float operations, vectorised).  A table holds 16 bytes per entry, so
    :func:`quadratic_phase_sums` caches only tables of at most ``_BLOCK``
    entries and builds larger ones per call through ``__wrapped__``; it is
    filled ``_BLOCK`` entries at a time, so its temporaries stay that small
    (each entry is computed on its own, so the bits do not depend on the
    blocks)."""
    table = np.empty(n, dtype=complex)
    for start in range(0, n, _BLOCK):
        r = np.arange(start, min(n, start + _BLOCK), dtype=np.int64)
        quarter = (4 * r) // n
        theta = 2.0 * math.pi * ((4 * r - quarter * n) / (4 * n))
        c, s = np.cos(theta), np.sin(theta)
        block = table[start:start + _BLOCK]
        block.real = np.choose(quarter, (c, -s, -c, s))
        block.imag = np.choose(quarter, (s, c, -s, -c))
    table.flags.writeable = False  # shared by every caller through the cache
    return table


#: Largest root table :func:`quadratic_phase_sums` keeps in the cache (a
#: table holds 16 bytes per entry, so larger ones are built per call), and
#: the most form-points (forms times trailing points) one stacked pass of
#: a batch holds.
_BLOCK = 1 << 16

#: Groups of at most this many points are summed unsplit: below it the
#: fixed cost of a DFT outweighs what the split saves.
_UNSPLIT_MAX = 1 << 8


@lru_cache(maxsize=64)
def _grid(moduli: Tuple[int, ...]) -> np.ndarray:
    """All points of ``prod Z/n_i`` as rows, last coordinate fastest.  A
    grid holds 8 bytes per coordinate, so :func:`quadratic_phase_sums`
    caches only grids of at most ``_BLOCK`` coordinates and builds larger
    ones per call through ``__wrapped__``."""
    count = math.prod(moduli)
    points = np.empty((count, len(moduli)), dtype=np.int64)
    rem = np.arange(count, dtype=np.int64)
    for pos in range(len(moduli) - 1, -1, -1):
        rem, points[:, pos] = np.divmod(rem, moduli[pos])
    points.flags.writeable = False  # shared by every caller through the cache
    return points


def _points(moduli: Tuple[int, ...]) -> np.ndarray:
    """:func:`_grid`, from the cache when it is small enough to keep."""
    if math.prod(moduli) * len(moduli) <= _BLOCK:
        return _grid(moduli)
    return _grid.__wrapped__(moduli)


def _split_point(moduli: Sequence[int]) -> int:
    """Number of leading coordinates :func:`quadratic_phase_sums` splits off:
    none for a group of at most ``_UNSPLIT_MAX`` points, else the most that
    keep the leading block no larger than the square root of the group."""
    total = math.prod(moduli)
    s, lead = 0, 1
    if total > _UNSPLIT_MAX:
        while lead * moduli[s] * lead * moduli[s] <= total:
            lead *= moduli[s]
            s += 1
    return s


def _values(points: np.ndarray, g: np.ndarray, b: np.ndarray,
            c: Union[np.ndarray, int], n: int) -> np.ndarray:
    """``x^T G x + b.x + c mod n`` for every row ``x`` of ``points``: one
    row per form of the stacked ``g`` and ``b`` (one row vector per form),
    with ``c`` a column of constants or one constant for every form."""
    return (((points @ g + b) % n * points).sum(axis=-1) + c) % n


def _monomials(points: np.ndarray, n: int) -> np.ndarray:
    """Column ``(x_i x_j mod n for all i, j; x_i; 1)`` of each point ``x``
    (row of ``points``): a form's exponent at every point is its row of
    :func:`_coefficients` times these columns, mod ``n``."""
    x = np.ascontiguousarray(points.T)
    width, count = x.shape
    return np.concatenate(((x[:, None] * x).reshape(width * width, count) % n,
                           x, np.ones((1, count), dtype=np.int64)))


def _coefficients(g: np.ndarray, b: np.ndarray, c: np.ndarray,
                  block: slice) -> np.ndarray:
    """Row ``(G_ij for all i, j; b_i; c)`` of each form, for the
    coordinates in ``block``: the factor of :func:`_monomials`."""
    return np.concatenate((g[:, block, block].reshape(len(g), -1),
                           b[:, block], c[:, None]), axis=1)


def _int64_mod(values: List[int], n: int) -> np.ndarray:
    """A list of integers as int64, reduced mod ``n``; when an entry is
    beyond int64, every entry is reduced as a Python integer first."""
    try:
        return np.array(values, dtype=np.int64) % n
    except OverflowError:
        return np.array([int(x) % n for x in values], dtype=np.int64)


def quadratic_phase_sums(grams: Sequence[Sequence[Sequence[int]]],
                         moduli: Sequence[int], modulus: int,
                         linears: Optional[Sequence[Optional[Sequence[int]]]]
                         = None,
                         constants: Optional[Sequence[int]] = None,
                         ) -> List[complex]:
    """``sum over x in prod Z/n_i of exp(2 pi i (x^T G x + b.x + c) / N)``
    for each form ``(G, b, c)`` of a batch on one group.

    ``x`` runs over the representatives ``0 <= x_i < n_i`` of the
    ``moduli``; ``N`` is the ``modulus``.  Form ``j`` is ``grams[j]``,
    ``linears[j]`` (``None`` for zero) and ``constants[j]``; both lists
    default to zero forms.  ``G``, ``b`` and ``c`` are reduced mod ``N``
    before any product (as Python integers when an entry is beyond int64).
    The exponents of a batch of several forms are one integer product of
    each form's coefficients ``(G_ij, b_i, c)`` by the point monomials
    ``(x_i x_j mod N, x_i, 1)``: each of its ``m^2 + m + 1`` terms is below
    ``N max(n_i, N)``, so the exponents stay below ``(m^2 + m + 1) N
    max(n_i, N)``.  A single form is evaluated directly, each product
    reduced mod ``N`` before the next, below ``(m + 2) max(n_i, N)^2``.
    Under the caps (``N <= 2 * 10**7`` for coloring sums, ``2 * 10**6``
    for torsion sums) both are far inside int64.

    Split-Fourier evaluation: write ``x = (x1, x2)`` with ``x1`` the first
    ``s`` coordinates (:func:`_split_point`).  The cross term of the form is
    ``y.x2`` with ``y = (G12 + G21^T)^T x1``, so the sum is

        sum_x1 w^{Q(x1) + b1.x1 + c} * F(y),
        F(y) = sum_x2 f(x2) w^{y.x2},   f(x2) = w^{Q(x2) + b2.x2},

    ``w = exp(2 pi i / N)``.  On trailing axis ``j`` the character
    ``w^{y_j x_j}`` has period ``P_j = N / d_j``, ``d_j`` the gcd of ``N``
    and the cross coefficients of ``j``; folding ``f`` onto ``P_j`` (after
    zero-padding to a multiple of ``P_j``, which a form well defined on the
    group never needs) turns ``F`` into one n-dimensional inverse DFT, read
    at ``y_j / d_j``.  With ``s = 0`` every period is 1 and the sum is
    ``f.sum()``.  This is exact algebra: every phase comes from the exact
    root table, and only the DFT and the sums round.  For ``T`` terms the
    worst-case float error is about ``eps * T * log2(T)`` (``eps`` the
    double-precision unit), below the ``1e-9 * sqrt(T)`` budget for every
    ``T`` up to about ``10**10``.

    Batching: a batch runs in passes of at most ``_BLOCK`` form-points
    (forms times trailing points).  A pass forms the exponents of all its
    forms (one product per block of coordinates against monomial tables
    built once per call; a call of one form, for which the tables would
    cost more than they save, evaluates it directly) and looks them up in
    the root table.  Its forms are then grouped by their tuple of periods:
    the fold, one ``ifftn`` over the non-batch axes and the read at the
    leading shifts run once per group.  The pass ends in one stacked matmul
    of ``(1, lead)`` by ``(lead, 1)`` blocks, which numpy runs as one BLAS
    dot per block, the dot a single form's 1-D contraction makes.  The
    exponents are exact integers, the fold and the DFT see each form's own
    C-ordered values, and each form ends in its own dot, so a form's value
    does not depend on the batch it came in: a batch of one is the
    single-form evaluation.
    """
    n = modulus
    m = len(moduli)
    count = len(grams)
    if not count:
        return []
    chain = itertools.chain.from_iterable
    zero = [0] * m
    g = _int64_mod(list(chain(chain(grams))), n).reshape(count, m, m)
    b = _int64_mod(list(chain(linear or zero
                              for linear in linears or [None] * count)),
                   n).reshape(count, m)
    c = _int64_mod(list(constants or [0] * count), n)
    s = _split_point(moduli)
    table = _root_table(n) if n <= _BLOCK else _root_table.__wrapped__(n)
    sizes = tuple(moduli[s:])
    trailing, lead = _points(sizes), _points(tuple(moduli[:s]))
    shared = count > 1
    if shared:  # one table of monomials per block serves every pass
        trail_coef = _coefficients(g, b, np.zeros_like(c), slice(s, m))
        lead_coef = _coefficients(g, b, c, slice(0, s))
        trail_mono, lead_mono = _monomials(trailing, n), _monomials(lead, n)
    # Trailing axis j folds onto the period ``P_j`` of its character, and a
    # leading point reads it at ``y_j / d_j``: the cross term with its
    # coefficients divided by ``d_j``, mod ``P_j``.
    if s:
        cross = (g[:, :s, s:] + g[:, s:, :s].transpose(0, 2, 1)) % n
        steps = np.gcd.reduce(cross, axis=1, initial=n, keepdims=True)
        cross //= steps
        periods = [tuple(p) for p in (n // steps).reshape(count, -1).tolist()]
    else:  # unsplit: every period is 1, the one leading point is empty
        periods = [(1,) * m] * count
    chunk = max(1, _BLOCK // len(trailing))
    sums: List[complex] = []
    for start in range(0, count, chunk):
        part = slice(start, start + chunk)
        # The exponents of the pass, as C-ordered (forms, points) arrays:
        # the fold below sums them in the order that fixed every value's
        # bits.  A call of one form evaluates it directly.
        if shared:
            values = table[trail_coef[part] @ trail_mono % n]
            heads = table[lead_coef[part] @ lead_mono % n]
        else:
            values = table[_values(trailing, g[:, s:, s:], b[:, None, s:],
                                   0, n)]
            heads = table[_values(lead, g[:, :s, :s], b[:, None, :s],
                                  c[:, None], n) if s else c[:, None]]
        reads = np.empty_like(heads)
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for j, key in enumerate(periods[part]):
            groups.setdefault(key, []).append(j)
        for key, rows in groups.items():
            # A run of consecutive forms is taken as a view, not a copy.
            pick = slice(rows[0], rows[-1] + 1) \
                if rows[-1] - rows[0] == len(rows) - 1 else rows
            folds = [-(-size // p) for size, p in zip(sizes, key)]
            shape = tuple(r * p for r, p in zip(folds, key))
            f = values[pick].reshape((len(rows),) + sizes)
            if shape != sizes:  # zero-pad each axis to whole periods
                padded = np.zeros((len(rows),) + shape, dtype=complex)
                padded[(slice(None),) + tuple(map(slice, sizes))] = f
                f = padded
            f = f.reshape([len(rows)] + [x for pair in zip(folds, key)
                                         for x in pair]).sum(
                axis=tuple(range(1, 2 * len(sizes), 2)))
            if math.prod(key) > 1:  # a one-point DFT is the identity
                # ``ifftn`` over the non-batch axes, run axis by axis from
                # the last as ``ifftn`` runs it, without its set-up cost.
                for axis in range(len(sizes), 0, -1):
                    f = np.fft.ifft(f, axis=axis, norm="forward")
            f = f.reshape(len(rows), -1)
            if s:  # each form's DFT at its leading points' shifts, taken
                # along axis 1 by plain indexing
                strides = np.array([math.prod(key[j + 1:])
                                    for j in range(len(sizes))], np.int64)
                shifts = lead @ cross[part][pick] % np.array(key) @ strides
                f = f[np.arange(len(rows))[:, None], shifts]
            reads[pick] = f
        # Each form ends in its own dot product: the stacked matmul of
        # (1, lead) by (lead, 1) blocks makes one BLAS dot per block.
        sums += (heads[:, None, :] @ reads[:, :, None]).ravel().tolist()
    return sums
