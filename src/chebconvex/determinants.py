"""Collocation matrices, their determinants, and the shared elimination kernel.

The collocation determinant of a system at points (x_1, ..., x_n) is the
determinant of the matrix whose (i, j) entry is basis_i(x_j); the bordered
determinant appends a row of target-function values to it. All sign
decisions are scale-relative: a determinant counts as zero when its
magnitude falls below ``64 * eps * scale`` where ``scale`` is the product
of the pre-elimination row max-norms. Row scales of Vandermonde-type
matrices vary over many orders of magnitude, which makes absolute
tolerances meaningless here.

One kernel computes every determinant: row-pivoted elimination, column by
column. The pivot of step d is the first entry of largest magnitude from
row d down in column d (``_pivot_step``, the one pivot search); carrying a
later column through the step swaps two of its rows and subtracts
multiples of row d (``_column``, the one row update). A column's entries
after d steps thus depend only on the first d columns and on itself, so
:func:`minor_scan` can reuse the steps and reduced columns of the prefix a
tuple shares with the previous one and still compute each minor as it
would alone. In a lexicographic scan a tuple then costs one pivot step
and an O(k) scale product instead of a k x k elimination, so sampled scans
walk their tuples in sorted (trie) order and report what a scan in
sampler order would. Row max-norms are folded with C-level ``max`` over
absolute-value vectors computed once per scan; ``max`` keeps the first of
equal items, so ties and NaNs fold as in a scan of each row in turn.
Callers pass basis columns, one per point, to :func:`minor_scan` as they
are; :func:`v_det`, :func:`d_det` and :func:`det_and_scale` pass theirs
as one tuple. :func:`solve_with_det` carries the right-hand side through
the same steps as one more column. Point tuples are plain float tuples,
checked by :func:`distinct_points` and, against a system, by
:func:`check_points`, whose minimum point separation is fixed.

Contiguous windows have a second route, :func:`window_sweep`. Let D(i, k)
be the determinant of the window of k points ending at point i under the
first k basis functions. Neville elimination of the matrix whose row i
holds the basis values at point i subtracts from each row a multiple of
the row just above it, so its pivot of row i at step s is the ratio
D(i, s+1) / D(i-1, s) of two contiguous minors (Gasca and Pena, "Total
positivity and Neville elimination", Linear Algebra Appl. 165, 1992):
D(i, k) = pivot(i, k-1) * D(i-1, k-1), and one O(m n^2) pass gives the
windows of every order k <= n. Their scales are folded as in
:func:`minor_scan`, so they are its scales bit for bit.

The signs come from :func:`sweep_signs`. The sweep decides a window of
k <= ``SWEEP_MAX_ORDER`` points when every nonzero basis value on the grid
lies within ``SWEEP_RANGE``, 2^-150 to 2^150 in magnitude; none of its
pivots is zero; every entry its elimination forms is at most
``SWEEP_GROWTH`` (G) times that column's max-norm c_j over the window; and
|D| > ``SWEEP_MARGIN`` * tau, tau = 64 * eps * scale being the zero test.
Every other window goes to :func:`minor_scan` alone.

The error bound behind the margin, with u = eps / 2. A row update (a row
minus a multiple of the row above) leaves the determinant unchanged but
for its rounding error f, so the computed D minus the exact one is the
sum, over the updates, of the determinant of the partly reduced window
with the updated row replaced by f, plus the rounding of the pivot
product, at most (k-1) u |product|. At step s the window is block
triangular: s finished rows, whose pivots are at most c_0 and then G c_t,
over a block of k-s rows. The block's rows other than the updated one
have entries at most G c_j, at step 0 at least one of them at most c_j as
it came, and |f_j| <= 3u G c_j. Hadamard's inequality on that block, its
columns divided by c_j, bounds each of the k-1-s terms of step s by
3u G^(k-1) (k-s)^((k-s)/2) scale.
Within ``SWEEP_RANGE``, results below the normal range add less than
2^-400 scale, and nothing that passes the growth test overflows. Summed,
|D_sweep - D| <= beta_k * eps * scale, where beta_k = G^(k-1) (3 S_k + k - 1) / 2
and S_k is the sum of (r-1) r^(r/2) over r = 2..k (:func:`_sweep_error`).
The zero test presumes that the kernel's own error stays below tau. Then
a window that clears the margin has a kernel determinant that clears the
zero test with the sweep's sign whenever beta_k * eps <=
(``SWEEP_MARGIN`` - 2) tau: for k <= 4 (beta_4 = 737 <= 896), not from
k = 5 (beta_5 = 6848). Windows of more points always fall back.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, compress, count, islice, repeat
from operator import gt, le, lt, mul, ne, sub, truediv
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .errors import (ArgumentError, DegenerateInputError, DomainError,
                     NearSingularError, SourceEvalError)

# For annotations only: systems imports this module at run time.
if TYPE_CHECKING: from .systems import ChebyshevSystem  # noqa: E701

EPS = sys.float_info.epsilon

#: Multiplier on eps * scale used by every determinant zero test.
TAU_FACTOR = 64.0 * EPS

#: Minimum point separation, as a fraction of the interval span.
MIN_SEPARATION_FACTOR = 1e-9

#: A window decided by the Neville sweep must clear the zero test this many
#: times over; see the module docstring for the bound behind it.
SWEEP_MARGIN = 16.0


#: Entries the sweep forms may grow to this multiple of their column's
#: max-norm over the window; a window with larger ones falls back.
SWEEP_GROWTH = 2.0


def _sweep_error(k: int) -> float:
    """beta_k: the sweep's error bound for a window of k points, in units
    of eps * scale (module docstring)."""
    terms = sum((r - 1) * r ** (r / 2) for r in range(2, k + 1))
    return SWEEP_GROWTH ** (k - 1) * (3 * terms + k - 1) / 2


#: The sweep decides no window unless every nonzero basis value on the grid
#: lies within this range of magnitudes (module docstring).
SWEEP_RANGE = (2.0 ** -150, 2.0 ** 150)


#: The most points a window decided by the sweep may have: the largest k
#: whose error bound fits inside the margin.
SWEEP_MAX_ORDER = max(k for k in range(1, 10)
                      if _sweep_error(k) * EPS <= (SWEEP_MARGIN - 2) * TAU_FACTOR)


@dataclass(frozen=True)
class SignedValue:
    """A determinant value with its tolerance-aware sign and scale proxy."""

    value: float
    sign: str  # '+', '-', '0'
    scale: float

    @property
    def tau(self) -> float:
        return TAU_FACTOR * self.scale


def sign_of(value: float, scale: float) -> str:
    # An exact zero is zero at any scale, a NaN one included.
    if value == 0.0 or abs(value) <= TAU_FACTOR * scale:
        return "0"
    return "+" if value > 0.0 else "-"


def classify_value(value: float, scale: float) -> SignedValue:
    return SignedValue(value, sign_of(value, scale), scale)


def _pivot_step(col: Sequence[float], d: int, det: float):
    """The pivot search of step ``d`` on ``col``, a column reduced to depth
    d: the step ``(d, pivot row, pivot, nonzero row factors)`` and ``det``
    carried through it, or ``(None, None)`` when the pivot is zero."""
    k = len(col)
    if d + 1 == k:
        return (None, None) if col[d] == 0.0 else ((d, d, col[d], ()), det * col[d])
    piv, best = d, abs(col[d])
    for r in range(d + 1, k):
        if abs(col[r]) > best:
            piv, best = r, abs(col[r])
    if best == 0.0:
        return None, None
    if piv != d:
        col = list(col)
        col[d], col[piv], det = col[piv], col[d], -det
    p, factors = col[d], []
    for r in range(d + 1, k):
        f = col[r] / p
        if f != 0.0:
            factors.append((r, f))
    return (d, piv, p, factors), det * p


def _column(levels: list, e: int, d: int, j: int) -> Sequence[float]:
    """Column ``j`` reduced to depth ``d`` by the steps of ``levels`` (see
    :func:`minor_scan`), starting from the deepest of levels 0..e that
    caches it and caching it at every level it passes: the row update."""
    while e and j not in levels[e][3]:
        e -= 1
    col = levels[e][3][j]
    for (s, piv, _, factors), _, _, cache in levels[e + 1:d + 1]:
        col = list(col)
        x = col[piv]
        if piv != s:
            col[piv] = col[s]
            col[s] = x
        for r, f in factors:
            col[r] -= f * x
        cache[j] = col
    return col


def minor_scan(vecs: Sequence[Sequence[float]],
               tuples: Iterable[Sequence[int]]) -> Iterator[tuple[float, float]]:
    """``(det, scale)`` of the square minor with columns ``vecs[t[0]], ...,
    vecs[t[k-1]]`` for each index tuple ``t`` (k entries per vector),
    lazily and in order. A tuple that shares its first c indices with the
    previous one reuses levels 0..c; see the module docstring."""
    absvecs = [[*map(abs, v)] for v in vecs]
    # levels[d], for the prefix t[:d]: the step taken on column t[d-1], the
    # determinant (None from a zero pivot on), the row max-norms, and the
    # columns reduced to depth d under the prefix, by index.
    levels: list = [(None, 1.0, None, vecs)]
    prefix: Sequence[int] = ()
    for t in tuples:
        last = len(t) - 1
        if t[:last] == prefix:
            c = last
        else:
            c = [*map(ne, prefix, t), True].index(True)
            del levels[c + 1:]
            prefix = t[:last]
        _, det, maxes, _ = levels[c]
        for d in range(c, last):
            j, step = t[d], None
            if det is not None:
                step, det = _pivot_step(_column(levels, c, d, j), d, det)
            maxes = absvecs[j] if maxes is None else [*map(max, maxes, absvecs[j])]
            levels.append((step, det, maxes, {}))
        j = t[last]
        if det is not None:
            det = _pivot_step(_column(levels, c, last, j), last, det)[1]
        yield (0.0 if det is None else det,
               math.prod(absvecs[j] if maxes is None else map(max, maxes, absvecs[j])))


def window_sweep(cols: Sequence[Sequence[float]],
                 n: int) -> Iterator[tuple[list, list]]:
    """For k = 1, ..., n in turn, the ``(dets, scales)`` of the windows of k
    consecutive columns under their first k entries, by first column: one
    Neville pass over ``cols``, which hold at least n entries each (see the
    module docstring). ``dets[i]`` is zero or NaN once a zero pivot touched
    window i, NaN once an entry beyond ``SWEEP_GROWTH`` times its column's
    max-norm over the window did, and NaN everywhere when a nonzero entry
    of ``cols`` lies outside ``SWEEP_RANGE``; each ``scales[i]`` is that of :func:`minor_scan`. The
    pass works on the transposed matrix (row j: basis function j at every
    point) and keeps only one step's reduced rows."""
    base = list(islice(zip(*cols), n))
    reduced: list = base  # the rows not yet finished, after the steps so far
    maxes = [[*map(abs, b)] for b in base]  # per row, over each window
    in_range = (max(chain.from_iterable(maxes), default=0.0) <= SWEEP_RANGE[1]
                and min(filter(None, chain.from_iterable(maxes)),
                        default=1.0) >= SWEEP_RANGE[0])
    dets: Iterable[float] = repeat(1.0 if in_range else math.nan)
    for k in range(1, n + 1):
        pivots = reduced[0]
        dets = [*map(mul, pivots, dets)]
        scales = maxes[0]
        for v in maxes[1:k]:
            scales = [*map(mul, scales, v)]
        yield dets, scales
        if k == n:
            return
        try:
            factors = [*map(truediv, pivots[1:], pivots)]
        except ZeroDivisionError:
            factors = [a / b if b else math.nan for a, b in zip(pivots[1:], pivots)]
        for j, c in enumerate(base):  # one row at a time, to keep memory low
            # max(a, b), which keeps a unless b is larger, as a comprehension
            maxes[j] = [b if b > a else a
                        for a, b in zip(maxes[j], map(abs, islice(c, k, None)))]
        reduced = [[*map(sub, r[1:], map(mul, factors, r))] for r in reduced[1:]]

        def within():
            return (map(le, map(abs, r), map(SWEEP_GROWTH.__mul__, v))
                    for r, v in zip(reduced, maxes[k:]))

        if not all(map(all, within())):
            # A point with an entry past its bound is NaN from here on, and
            # so is every window that holds it.
            keep = [*map((math.nan, 1.0).__getitem__, map(all, zip(*within())))]
            reduced = [[*map(mul, r, keep)] for r in reduced]


def sweep_signs(k: int, dets: Sequence[float], scales: Sequence[float]) -> list[str]:
    """The decision rule (module docstring) for windows of k points, given
    their :func:`window_sweep` determinants and scales: per window, "+" or
    "-" where the sweep decides the sign, "" where :func:`minor_scan` must."""
    if k > SWEEP_MAX_ORDER:
        return [""] * len(scales)
    bound = SWEEP_MARGIN * TAU_FACTOR
    above = map(gt, dets, map(bound.__mul__, scales))
    below = map(lt, dets, map((-bound).__mul__, scales))
    return [*map(("", "+", "-").__getitem__, map(sub, above, below))]


def first_failing_window(cols: Sequence[Sequence[float]], k: int,
                         dets: Sequence[float], scales: Sequence[float]
                         ) -> tuple[Optional[str], Optional[int]]:
    """The :func:`sign_of` of the first window of k consecutive columns and
    the index of the first window whose sign vanishes or differs from it
    (None if none does), given the windows' :func:`window_sweep` levels.
    The sweep's signs stand where :func:`sweep_signs` gives one; any other
    window that the search reaches goes to :func:`minor_scan` alone."""
    swept = sweep_signs(k, dets, scales)

    def sign(i: int) -> str:
        window = [c[:k] for c in cols[i:i + k]]
        return swept[i] or sign_of(*next(minor_scan(window, [tuple(range(k))])))

    if not swept:
        return None, None
    first, i = sign(0), 0
    if first == "0":
        return first, 0
    while True:
        # the next window whose sweep sign is not the first window's
        i = next(compress(count(i + 1), map(ne, islice(swept, i + 1, None),
                                            repeat(first))), None)
        if i is None or sign(i) != first:
            return first, i


def _square_scale(rows: Sequence[Sequence[float]]) -> float:
    """The scale proxy of a square matrix, given by rows, which it checks."""
    n, scale = len(rows), 1.0
    for r in rows:
        if len(r) != n:
            raise ArgumentError(f"matrix rows must have {n} entries")
        scale *= max(map(abs, r))
    return scale


def det_and_scale(rows: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Determinant and scale proxy of a square matrix, given by rows: one
    tuple through :func:`minor_scan`.

    ``scale`` is the product of the row max-norms taken before elimination;
    it is the conditioning proxy behind every zero test in the library. The
    empty matrix has determinant 1 by convention.
    """
    _square_scale(rows)  # for its check of the row lengths
    if not rows:
        return 1.0, 1.0
    return next(minor_scan([*zip(*rows)], [tuple(range(len(rows)))]))


def solve_with_det(rows: Sequence[Sequence[float]], rhs: Sequence[float]
                   ) -> tuple[list[float], SignedValue]:
    """Solve a square system and report the determinant from one elimination.

    The right-hand side is one more column carried through the steps of
    :func:`minor_scan`. Raises :class:`NearSingularError` when the
    determinant does not clear its scale-relative tolerance.
    """
    n = len(rows)
    b = [float(v) for _, v in zip(rows, rhs)]
    if len(b) != n:
        raise ArgumentError("system dimensions do not match")
    scale = _square_scale(rows)
    # Steps 0..n-1 in order, stopping at a zero pivot. All levels share one
    # cache, which ends up holding each column reduced to the depth of its
    # own step.
    det, reduced = 1.0, {}
    levels = [(None, 1.0, None, [*zip(*rows), b])]
    for d in range(n):
        step, det = _pivot_step(_column(levels, 0, d, d), d, det)
        if step is None:
            break
        levels.append((step, det, None, reduced))
    sv = classify_value(0.0 if det is None else det, scale)
    if sv.sign == "0":
        raise NearSingularError(
            f"collocation matrix is numerically singular (|det|={abs(sv.value):.3e} "
            f"<= tau={sv.tau:.3e})")
    # Entry i of a column is final after step i: column j at depth j holds
    # column j of the triangular factor, the right-hand side at depth n the
    # reduced right-hand side.
    y = _column(levels, 0, n, n)
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, n):
            acc -= reduced[j][i] * x[j]
        x[i] = acc / levels[i + 1][0][2]
    return x, sv


def distinct_points(pts: Sequence[float]) -> tuple[float, ...]:
    """``pts`` as floats, in order, once they are checked to be a non-empty
    tuple of finite, distinct points."""
    values = tuple(float(x) for x in pts)
    if not values:
        raise ArgumentError("point tuple must not be empty")
    for x in values:
        if not math.isfinite(x):
            raise ArgumentError(f"non-finite point {x!r}")
    if len(set(values)) != len(values):
        raise DegenerateInputError(f"coincident points in {values}")
    return values


def check_points(system: ChebyshevSystem, pts: Sequence[float],
                 expected: int) -> tuple[float, ...]:
    """The points of :func:`distinct_points`, in the caller's order, checked
    against a system: size, containment, and the minimum separation
    ``MIN_SEPARATION_FACTOR`` times the span."""
    pts = distinct_points(pts)
    if len(pts) != expected:
        raise ArgumentError(f"expected {expected} points, got {len(pts)}")
    for x in pts:
        if not system.interval.contains(x):
            raise DomainError(f"point {x!r} outside {system.interval.describe()}")
    min_separation = MIN_SEPARATION_FACTOR * system.interval.tolerance_span
    ordered = sorted(pts)
    gap = min(b - a for a, b in zip(ordered, ordered[1:])) if len(pts) > 1 else math.inf
    if gap < min_separation:
        raise DegenerateInputError(
            f"points closer than the minimum separation {min_separation:.3e}")
    return pts


def function_row(f, pts: Sequence[float]) -> list[float]:
    try:
        return [float(f(x)) for x in pts]
    except SourceEvalError:
        raise
    except Exception as exc:
        raise SourceEvalError(f"target function failed at one of {tuple(pts)}") from exc


def v_det(system: ChebyshevSystem, pts: Sequence[float]) -> SignedValue:
    """Collocation determinant of ``system`` at ``pts`` (one point per column)."""
    pts = check_points(system, pts, system.n)
    cols = [system.evaluate_basis(x) for x in pts]
    return classify_value(*next(minor_scan(cols, [tuple(range(len(cols)))])))


def d_det(system: ChebyshevSystem, pts: Sequence[float], f) -> SignedValue:
    """Bordered determinant: collocation rows of ``system`` plus the row of
    ``f`` values, at ``system.n + 1`` points."""
    pts = check_points(system, pts, system.n + 1)
    cols = [system.evaluate_basis(x) for x in pts]
    cols = [c + (v,) for c, v in zip(cols, function_row(f, pts))]
    return classify_value(*next(minor_scan(cols, [tuple(range(len(cols)))])))
