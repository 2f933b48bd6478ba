"""Collocation matrices, their determinants, and the shared elimination kernel.

The collocation determinant of a system at points (x_1, ..., x_n) is the
determinant of the matrix whose (i, j) entry is basis_i(x_j); the bordered
determinant appends a row of target-function values to it. The zero test
is scale-relative: a determinant counts as zero when its magnitude falls
below ``64 * eps * scale`` where ``scale`` is the product of the
pre-elimination row max-norms. Row scales of Vandermonde-type matrices
vary over many orders of magnitude, which makes absolute tolerances
meaningless here. The test refuses quotients by a near-singular
determinant; a sign that a scan reads is the exact sign of the evaluated
floats wherever the test cannot vouch for it, so "0" then means exactly
singular.

One kernel computes every determinant: row-pivoted elimination, column by
column. The pivot of step d is the first entry of largest magnitude from
row d down in column d (``_pivot_step``, the pivot search); carrying a
later column through the step swaps two of its rows and subtracts
multiples of row d (``_column``, the row update). A column's entries
after d steps thus depend only on the first d columns and on itself, so
:func:`minor_scan` can reuse the steps and reduced columns of the prefix a
tuple shares with the previous one and still compute each minor as it
would alone. It takes step k-2, on rows k-2 and k-1 only, inline, so that
a last column gives its final entry from its two entries at depth k-2 by
the row update's float operations in the same order: in a lexicographic
scan a tuple costs one multiply-subtract on two cached entries, and sampled
scans walk their tuples in sorted (trie) order and report what a scan in
sampler order would. The kernel yields determinants only; a single minor
goes through :func:`det_and_scale`, which gives its scale too, and
:func:`solve_with_det` carries a right-hand side as one more column.

A scan's zero tests and tolerance bands read one bound, not each tuple's
scale: the static filter of Fortune and Van Wyk (ACM Trans. Graph. 15,
1996). :class:`ScaleBound` takes B, the product over rows of the row's
max-norm across all the scan's columns. Rounding keeps a float product of
nonnegative factors monotone in each, so no tuple's scale exceeds B, and a
test monotone in the scale that reads alike at 0 and at B reads so at the
tuple's own scale, which is computed only where they differ, bit for bit
that of :func:`det_and_scale`. B decides nothing when an entry or B itself
is not finite. Point tuples are plain float tuples, checked by
:func:`distinct_points` and, against a system, by :func:`check_points`,
whose minimum point separation is fixed.

Contiguous windows have a second route, :func:`window_sweep`. Let D(i, k)
be the determinant of the window of k points starting at point i under the
first k basis functions. Neville elimination of the matrix whose row i
holds the basis values at point i subtracts from each row a multiple of
the row just above it, so its pivot of row i at step s is the ratio of two
contiguous minors (Gasca and Pena, "Total positivity and Neville
elimination", Linear Algebra Appl. 165, 1992), and D(i, k) is the product
of the window's k pivots: one O(m n^2) pass gives the windows of every
order k <= n. The sweep carries beside each entry it forms a running bound
on its distance from the entry that exact elimination of the same floats
forms (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3).
With u = eps / 2, a factor a / b whose divisor clears its bound, |b| > e_b,
errs by at most ((|a/b| + eta) e_b + u |a| + e_a) / (|b| - e_b) + eta, and
an update x' - f x by at most e_x' + (|f| + e_f) e_x + (e_f + 2u |f|) |x| +
u |x' - f x| + eta. The terms in eta = 2^-1070 bound the rounding of
results below the normal range, and each bound is inflated by ``SLACK``
for its own rounding. A factor whose divisor does not clear its bound has
an infinite one, and so has every entry formed from it. A pivot that
clears its bound has the sign of the exact pivot, so a window all of whose
pivots clear theirs has the exact sign of D(i, k), with no limit on its
order, on the growth of its entries or on their range; every other window
goes to :func:`exact_sign`. :class:`Windows` keeps one sweep and one
search per order, so a request decides each window once, and a window's
sign "0" means that its evaluated floats are exactly singular.

Where a filter leaves a sign open, the sweep's bound for a window or the
zero test for a classification's tuple, :func:`exact_sign` gives the sign
of the exact determinant of the evaluated floats (the filter-then-exact
scheme of Shewchuk, "Adaptive precision floating-point arithmetic and
fast robust geometric predicates", Discrete Comput. Geom. 18, 1997).
A float is an integer times a power of two, so scaling each column by a
power of two, which keeps the sign, makes the matrix an integer one, and
fraction-free (Bareiss) elimination, whose divisions are all exact, gives
its determinant. A non-finite entry has no exact value and no sign.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import mul, ne, sub
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .errors import ArgumentError, DegenerateInputError, DomainError, NearSingularError
from .functions import function_row

# For annotations only: systems imports this module at run time.
if TYPE_CHECKING: from .systems import ChebyshevSystem  # noqa: E701

EPS = sys.float_info.epsilon

#: Multiplier on eps * scale used by every determinant zero test.
TAU_FACTOR = 64.0 * EPS

#: Minimum point separation, as a fraction of the interval span.
MIN_SEPARATION_FACTOR = 1e-9

#: The rounding error bounds of the window sweep (module docstring): a
#: rounded product or quotient errs by at most ``EPS / 2`` times its value
#: plus ``ETA`` below the normal range; ``SLACK`` covers the rounding of
#: the bound itself.
ETA = 2.0 ** -1070
SLACK = 1.0 + 2.0 ** -40


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


def _scale(rows: Iterable[Sequence[float]]) -> float:
    """The scale proxy: the product of the row max-norms, in order."""
    return math.prod(max(map(abs, r)) for r in rows)


class ScaleBound:
    """The bound B of one scan over the columns ``vecs``, or inf when an
    entry or B is not finite (module docstring)."""

    def __init__(self, vecs: Sequence[Sequence[float]]):
        self.vecs = vecs
        finite = all(map(math.isfinite, chain.from_iterable(vecs)))
        self.bound = _scale(zip(*vecs)) if finite else math.inf
        self.tau = TAU_FACTOR * self.bound

    def scale(self, t: Sequence[int]) -> float:
        """The scale of the minor with the columns of ``t``."""
        return _scale(zip(*map(self.vecs.__getitem__, t)))

    def sign(self, value: float, t: Sequence[int]) -> str:
        """:func:`sign_of` of that minor's ``value``, at B where B decides."""
        if abs(value) > self.tau:
            return "+" if value > 0.0 else "-"
        return "0" if value == 0.0 else sign_of(value, self.scale(t))


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
    while e and j not in levels[e][2]:
        e -= 1
    col = levels[e][2][j]
    for (s, piv, _, factors), _, cache in levels[e + 1:d + 1]:
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
               tuples: Iterable[Sequence[int]]) -> Iterator[float]:
    """The determinant of the square minor with columns ``vecs[t[0]], ...,
    vecs[t[k-1]]`` for each index tuple ``t`` of one length k (k entries per
    vector), lazily and in order. A tuple that shares its first c indices
    with the previous one reuses levels 0..c, and every tuple takes its
    last step inline from its column at depth k-2; see the module
    docstring."""
    # levels[d], for the prefix t[:d], d <= k-2: the step taken on column
    # t[d-1], the determinant (None from a zero pivot on), and the columns
    # reduced to depth d under the prefix, by index.
    levels: list = [(None, 1.0, dict(enumerate(vecs)))]
    prefix = None
    for t in tuples:
        if t[:-1] != prefix:
            last = len(t) - 1
            c = [*map(ne, prefix or (), t), True].index(True)
            del levels[c + 1:]
            prefix = t[:-1]
            det = levels[c][1]
            for d in range(c, last - 1):
                step = None
                if det is not None:
                    step, det = _pivot_step(_column(levels, c, d, t[d]), d, det)
                levels.append((step, det, {}))
            # Step k-2 (none for k = 1), inline: the pivot search on rows k-2
            # and k-1. It leaves a column reduced to depth k-2 with the final
            # entry col[other] - f * col[piv], or col[other] where f is 0.
            cache, other, piv, f = levels[-1][2], 0, 0, 0.0
            if last and det is not None:
                j = t[last - 1]
                col = cache.get(j) or _column(levels, c, last - 1, j)
                other, piv = last, last - 1
                if abs(col[last]) > abs(col[piv]):
                    other, piv, det = piv, last, -det
                if col[piv] == 0.0:
                    det = None
                else:
                    det, f = det * col[piv], col[other] / col[piv]
        value = 0.0
        if det is not None:
            j = t[-1]
            col = cache.get(j) or _column(levels, last - 1, last - 1, j)
            v = col[other] - f * col[piv] if f else col[other]
            if v:
                value = det * v
        yield value


def window_sweep(cols: Sequence[Sequence[float]], n: int) -> Iterator[list[int]]:
    """For k = 1, ..., n in turn, the sign of each window of k consecutive
    columns under their first k entries, by first column: 1 or -1 where
    each of the window's k Neville pivots clears its running error bound,
    so that the sign is that of the exact determinant, and 0 otherwise (see
    the module docstring). One pass over ``cols``, which hold at least n
    entries each, on the transposed matrix (row j: basis function j at
    every point), keeping one step's reduced rows and their bounds."""
    u = EPS / 2
    reduced: list = list(islice(zip(*cols), n))  # the rows not yet finished
    errors = [[x - x for x in row] for row in reduced]  # NaN at a non-finite entry
    signs: Iterable[int] = repeat(1)
    for k in range(1, n + 1):
        pivots, bounds = reduced[0], errors[0]
        signs = [s * ((p > e) - (p < -e)) for s, p, e in zip(signs, pivots, bounds)]
        yield signs
        if k == n:
            return
        # Per pair of neighbouring pivots: the factor, the multiplier of a
        # row entry's bound and that of its magnitude in the updated bound.
        factors, carry, spread = [], [], []
        for a, ea, b, eb in zip(pivots[1:], bounds[1:], pivots, bounds):
            if abs(b) > eb:
                f = a / b
                ef = ((abs(f) + ETA) * eb + u * abs(a) + ea + ETA) / (abs(b) - eb) * SLACK + ETA
            else:
                f, ef = 0.0, math.inf
            factors.append(f)
            carry.append(abs(f) + ef)
            spread.append(ef + EPS * abs(f))
        rows = [[*map(sub, r[1:], map(mul, factors, r))] for r in reduced[1:]]
        errors = [[(e1 + c * e0 + d * abs(x) + u * abs(y)) * SLACK + ETA
                   for e1, e0, x, y, c, d in zip(e[1:], e, r, s, carry, spread)]
                  for e, r, s in zip(errors[1:], reduced[1:], rows)]
        reduced = rows


class Windows:
    """The contiguous windows of the basis columns ``cols`` (n entries
    each) at every order k <= n, each decided at most once per request:
    one :func:`window_sweep`, run when first needed, and one
    :meth:`first_failing` search per order. A window's sign is exact: the
    sweep's where it decides, else :func:`exact_sign`'s, so "0" means that
    the evaluated floats are exactly singular (or not finite)."""

    def __init__(self, cols: Sequence[Sequence[float]], n: int):
        self.cols, self.n = cols, n
        self._failures: dict[int, tuple[str, Optional[int]]] = {}

    @cached_property
    def levels(self) -> list:
        return list(window_sweep(self.cols, self.n))

    def first_failing(self, k: int) -> tuple[str, Optional[int]]:
        """The sign of the first window of k points and the index of the
        first window whose sign vanishes or differs from it (None if none
        does). The sweep's signs stand where it gives one; any other window
        that the search reaches goes to :func:`exact_sign`."""
        if k in self._failures:
            return self._failures[k]
        signs = self.levels[k - 1]

        def sign(i: int) -> int:
            return signs[i] or exact_sign([c[:k] for c in self.cols[i:i + k]]) or 0

        first, i = sign(0), 0
        while first:
            # the next window whose sweep sign is not the first window's
            i = next(compress(count(i + 1), map(ne, islice(signs, i + 1, None),
                                                repeat(first))), None)
            if i is None or sign(i) != first:
                break
        self._failures[k] = "0+-"[first], i  # indexed by the sign 0, 1 or -1
        return self._failures[k]

    def keep_sign(self) -> bool:
        """Whether, at every order k = 1, ..., n, the windows of k points
        share one nonzero sign. By Fekete's criterion every increasing
        k-tuple of columns then has that sign too (Gasca and Pena, 1992;
        Karlin, "Total Positivity", 1968, ch. 2)."""
        return all(self.first_failing(k)[1] is None for k in range(1, self.n + 1))


def exact_sign(cols: Sequence[Sequence[float]]) -> Optional[int]:
    """The sign (1, 0 or -1) of the exact determinant of the square matrix
    with these float columns, or None when an entry is not finite: integer
    Bareiss elimination after scaling by powers of two (module docstring)."""
    rows = []
    for c in cols:
        if not all(map(math.isfinite, c)):
            return None
        ratios = [x.as_integer_ratio() for x in c]
        top = max(d for _, d in ratios).bit_length()
        rows.append([p << (top - d.bit_length()) for p, d in ratios])
    sign, prev = 1, 1
    while rows:
        s = next((i for i, r in enumerate(rows) if r[0]), None)
        if s is None:
            return 0
        if s:
            rows[0], rows[s], sign = rows[s], rows[0], -sign
        # Bareiss: every entry left is a minor of the scaled matrix, so the
        # division is exact, and the last pivot is its determinant.
        (pivot, *head), *rows = rows
        rows = [[(pivot * x - r[0] * y) // prev for x, y in zip(r[1:], head)]
                for r in rows]
        prev = pivot
    return sign if prev > 0 else -sign


def _square(rows: Sequence[Sequence[float]]) -> Sequence[Sequence[float]]:
    """``rows``, once they are checked to be those of a square matrix."""
    if any(len(r) != len(rows) for r in rows):
        raise ArgumentError(f"matrix rows must have {len(rows)} entries")
    return rows


def det_and_scale(rows: Sequence[Sequence[float]]) -> tuple[float, float]:
    """Determinant and scale proxy of a square matrix, given by rows: one
    tuple through :func:`minor_scan`, the entry point for single minors.

    ``scale`` is the product of the row max-norms taken before elimination;
    it is the conditioning proxy behind every zero test in the library. The
    empty matrix has determinant 1 by convention.
    """
    scale = _scale(_square(rows))
    if not rows:
        return 1.0, 1.0
    return next(minor_scan([*zip(*rows)], [tuple(range(len(rows)))])), scale


def solve_with_det(rows: Sequence[Sequence[float]], rhs: Sequence[float]
                   ) -> tuple[list[float], SignedValue]:
    """Solve a square system, one row per point, and report the determinant
    from one elimination.

    The right-hand side is one more column carried through the steps of
    :func:`minor_scan`. Raises :class:`NearSingularError` when the
    determinant does not clear the zero test at the collocation scale, the
    product over columns (functions) of each column's max-norm, which
    :func:`det_and_scale` takes for the same matrix given by functions.
    """
    n = len(rows)
    b = [float(v) for _, v in zip(rows, rhs)]
    if len(b) != n:
        raise ArgumentError("system dimensions do not match")
    scale = _scale(zip(*_square(rows)))
    # Steps 0..n-1 in order, stopping at a zero pivot. All levels share one
    # cache, which ends up holding each column reduced to the depth of its
    # own step.
    det, reduced = 1.0, {}
    levels = [(None, 1.0, [*zip(*rows), b])]
    for d in range(n):
        step, det = _pivot_step(_column(levels, 0, d, d), d, det)
        if step is None:
            break
        levels.append((step, det, reduced))
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


def v_det(system: ChebyshevSystem, pts: Sequence[float]) -> SignedValue:
    """Collocation determinant of ``system`` at ``pts`` (one point per column)."""
    pts = check_points(system, pts, system.n)
    cols = [system.evaluate_basis(x) for x in pts]
    return classify_value(*det_and_scale([*zip(*cols)]))


def d_det(system: ChebyshevSystem, pts: Sequence[float], f) -> SignedValue:
    """Bordered determinant: collocation rows of ``system`` plus the row of
    ``f`` values, at ``system.n + 1`` points."""
    pts = check_points(system, pts, system.n + 1)
    rows = [*zip(*(system.evaluate_basis(x) for x in pts)), function_row(f, pts)]
    return classify_value(*det_and_scale(rows))
