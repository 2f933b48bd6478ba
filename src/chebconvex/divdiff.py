"""Classical and generalized divided differences.

The generalized divided difference of f at n points, with respect to an
n-function system, is the ratio of the bordered determinant built from the
first n-1 basis functions plus f over the full collocation determinant.
For the monomial system it reduces to the classical recurrence, and it is
symmetric under any permutation of the points: numerator and denominator
pick up the same column inversions.

:func:`gdd` takes the ratio at one point tuple from three minors. With
n-1 knots fixed, :func:`knot_map` is the map x -> [knots, x]f of theorem 2
and the support limit, in Lemma 1's form, with :func:`gdd`'s zero tests.

Two divided differences of windows sharing n-1 points are linked by a
one-step update identity; :func:`recurrence_identity_residual` measures
how well the ratio satisfies it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import le, mul, not_, or_, sub, truediv
from typing import Callable, Iterable, Optional, Sequence

from .determinants import (TAU_FACTOR, check_points, d_det, det_and_scale, distinct_points,
                           sign_of, solve_with_det, v_det)
from .errors import ArgumentError, DomainError, NearSingularError
from .functions import function_row
from .interpolation import OmegaCombination
from .systems import ChebyshevSystem

#: Below this |V_n| / scale ratio a result is flagged (not failed) in reports.
ILL_CONDITIONING_THRESHOLD = 1e-8


@dataclass(frozen=True)
class DividedDifference:
    """A generalized divided difference value with its conditioning ratio."""

    value: float
    points: tuple[float, ...]
    conditioning: float

    @property
    def ill_conditioned(self) -> bool:
        return self.conditioning < ILL_CONDITIONING_THRESHOLD


def classical_dd(pts: Sequence[float], f) -> float:
    """Classical divided difference over distinct points via the recurrence.

    Single point: f(x1). Longer tuples: the usual quotient of the two
    length-(k-1) differences, evaluated bottom-up so every contiguous
    subrange is computed once. A value that is not finite raises
    :class:`DomainError` naming the points.
    """
    pts = distinct_points(pts)
    k = len(pts)
    table = function_row(f, pts)
    for level in range(1, k):
        for i in range(k - level):
            denom = pts[i + level] - pts[i]
            table[i] = (table[i + 1] - table[i]) / denom
    return _finite(table[0], pts)


def _finite(value: float, pts: Sequence[float]) -> float:
    """``value``, the divided difference at ``pts``, unless it is not finite."""
    if not math.isfinite(value):
        raise DomainError(f"divided difference {value!r} at {tuple(pts)} is not finite")
    return value


def degenerated(which: str, pts: Sequence[float]) -> NearSingularError:
    """The error of the "full" or "truncated" determinant's zero test at pts."""
    return NearSingularError(f"{which}-system collocation determinant "
                             f"degenerated at {tuple(pts)}")


def gdd(system: ChebyshevSystem, pts: Sequence[float], f) -> DividedDifference:
    """Generalized divided difference of ``f`` at ``system.n`` points, in
    any order: the bordered determinant over the full one, each minor
    through :func:`det_and_scale`, with its conditioning |V_n| / scale (1 at
    a zero scale). The error of a failed zero test, of the full determinant
    or of the truncated one at the n-1 smallest points, names it, and so
    does the :class:`DomainError` of a value that is not finite."""
    n = system.n
    pts = check_points(system, pts, n)
    cols = [system.evaluate_basis(x) for x in pts]
    fvals = function_row(f, pts)
    rows = [*zip(*cols)]
    head = sorted(range(n), key=pts.__getitem__)[:n - 1]
    det, scale = det_and_scale(rows)
    if sign_of(det, scale) == "0":
        raise degenerated("full", pts)
    # An order-1 system has the empty truncation, whose determinant is 1.
    if sign_of(*det_and_scale([*zip(*map(cols.__getitem__, head))][:n - 1])) == "0":
        raise degenerated("truncated", [pts[j] for j in head])
    num, _ = det_and_scale(rows[:n - 1] + [fvals])
    return DividedDifference(_finite(num / det, pts), pts,
                             abs(det) / scale if scale > 0.0 else 1.0)


def _zero_tested(det: float, values: Iterable[float], bounds: Sequence[float],
                 rows: Sequence[Sequence[float]]) -> Optional[int]:
    """The index of the first point j where ``det`` times ``values[j]``
    fails :func:`sign_of`'s zero test, mapped over the points, at the
    product over i of ``max(bounds[i], abs(rows[i][j]))`` in order, as
    ``math.prod`` multiplies at one point; or None. A NaN product passes."""
    products = [*map(mul, repeat(det), values)]
    scales = [*map(max, repeat(bounds[0]), map(abs, rows[0]))]
    for bound, row in zip(bounds[1:], rows[1:]):
        scales = map(mul, scales, map(max, repeat(bound), map(abs, row)))
    zero = [*map(or_, map(not_, products),
                 map(le, map(abs, products), map(mul, repeat(TAU_FACTOR), scales)))]
    return zero.index(True) if True in zero else None


def knot_map(system: ChebyshevSystem, knots: tuple[float, ...], f) -> Callable[..., list[float]]:
    """The map x -> divided difference at (knots, x), for n-1 increasing
    knots, in Lemma 1's form (f - p)(x) / (u_n - q)(x): p and q interpolate
    f and the last basis function u_n at the knots by the first n-1
    functions. Returns ``values(xs, fvals, rows)``, the map at ``xs`` from
    f and the basis rows there, O(n) per point, the points left of the last
    knot first. :func:`gdd`'s zero tests and messages stand: on the
    truncated determinant V at the knots, the solve's own test at
    :func:`gdd`'s scale, then on the full one,
    V (u_n - q)(x), and left of the last knot on the truncated one at the
    n-1 smallest points, V l(x), for l = 1 at the last knot and 0 at the
    others. Each raises for its first failing point, as does a value that
    is not finite."""
    n = system.n
    krows = system.evaluate_rows(knots)
    heads = [*zip(*krows[:n - 1])]
    try:
        p, det = solve_with_det(heads, function_row(f, knots))
    except NearSingularError:
        raise degenerated("truncated", knots) from None
    # det_and_scale's row max-norms over the knots, and over the first n-1
    # functions at all knots but the last: a point's head left of it.
    kmax = [max(map(abs, row)) for row in krows]
    hmax = [max(map(abs, row[:-1]), default=0.0) for row in krows[:n - 1]]
    # The same matrix again, so these solves pass the same zero test.
    q, _ = solve_with_det(heads, krows[n - 1])
    lagrange, _ = solve_with_det(heads, [0.0] * (n - 2) + [1.0])
    truncated = system.truncate(n - 1)
    p, q, lagrange = (OmegaCombination(truncated, tuple(c)) for c in (p, q, lagrange))

    def values(xs, fvals, rows):
        rs = [*map(sub, rows[n - 1], q.at_rows(rows, xs))]
        i = _zero_tested(det.value, rs, kmax, rows)
        if i is not None:
            raise degenerated("full", sorted(knots + (xs[i],)))
        head = bisect.bisect_left(xs, True, key=knots[-1].__le__)
        left = [row[:head] for row in rows]
        i = _zero_tested(det.value, lagrange.at_rows(left, xs), hmax, left)
        if i is not None:
            raise degenerated("truncated", sorted(knots[:-1] + (xs[i],)))
        out = [*map(truediv, map(sub, fvals, p.at_rows(rows, xs)), rs)]
        for x, v in compress(zip(xs, out), map(not_, map(math.isfinite, out))):
            _finite(v, sorted(knots + (x,)))
        return out

    return values


def recurrence_identity_residual(system: ChebyshevSystem, pts: Sequence[float], f) -> float:
    """Relative residual of the window-update identity at n+1 distinct points.

    Left side: difference of the divided differences of the two length-n
    windows. Right side: bordered determinant of the full tuple times the
    truncated determinant of the shared middle points, over the product of
    the two window determinants. Reported relative to max(|lhs|, |rhs|, 1).
    """
    n = system.n
    if n < 2:
        raise ArgumentError("the update identity needs a system of order >= 2")
    pts = check_points(system, pts, n + 1)
    hi = gdd(system, pts[1:], f).value
    lo = gdd(system, pts[:n], f).value
    lhs = hi - lo
    bordered = d_det(system, pts, f)
    mid = v_det(system.truncate(n - 1), pts[1:n])
    v_hi = v_det(system, pts[1:])
    v_lo = v_det(system, pts[:n])
    if mid.sign == "0":
        raise NearSingularError("shared-point determinant degenerated in the identity")
    rhs = bordered.value * mid.value / (v_hi.value * v_lo.value)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)
