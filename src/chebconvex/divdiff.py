"""Classical and generalized divided differences.

The generalized divided difference of f at n points, with respect to an
n-function system, is the ratio of the bordered determinant built from the
first n-1 basis functions plus f over the full collocation determinant.
For the monomial system it reduces to the classical recurrence, and it is
symmetric under any permutation of the points: numerator and denominator
pick up the same column inversions.

The ratio at one point tuple comes from :func:`gdd_scan`, for :func:`gdd`
and the six samples of the support limit; theorem 2's scan takes Lemma 1's
form of it at fixed knots, with the errors of :func:`degenerated`.

Two divided differences of windows sharing n-1 points are linked by a
one-step update identity; :func:`recurrence_identity_residual` measures
how well the ratio satisfies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .determinants import (check_points, d_det, distinct_points, function_row,
                           minor_scan, sign_of, v_det)
from .errors import ArgumentError, DomainError, NearSingularError
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


def conditioning(det: float, scale: float) -> float:
    """|V_n| / scale of a collocation determinant, 1 at a zero scale."""
    return abs(det) / scale if scale > 0.0 else 1.0


def degenerated(which: str, pts: Sequence[float]) -> NearSingularError:
    """The error of the "full" or "truncated" determinant's zero test at pts."""
    return NearSingularError(f"{which}-system collocation determinant "
                             f"degenerated at {tuple(pts)}")


def gdd_scan(points: Sequence[float], cols: Sequence[tuple[float, ...]],
             fvals: Sequence[float]) -> tuple[float, tuple[float, float]]:
    """``(value, (det, scale))`` of the divided difference at ``points``, in
    any order, and of its full collocation determinant, from the basis
    columns ``cols`` and f values ``fvals`` there, each minor through
    :func:`minor_scan`. The error of a failed zero test, of the determinant
    or of the truncated one at the n-1 smallest points, names it, and so
    does the :class:`DomainError` of a value that is not finite."""
    n = len(cols)
    every = [tuple(range(n))]
    head = sorted(range(n), key=points.__getitem__)[:n - 1]
    det, scale = next(minor_scan(cols, every))
    if sign_of(det, scale) == "0":
        raise degenerated("full", points)
    # An order-1 system has the empty truncation, whose determinant is 1.
    truncs = minor_scan([c[:n - 1] for c in cols], [head])
    if head and sign_of(*next(truncs)) == "0":
        raise degenerated("truncated", [points[j] for j in head])
    num, _ = next(minor_scan([c[:n - 1] + (v,) for c, v in zip(cols, fvals)], every))
    return _finite(num / det, points), (det, scale)


def gdd(system: ChebyshevSystem, pts: Sequence[float], f) -> DividedDifference:
    """Generalized divided difference of ``f`` at ``system.n`` points:
    :func:`gdd_scan` over one evaluation of the basis."""
    pts = check_points(system, pts, system.n)
    cols = [system.evaluate_basis(x) for x in pts]
    value, den = gdd_scan(pts, cols, function_row(f, pts))
    return DividedDifference(value, pts, conditioning(*den))


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
