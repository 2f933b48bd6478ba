"""Classical and generalized divided differences.

The generalized divided difference of f at n points, with respect to an
n-function system, is the ratio of the bordered determinant built from the
first n-1 basis functions plus f over the full collocation determinant.
For the monomial system it reduces to the classical recurrence, and it is
symmetric under any permutation of the points: numerator and denominator
pick up the same column inversions.

Every generalized divided difference comes from :func:`gdd_scan`: that
of :func:`gdd`, of theorem 2's scan and of the support limit.

Two divided differences of windows sharing n-1 points are linked by a
one-step update identity; :func:`recurrence_identity_residual` measures
how well the ratio satisfies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

from .determinants import (check_points, d_det, distinct_points, function_row,
                           minor_scan, sign_of, v_det)
from .errors import ArgumentError, NearSingularError
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
    subrange is computed once.
    """
    pts = distinct_points(pts)
    k = len(pts)
    table = function_row(f, pts)
    for level in range(1, k):
        for i in range(k - level):
            denom = pts[i + level] - pts[i]
            table[i] = (table[i + 1] - table[i]) / denom
    return table[0]


def conditioning(det: float, scale: float) -> float:
    """|V_n| / scale of a collocation determinant, 1 at a zero scale."""
    return abs(det) / scale if scale > 0.0 else 1.0


def gdd_scan(points: Sequence[float], cols: Sequence[tuple[float, ...]],
             fvals: Sequence[float], tuples: Sequence[Sequence[int]],
             heads: Sequence[Sequence[int]]) -> Iterator[tuple[float, tuple[float, float]]]:
    """``(value, (det, scale))`` of the divided difference, and of its full
    collocation determinant, at each index tuple into the basis columns
    ``cols`` and f values ``fvals`` at ``points``, lazily. The determinant
    and the truncated one at the tuple's head (its n-1 smallest points)
    must clear their zero tests; the error names the one that degenerated.
    Its three minors run through :func:`minor_scan`."""
    n = len(cols[0])
    dens = minor_scan(cols, tuples)
    # An order-1 system has the empty truncation, whose determinant is 1.
    truncs = minor_scan([c[:n - 1] for c in cols], heads) if n > 1 else repeat((1.0, 1.0))
    nums = minor_scan([c[:n - 1] + (v,) for c, v in zip(cols, fvals)], tuples)
    for t, head, den, trunc, (num, _) in zip(tuples, heads, dens, truncs, nums):
        if sign_of(*den) == "0":
            raise NearSingularError("full-system collocation determinant "
                                    f"degenerated at {tuple(points[j] for j in t)}")
        if sign_of(*trunc) == "0":
            raise NearSingularError("truncated-system collocation determinant "
                                    f"degenerated at {tuple(points[j] for j in head)}")
        yield num / den[0], den


def gdd(system: ChebyshevSystem, pts: Sequence[float], f) -> DividedDifference:
    """Generalized divided difference of ``f`` at ``system.n`` points: one
    tuple through :func:`gdd_scan`, over one evaluation of the basis."""
    pts = check_points(system, pts, system.n)
    n = system.n
    cols = [system.evaluate_basis(x) for x in pts]
    head = tuple(sorted(range(n), key=pts.__getitem__)[:n - 1])
    value, den = next(gdd_scan(pts, cols, function_row(f, pts),
                               [tuple(range(n))], [head]))
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
