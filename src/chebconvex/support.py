"""Support-type construction for generalized convex functions.

Given n-1 interior knots, the coefficient of the last basis function is
extrapolated from six samples of the divided-difference map just past
the last knot to its right-hand limit there, the remaining coefficients
come from constrained interpolation at the knots, and the difference
between the target and the resulting combination is checked for its
alternating sign pattern: it must not cross the combination the wrong way
on any of the n knot-induced subintervals, and must lie above it beyond
the last knot. For a system of order 2 this is the classical support line
(graph never above the target); for higher orders the combination changes
sides at each interior knot.

Sign-pattern violations are data, not errors: for a target that is not
convex with respect to the system, they are exactly the evidence the
construction is designed to produce.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .convexity import (DEFAULT_ATOL, DEFAULT_RTOL, interior_knots,
                        knot_exclusion, pattern_signs, require_positive,
                        sign_walk, walk_values)
from .determinants import MIN_SEPARATION_FACTOR
from .divdiff import gdd_scan
from .errors import (DomainError, GeometryError, LimitDivergedError, PreconditionError,
                     ResolutionError)
from .functions import function_row
from .interpolation import OmegaCombination, constrained_interpolate
from .systems import ChebyshevSystem, check_grid_size, validate_grid

#: h0 defaults to this fraction of the span (capped by room to the right end).
H0_FACTOR = 1e-2
#: The limit is extrapolated from the map at h0, h0/2, ..., h0/2^(LIMIT_SAMPLES-1).
LIMIT_SAMPLES = 6

#: Tables must resolve the limit window at least this much finer than h0.
TABLE_SPACING_FACTOR = 2.0 ** -6


@dataclass(frozen=True)
class LimitDiagnostics:
    """A one-sided limit extrapolated from samples of the map: the samples
    as (h, value), h halving; whether the last two extrapolants agreed; the
    last extrapolant; whether the samples were nonincreasing as h shrank."""

    h_sequence: tuple[tuple[float, float], ...]
    converged: bool
    estimate: float
    monotone_ok: bool


@dataclass(frozen=True)
class SegmentCheck:
    """Sign requirement and outcome on one knot-induced subinterval."""

    index: int  # 1-based, left to right
    lo: float
    hi: float
    required_sign: int  # +1: f - omega >= 0 on the segment; -1: <= 0
    points_checked: int
    violations: tuple[tuple[float, float], ...]  # (x, f(x) - omega(x))


@dataclass(frozen=True)
class SignPatternReport:
    segments: tuple[SegmentCheck, ...]
    overall: bool
    excluded: int  # grid points dropped by the knot-adjacent exclusion
    values: tuple[tuple[float, float, float], ...]  # (x, f(x), omega(x)) checked


@dataclass(frozen=True)
class SupportResult:
    knots: tuple[float, ...]
    omega: OmegaCombination
    c_n: LimitDiagnostics
    pattern: SignPatternReport


def estimate_cn(system: ChebyshevSystem, f, knots,
                *, h0: Optional[float] = None,
                atol: float = DEFAULT_ATOL,
                rtol: float = DEFAULT_RTOL) -> LimitDiagnostics:
    """The right-hand limit of the divided-difference map at the last knot
    k: :func:`gdd_scan` at (knots, k + h) for h = h0 / 2^i, i <
    ``LIMIT_SAMPLES``, the basis and f evaluated once at each knot and
    sample, extrapolated to h = 0 by Neville–Aitken on the nominal h.

    It has converged when the last two diagonal extrapolants agree within
    ``atol + rtol * |estimate|``; otherwise :class:`LimitDivergedError`
    carries the samples. An h0 whose last sample does not clear the
    minimum separation, or rounds to k, raises :class:`GeometryError`. A
    table target is gated on [k, k + h0], then sampled from min(h0, next
    abscissa - k): every sample on the interpolant's first piece. The
    samples are ``monotone_ok`` when nonincreasing as h shrinks, as for a
    convex target, within ``atol + rtol`` times the larger of each two.
    """
    knots = interior_knots(system, knots)
    span = system.interval.tolerance_span
    x_last = knots[-1]
    # An unbounded right end leaves infinite room, so the span decides.
    room = system.interval.hi - x_last
    h0 = min(H0_FACTOR * span, 0.5 * room) if h0 is None else float(h0)
    first = x_last + h0
    if not (math.isfinite(first) and system.interval.contains(first)):
        raise GeometryError(f"h0={h0:.3e} puts the first point {first!r} "
                            f"outside {system.interval.describe()}")
    if getattr(f, "is_table", False) and h0 > 0.0:
        spacing = f.max_spacing_within(x_last, first)
        if spacing > TABLE_SPACING_FACTOR * h0:
            raise ResolutionError(
                f"table spacing {spacing:.3e} in the limit window exceeds "
                f"{TABLE_SPACING_FACTOR * h0:.3e}")
        h0 = min(h0, f.xs[bisect.bisect_right(f.xs, x_last)] - x_last)
    hs = [h0 * 2.0 ** -i for i in range(LIMIT_SAMPLES)]
    if hs[-1] <= MIN_SEPARATION_FACTOR * span or x_last + hs[-1] == x_last:
        raise GeometryError(f"h0={h0:.3e} leaves no room above the last knot")

    m = len(knots)
    points = knots + tuple(x_last + h for h in hs)
    cols = system.evaluate_grid(points)
    fvals = function_row(f, points)
    samples = [gdd_scan(knots + (x,), cols[:m] + [col], fvals[:m] + [fx])[0]
               for x, col, fx in zip(points[m:], cols[m:], fvals[m:])]
    # Neville's tableau in place: entry j ends as the value at h = 0 of the
    # polynomial through the first j + 1 samples, the diagonal extrapolant.
    diagonal = samples[:]
    for j in range(1, LIMIT_SAMPLES):
        for i in range(LIMIT_SAMPLES - 1, j - 1, -1):
            diagonal[i] += (diagonal[i] - diagonal[i - 1]) * hs[i] / (hs[i - j] - hs[i])
    if not all(map(math.isfinite, diagonal)):
        raise DomainError(f"the limit extrapolants {diagonal} from h0={h0:.3e} "
                          f"are not all finite")
    estimate = diagonal[-1]
    monotone = all(v1 <= v0 + atol + rtol * max(abs(v0), abs(v1))
                   for v0, v1 in zip(samples, samples[1:]))
    trace = tuple(zip(hs, samples))
    if abs(estimate - diagonal[-2]) > atol + rtol * abs(estimate):
        raise LimitDivergedError(
            f"no convergence: the last two extrapolants from h0={h0:.3e} are "
            f"{diagonal[-2]!r} and {estimate!r}",
            LimitDiagnostics(trace, False, estimate, monotone))
    return LimitDiagnostics(trace, True, estimate, monotone)


def verify_sign_pattern(system: ChebyshevSystem, f, omega: OmegaCombination,
                        knots, grid: Sequence[float],
                        *, atol: float = DEFAULT_ATOL,
                        rtol: float = DEFAULT_RTOL) -> SignPatternReport:
    """Check the alternating sign pattern of f - omega across the knot-induced
    subintervals.

    Segment k of n carries the requirement sign (-1)^(n-k+1) for k < n and
    +1 for the last (rightmost) segment; for n = 2 that means f - omega >= 0
    on both sides, the classical support inequality. Grid points within the
    knot-adjacent exclusion are skipped: the difference vanishes at the
    knots, where signs are noise. A grid with no point outside the
    exclusion raises :class:`PreconditionError`.
    """
    n = system.n
    knots = interior_knots(system, knots)
    grid = validate_grid(system, grid, 1)
    # The support pattern is the definition's pattern with the last knot
    # counted twice: regions 0..n-2, then region n beyond the last knot.
    nodes = knots + knots[-1:]
    walk = sign_walk(nodes, grid, knot_exclusion(system))

    values = walk_values(system, f, grid, walk,
                         lambda js, regions, xs, fvals, rows:
                         list(zip(xs, fvals, omega.at_rows(rows, xs))))
    # Regions ascend along the walk, so each segment is one slice of it: the
    # points of region seg, and for the last segment those of region n.
    bounds = [bisect.bisect_left(walk[1], seg) for seg in range(n)] + [len(values)]
    per_segment = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    signs = pattern_signs(n)
    segments = []
    for seg, points in enumerate(per_segment):
        required = signs[seg if seg < n - 1 else n]
        lo = system.interval.lo if seg == 0 else knots[seg - 1]
        hi = system.interval.hi if seg == n - 1 else knots[seg]
        violations = tuple((x, fx - ox) for x, fx, ox in points
                           if required * (fx - ox) < -(atol + rtol * abs(fx)))
        segments.append(SegmentCheck(seg + 1, lo, hi, required, len(points), violations))
    checked = len(values)
    if not checked:
        raise PreconditionError("support: nothing was checked; every grid point "
                                "lies within the knot exclusion")
    return SignPatternReport(tuple(segments), all(not s.violations for s in segments),
                             len(grid) - checked, tuple(values))


def build_support(system: ChebyshevSystem, f, knots, grid: Sequence[float],
                  *, atol: float = DEFAULT_ATOL,
                  rtol: float = DEFAULT_RTOL) -> SupportResult:
    """Limit estimate, constrained interpolation, sign-pattern check, chained.

    Requires that the system and its truncation to the first n-1 functions
    are positive, by :func:`require_positive` on the basis columns at the
    grid: the basis is evaluated there first, so a basis that fails there
    raises its own error. Pattern violations are reported, not raised: they
    are evidence that the target is not convex with respect to the system.
    A grid with no point outside the knot exclusion raises instead (from
    :func:`verify_sign_pattern`).
    """
    n = system.n
    knots = interior_knots(system, knots)
    grid = validate_grid(system, grid, 2)
    check_grid_size(grid, n)
    require_positive(system, grid, system.evaluate_grid(grid), True)
    limit = estimate_cn(system, f, knots, atol=atol, rtol=rtol)
    omega = constrained_interpolate(system, knots, f, limit.estimate)
    pattern = verify_sign_pattern(system, f, omega, knots, grid, atol=atol, rtol=rtol)
    return SupportResult(knots, omega, limit, pattern)
