"""Support-type construction for generalized convex functions.

Given n-1 interior knots, the coefficient of the last basis function is
estimated as the right-hand limit of the divided-difference map just past
the last knot, the remaining coefficients come from constrained
interpolation at the knots, and the difference between the target and the
resulting combination is checked for its alternating sign pattern: it must
not cross the combination the wrong way on any of the n knot-induced
subintervals, and must lie above it beyond the last knot. For a system of
order 2 this is the classical support line (graph never above the target);
for higher orders the combination changes sides at each interior knot.

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
                        knot_exclusion, pattern_sign, require_positive,
                        sign_walk, walk_values)
from .determinants import MIN_SEPARATION_FACTOR, function_row
from .divdiff import conditioning, gdd_scan
from .errors import GeometryError, LimitDivergedError, PreconditionError, ResolutionError
from .interpolation import OmegaCombination, constrained_interpolate
from .systems import ChebyshevSystem, check_grid_size, validate_grid

#: h0 defaults to this fraction of the span (capped by room to the right end).
H0_FACTOR = 1e-2
MAX_HALVINGS = 40

#: Tables must resolve the limit window at least this much finer than h0.
TABLE_SPACING_FACTOR = 2.0 ** -6


@dataclass(frozen=True)
class LimitDiagnostics:
    """Trace of the geometric-halving estimate of a one-sided limit."""

    h_sequence: tuple[tuple[float, float], ...]  # (h, value), h halving
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
                h0: Optional[float] = None,
                atol: float = DEFAULT_ATOL,
                rtol: float = DEFAULT_RTOL) -> LimitDiagnostics:
    """Estimate the right-hand limit of the divided-difference map at the
    last knot by geometric halving.

    Sends (knots, last knot + h) through :func:`gdd_scan`, the basis and f
    at the knots evaluated once, for h = h0 / 2^k, k <= ``MAX_HALVINGS``, with
    the first point in the interval and no minimum separation, and stops
    once consecutive values agree within ``atol + rtol * |value|``. The h
    trace is kept for auditability; ``monotone_ok`` records whether the
    values were nonincreasing as h shrank (expected for a convex target),
    with slack widened by the conditioning of each evaluation so that
    cancellation noise near tiny h does not read as a violation.
    """
    knots = interior_knots(system, knots)
    span = system.interval.tolerance_span
    x_last = knots[-1]
    room = system.interval.hi - x_last
    if math.isfinite(room):
        default_h0 = min(H0_FACTOR * span, 0.5 * room)
    else:
        default_h0 = H0_FACTOR * span
    h0 = default_h0 if h0 is None else float(h0)
    first = x_last + h0
    if h0 <= MIN_SEPARATION_FACTOR * span or first == x_last:
        raise GeometryError(f"h0={h0:.3e} leaves no room above the last knot")
    if not (math.isfinite(first) and system.interval.contains(first)):
        raise GeometryError(f"h0={h0:.3e} puts the first point {first!r} "
                            f"outside {system.interval.describe()}")
    if getattr(f, "is_table", False):
        spacing = f.max_spacing_within(x_last, first)
        if spacing > TABLE_SPACING_FACTOR * h0:
            raise ResolutionError(
                f"table spacing {spacing:.3e} in the limit window exceeds "
                f"{TABLE_SPACING_FACTOR * h0:.3e}")

    kcols = [system.evaluate_basis(k) for k in knots]
    kvals = function_row(f, knots)
    trace: list[tuple[float, float]] = []
    conditionings: list[float] = []
    estimate = None
    for k in range(MAX_HALVINGS + 1):
        h = h0 * 2.0 ** -k
        x = x_last + h
        if x == x_last:
            break
        value, den = gdd_scan(knots + (x,), kcols + [system.evaluate_basis(x)],
                              kvals + function_row(f, (x,)))
        trace.append((h, value))
        conditionings.append(conditioning(*den))
        if len(trace) >= 2:
            prev = trace[-2][1]
            if abs(value - prev) <= atol + rtol * abs(value):
                estimate = value
                break
    monotone = _nonincreasing(trace, conditionings, atol, rtol)
    if estimate is None:
        diagnostics = LimitDiagnostics(tuple(trace), False, trace[-1][1], monotone)
        raise LimitDivergedError(
            f"no convergence after {len(trace) - 1} halvings from h0={h0:.3e}",
            diagnostics)
    return LimitDiagnostics(tuple(trace), True, estimate, monotone)


def _nonincreasing(trace: Sequence[tuple[float, float]],
                   conditionings: Sequence[float],
                   atol: float, rtol: float) -> bool:
    eps = 2.0 ** -52
    for i in range(1, len(trace)):
        v0, v1 = trace[i - 1][1], trace[i][1]
        mag = max(abs(v0), abs(v1))
        noise = 8.0 * eps * mag / max(min(conditionings[i - 1], conditionings[i]), eps)
        if v1 > v0 + atol + rtol * mag + noise:
            return False
    return True


def verify_sign_pattern(system: ChebyshevSystem, f, omega: OmegaCombination,
                        knots, grid: Sequence[float], cols: Sequence[Sequence[float]],
                        atol: float = DEFAULT_ATOL,
                        rtol: float = DEFAULT_RTOL) -> SignPatternReport:
    """Check the alternating sign pattern of f - omega across the knot-induced
    subintervals; omega is combined from ``cols``, the basis columns at the
    grid points.

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

    def point(j, region):
        x = grid[j]
        return x, f(x), omega.at_column(cols[j])

    values = walk_values(system, f, grid, walk,
                         lambda xs, fvals, rows: list(zip(xs, fvals, omega.at_rows(rows))),
                         point, cols)
    # Regions ascend along the walk, so each segment is one slice of it: the
    # points of region seg, and for the last segment those of region n.
    bounds = [bisect.bisect_left(walk[1], seg) for seg in range(n)] + [len(values)]
    per_segment = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    segments = []
    for seg, points in enumerate(per_segment):
        required = pattern_sign(n, seg if seg < n - 1 else n)
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
                  atol: float = DEFAULT_ATOL,
                  rtol: float = DEFAULT_RTOL) -> SupportResult:
    """Limit estimate, constrained interpolation, sign-pattern check, chained.

    Requires (opportunistically) that the system and its truncation are
    positive on the grid. Pattern violations are reported, not raised: they
    are evidence that the target is not convex with respect to the system.
    A grid with no point outside the knot exclusion raises instead (from
    :func:`verify_sign_pattern`).
    """
    n = system.n
    knots = interior_knots(system, knots)
    grid = validate_grid(system, grid, 2)
    check_grid_size(grid, n)
    cols = system.evaluate_grid(grid)
    require_positive(system, grid, cols, True)
    limit = estimate_cn(system, f, knots, atol=atol, rtol=rtol)
    omega = constrained_interpolate(system, knots, f, limit.estimate)
    pattern = verify_sign_pattern(system, f, omega, knots, grid, cols,
                                  atol=atol, rtol=rtol)
    return SupportResult(knots, omega, limit, pattern)
