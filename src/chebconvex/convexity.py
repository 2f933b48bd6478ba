"""Grid-sampled certification of higher-order convexity with respect to a
positive Chebyshev system.

Four routes, each computing its own quantity so they can cross-check each
other:

* ``theoremA``   - nonnegativity of the bordered determinant over ordered
  (n+1)-tuples drawn from the grid;
* ``corollary1`` - the sliding-window inequality between the divided
  differences of the two length-n windows of each (n+1)-tuple, each window
  evaluated by the determinant ratio;
* ``theorem2``   - monotonicity of the last-argument divided-difference map
  for a fixed knot tuple;
* ``definition`` - the alternating sign pattern of the difference between
  the target and its n-point interpolant.

The routes share bookkeeping, not quantities: theorem A, corollary 1 and
the definition route feed one certificate builder, which never certifies
when nothing was checked, and the definition route shares its sign-pattern
walker with :mod:`.support`.

Every verdict is certified-on-sample only: a grid check is necessary
evidence, never a proof on the continuum.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .determinants import (MIN_SEPARATION_FACTOR, check_points,
                           first_failing_window, function_row, minor_scan,
                           sign_of, window_sweep)
from .divdiff import gdd_scan
from .errors import ChebConvexError, NearSingularError, PreconditionError
from .interpolation import interpolate
from .sampling import DEFAULT_BUDGET, DEFAULT_SEED, ordered_index_tuples
from .systems import ChebyshevSystem, validate_grid

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8

#: Fraction of the span excluded around knots in sign-pattern checks.
KNOT_EXCLUSION_FACTOR = 1e-4

#: Points per theorem-2 scan batch; bounds the columns minor_scan caches.
THEOREM2_BATCH = 256

CERTIFIED = "certified-on-sample"
VIOLATED = "violated"


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sampled convexity verdict with the extremal quantity and its witness."""

    method: str
    verdict: str
    tuples_checked: int
    min_value: float
    witness: Optional[tuple[float, ...]]
    witness_value: Optional[float]
    atol: float
    rtol: float
    seed: Optional[int]
    skipped: int = 0
    linear_table: bool = False


@dataclass(frozen=True)
class MonotonicityReport:
    """Scan of the last-argument divided-difference map over a grid."""

    knots: tuple[float, ...]
    scan: tuple[tuple[float, float], ...]
    violations: tuple[tuple[tuple[float, float], tuple[float, float]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def require_positive(system: ChebyshevSystem, grid: Sequence[float],
                     cols: Sequence[Sequence[float]], truncation: bool) -> None:
    """Opportunistic positivity check over contiguous grid windows only, of
    the system and, with ``truncation``, of its first n-1 functions, from
    the basis columns at a validated grid and one :func:`window_sweep`. A
    failure reports the verdict of a window-only classification and its
    first failing window; the system's is raised first."""
    n = system.n
    checks = {n: ("system", system)}
    if truncation:
        checks[n - 1] = ("truncated system", system.truncate(n - 1))
    failures = {}
    for k, (dets, scales) in enumerate(window_sweep(cols, n), 1):
        if k in checks:
            first, fail = first_failing_window(cols, k, dets, scales)
            if fail is not None:
                failures[k] = f"non-chebyshev, witness {tuple(grid[fail:fail + k])}"
            elif first != "+":
                failures[k] = "negative, witness None"
    for k, (label, checked) in checks.items():
        if k in failures:
            raise PreconditionError(f"{label} {checked.describe()} is not positive "
                                    f"on the grid: verdict {failures[k]}")


def knot_exclusion(system: ChebyshevSystem) -> float:
    return KNOT_EXCLUSION_FACTOR * system.interval.tolerance_span


def interior_knots(system: ChebyshevSystem, knots) -> tuple[float, ...]:
    """Validate n-1 strictly increasing knots interior to the interval."""
    if system.n < 2:
        raise PreconditionError("knot-based constructions need a system of order >= 2")
    knots = check_points(system, knots, system.n - 1)
    if not all(a < b for a, b in zip(knots, knots[1:])):
        raise PreconditionError("knots must be strictly increasing")
    for k in knots:
        if not system.interval.interior_contains(k):
            raise PreconditionError(f"knot {k!r} is not interior to "
                                    f"{system.interval.describe()}")
    return knots


def pattern_sign(count: int, region: int) -> int:
    """Required sign of f - g in ``region`` (the number of nodes to its left)
    of the alternating pattern around ``count`` nodes: (-1)^(count + region),
    so the region right of the last node is nonnegative."""
    return -1 if (count + region) % 2 else 1


def sign_walk(f, nodes: Sequence[float], grid: Sequence[float],
              delta: float) -> Iterator[tuple[int, int, float]]:
    """Walk f over the grid for an alternating sign-pattern check of f
    minus a combination that interpolates it at the nodes.

    Yields ``(j, region, f(x))`` for each grid point x = grid[j] farther
    than ``delta`` from every node, in grid order; region is the number of
    nodes left of x. The difference vanishes at the nodes, where its sign
    is noise. f is evaluated once per point, the combination by the caller.
    """
    for j, x in enumerate(grid):
        if min(abs(x - k) for k in nodes) <= delta:
            continue
        yield j, bisect.bisect_left(nodes, x), f(x)


def _certificate(method: str, scored: Iterable[Optional[tuple]],
                 grid: Sequence[float], f, atol: float, rtol: float,
                 seed: Optional[int]) -> ConvexityCertificate:
    """Minimum, witness and verdict from ``(value, t, tol)`` items, where
    ``t`` holds grid indices and the item violates when value < -tol; None
    marks an item skipped as degenerate. Ties go to the lexicographically
    smallest ``t``, so the outcome does not depend on enumeration order.
    A scan that checked nothing raises instead of certifying.
    """
    best: Optional[tuple[float, tuple[int, ...]]] = None
    violated: Optional[tuple[float, tuple[int, ...]]] = None
    checked = skipped = 0
    for item in scored:
        if item is None:
            skipped += 1
            continue
        value, t, tol = item
        checked += 1
        key = (value, t)
        if best is None or key < best:
            best = key
        if value < -tol and (violated is None or key < violated):
            violated = key
    if best is None:
        if skipped:
            raise NearSingularError(f"{method}: every one of {skipped} windows "
                                    "degenerated; nothing was checked")
        raise PreconditionError(f"{method}: nothing was checked on this grid")
    witness = witness_value = None
    if violated is not None:
        witness_value, t = violated
        witness = tuple(grid[j] for j in t)
    return ConvexityCertificate(method, CERTIFIED if witness is None else VIOLATED,
                                checked, best[0], witness, witness_value,
                                atol, rtol, seed, skipped,
                                bool(getattr(f, "uses_linear_interpolation", False)))


def certify_theorem_a(system: ChebyshevSystem, f, grid: Sequence[float],
                      budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> ConvexityCertificate:
    """Certify via signs of the bordered determinant over ordered (n+1)-tuples.

    A tuple violates when its determinant falls below ``-(atol + rtol *
    scale)`` at that tuple's own scale.
    """
    n = system.n
    grid = validate_grid(system, grid, n + 1)
    cols = [system.evaluate_basis(x) for x in grid]
    require_positive(system, grid, cols, False)
    fvals = [f(x) for x in grid]
    # The certificate does not depend on the order of the tuples, so they are
    # scanned sorted, where neighbours share their elimination prefixes. The
    # first tuple is the first window in either order.
    tuples = sorted(ordered_index_tuples(len(grid), n + 1, budget=budget, seed=seed))
    bordered = minor_scan([c + (v,) for c, v in zip(cols, fvals)], tuples)
    scored = ((value, t, atol + rtol * scale)
              for t, (value, scale) in zip(tuples, bordered))
    return _certificate("theoremA", scored, grid, f, atol, rtol, seed)


def certify_corollary1(system: ChebyshevSystem, f, grid: Sequence[float],
                       budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED,
                       atol: float = DEFAULT_ATOL,
                       rtol: float = DEFAULT_RTOL) -> ConvexityCertificate:
    """Certify via the sliding-window divided-difference inequality.

    For each ordered (n+1)-tuple the divided difference of the upper window
    must not fall below the lower window's beyond tolerance. Windows whose
    collocation determinant degenerates are skipped and counted.
    """
    n = system.n
    grid = validate_grid(system, grid, n + 1)
    cols = [system.evaluate_basis(x) for x in grid]
    require_positive(system, grid, cols, n >= 2)
    fvals = [f(x) for x in grid]

    # Each distinct window is scanned once, in lexicographic order, so that
    # neighbouring windows share their elimination prefixes.
    tuples = ordered_index_tuples(len(grid), n + 1, budget=budget, seed=seed)
    windows = sorted({w for t in tuples for w in (t[:n], t[1:])})
    numerators = [c[:n - 1] + (v,) for c, v in zip(cols, fvals)]
    dd: dict[tuple[int, ...], Optional[float]] = {}
    for w, den, (num, _) in zip(windows, minor_scan(cols, windows),
                                minor_scan(numerators, windows)):
        dd[w] = None if sign_of(*den) == "0" else num / den[0]

    def scored():
        for t in tuples:
            lo, hi = dd[t[:n]], dd[t[1:]]
            if lo is None or hi is None:
                yield None
            else:
                yield hi - lo, t, atol + rtol * max(abs(hi), abs(lo))

    return _certificate("corollary1", scored(), grid, f, atol, rtol, seed)


def scan_theorem2(system: ChebyshevSystem, f, knots, grid: Sequence[float],
                  atol: float = DEFAULT_ATOL,
                  rtol: float = DEFAULT_RTOL) -> MonotonicityReport:
    """Scan x -> divided difference at (knots, x) and report monotonicity breaks.

    Knots must be strictly increasing interior points; grid points within
    the knot-exclusion distance are dropped from the scan, and a scan left
    without an adjacent pair raises. Each point's value, checks and errors
    are those of :func:`gdd` at the sorted points, from the same
    :func:`gdd_scan`, point by point in grid order; the basis and f are
    evaluated once at each knot and each scanned point. The points between
    two neighbouring knots (a segment) go through it in batches: their
    sorted tuples share the knots left of x as a prefix, so right of the
    last knot a determinant costs one pivot step.
    """
    n = system.n
    knots = interior_knots(system, knots)
    grid = validate_grid(system, grid, 1)
    delta = knot_exclusion(system)
    xs = [x for x in grid if min(abs(x - k) for k in knots) > delta]
    if len(xs) < 2:
        raise PreconditionError(f"theorem2: nothing was checked; {len(xs)} grid "
                                "point(s) clear the knot exclusion, a pair is needed")
    # The knots and the grid are validated once. A scanned point lies farther
    # than delta from every knot, and delta exceeds the minimum separation,
    # so every tuple passes the point checks of gdd.
    assert KNOT_EXCLUSION_FACTOR > MIN_SEPARATION_FACTOR
    kcols = [system.evaluate_basis(k) for k in knots]
    kvals = function_row(f, knots)
    scan: list[tuple[float, float]] = []
    for i in range(n):  # segment i: the points with i knots to their left
        end = bisect.bisect(xs, knots[i]) if i < n - 1 else len(xs)
        while len(scan) < end:
            batch = xs[len(scan):min(end, len(scan) + THEOREM2_BATCH)]
            # Vectors 0..n-2 are the knots', then the batch's points. An
            # evaluation error is raised after the points before it are scanned.
            cols, fvals, failed = list(kcols), list(kvals), None
            try:
                for x in batch:
                    cols.append(system.evaluate_basis(x))
                    fvals.append(function_row(f, (x,))[0])
            except ChebConvexError as exc:
                failed, cols = exc, cols[:len(fvals)]
            tuples = [(*range(i), j, *range(i, n - 1)) for j in range(n - 1, len(cols))]
            values = gdd_scan(knots + tuple(batch), cols, fvals, tuples,
                              [t[:n - 1] for t in tuples])
            scan.extend((x, value) for x, (value, _) in zip(batch, values))
            if failed is not None:
                raise failed
    violations = []
    for (x0, v0), (x1, v1) in zip(scan, scan[1:]):
        if v1 - v0 < -(atol + rtol * max(abs(v0), abs(v1))):
            violations.append(((x0, v0), (x1, v1)))
    return MonotonicityReport(knots, tuple(scan), tuple(violations))


def verify_definition(system: ChebyshevSystem, f, nodes, grid: Sequence[float],
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> ConvexityCertificate:
    """Check the alternating sign pattern of f minus its n-point interpolant.

    With nodes x_1 < ... < x_n the difference must satisfy, region by
    region (grid points within the knot-exclusion distance are skipped):
    sign (-1)^n left of x_1, then alternate across [x_i, x_(i+1)], ending
    nonnegative right of x_n. The minimum of the signed slack and its
    worst point are reported.
    """
    n = system.n
    nodes = check_points(system, nodes, n)
    if not all(a < b for a, b in zip(nodes, nodes[1:])):
        raise PreconditionError("nodes must be strictly increasing")
    grid = validate_grid(system, grid, 1)
    omega = interpolate(system, nodes, [f(x) for x in nodes])
    walk = sign_walk(f, nodes, grid, knot_exclusion(system))
    scored = ((pattern_sign(n, region) * (fx - omega(grid[j])), (j,),
               atol + rtol * abs(fx)) for j, region, fx in walk)
    return _certificate("definition", scored, grid, f, atol, rtol, None)
