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
  for a fixed knot tuple, in the interpolation form of Lemma 1;
* ``definition`` - the alternating sign pattern of the difference between
  the target and its n-point interpolant.

The routes share bookkeeping, not quantities: theorem A, corollary 1 and
the definition route feed one certificate builder, which never certifies
when nothing was checked, and theorem 2, the definition route and
:mod:`.support` walk the grid with one sign-pattern walker. Past the
budget, theorem A and corollary 1 scan the contiguous windows alone when
Fekete's criterion gives every tuple the bordered windows' common sign
and that sign decides the verdict: "+", or "-" with the worst window a
violation (:mod:`.sampling`).

Every verdict is certified-on-sample only: a grid check is necessary
evidence, never a proof on the continuum.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .determinants import (Windows, check_points, exact_sign, function_row,
                           known_scan, minor_scan, sign_of, solve_with_det)
from .divdiff import degenerated
from .errors import NearSingularError, PreconditionError, SourceEvalError
from .interpolation import OmegaCombination, interpolate
from .sampling import DEFAULT_BUDGET, DEFAULT_SEED, ordered_index_tuples, scan_tuples
from .systems import ChebyshevSystem, validate_grid

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8

#: Fraction of the span excluded around knots in sign-pattern checks.
KNOT_EXCLUSION_FACTOR = 1e-4

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
    #: 'exhaustive' | 'windows' | 'sampled' for tuple scans (see
    #: :mod:`.sampling`), None for the definition route.
    coverage: Optional[str] = None


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
                     cols: Sequence[Sequence[float]], truncation: bool) -> Windows:
    """Opportunistic positivity check over contiguous grid windows only, of
    the system and, with ``truncation``, of its first n-1 functions, from
    the basis columns at a validated grid and one :func:`window_sweep`.
    It returns the :class:`Windows` it decided them with. A failure reports
    the verdict of a window-only classification and its first failing
    window; the system's is raised first."""
    n = system.n
    checks = {n: ("system", system)}
    if truncation:
        checks[n - 1] = ("truncated system", system.truncate(n - 1))
    windows = Windows(cols, n)
    failures = {}
    for k in checks:
        first, fail = windows.first_failing(k)
        if fail is not None:
            failures[k] = f"non-chebyshev, witness {tuple(grid[fail:fail + k])}"
        elif first != "+":
            failures[k] = "negative, witness None"
    for k, (label, checked) in checks.items():
        if k in failures:
            raise PreconditionError(f"{label} {checked.describe()} is not positive "
                                    f"on the grid: verdict {failures[k]}")
    return windows


def bordered_window_minors(bordered: Sequence[Sequence[float]], windows: Windows
                           ) -> Optional[tuple[str, list[tuple[float, float]]]]:
    """The common nonzero sign of the bordered windows of n+1 points and
    their :func:`minor_scan` minors, in order, when Fekete's criterion gives
    every bordered (n+1)-tuple that sign, else None. The criterion holds
    when the basis windows of every order k <= n keep one nonzero sign
    (``windows``, over the first n entries of ``bordered``) and every
    bordered window has one sign: by :func:`sign_of`, or, where the zero
    test leaves it "0", by the :func:`exact_sign` of its evaluated floats.
    A window with a NaN minor, a non-finite entry or an exactly singular
    one has no sign."""
    if not windows.keep_sign():
        return None
    k = windows.n + 1
    common, minors = None, []
    for i, minor in enumerate(minor_scan(bordered, ordered_index_tuples(
            len(bordered), k, windows_only=True))):
        sign = sign_of(*minor)
        if sign == "0":
            sign = {1: "+", -1: "-"}.get(exact_sign(bordered[i:i + k]))
        if sign is None or math.isnan(minor[0]) or sign != (common or sign):
            return None
        common = sign
        minors.append(minor)
    return common, minors


def _windows_route(bordered: Sequence[Sequence[float]], windows: Windows,
                   certificate: Callable[[list, list], ConvexityCertificate]
                   ) -> tuple[Optional[ConvexityCertificate], dict]:
    """``certificate(tuples, minors)`` of the bordered windows of n+1 points
    alone, given their minors, when it decides the scan, else None; and
    those minors by window index tuple, empty when the windows have no
    common sign. It decides when the windows' common sign
    (:func:`bordered_window_minors`) is "+", so every tuple certifies, or
    "-" and the worst window violates, so that the verdict rests on a
    checked tuple that clears its band."""
    decided = bordered_window_minors(bordered, windows)
    if decided is None:
        return None, {}
    sign, minors = decided
    tuples = ordered_index_tuples(len(bordered), windows.n + 1, windows_only=True)
    cert = certificate(tuples, minors)
    routed = sign == "+" or cert.min_value == cert.witness_value
    return cert if routed else None, dict(zip(tuples, minors))


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


def sign_walk(nodes: Sequence[float], grid: Sequence[float],
              delta: float) -> Iterator[tuple[int, int]]:
    """The grid points kept by a check of f minus a combination that
    interpolates it at the sorted nodes: its sign pattern, or a ratio of it.

    Yields ``(j, region)`` for each grid point x = grid[j] farther than
    ``delta`` from every node, in grid order; region is the number of nodes
    left of x. The difference vanishes at the nodes, where its sign is
    noise. Only the two nodes around x, found by bisection, can be the
    nearest, so only they are tested. The caller evaluates f and the
    combination at the kept points.
    """
    count = len(nodes)
    for j, x in enumerate(grid):
        i = bisect.bisect_left(nodes, x)
        if (i and x - nodes[i - 1] <= delta) or (i < count and nodes[i] - x <= delta):
            continue
        yield j, i


def _walked_columns(system: ChebyshevSystem, grid: Sequence[float],
                    kept: Sequence[tuple[int, int]]) -> Iterator[tuple[float, ...]]:
    """The basis columns at the :func:`sign_walk` points ``kept``, in walk
    order, evaluated in bulk up front. When that raises, they are evaluated
    one point at a time instead, so that the error comes when the walk
    reaches its point: after f and the checks at every earlier point."""
    xs = [grid[j] for j, _ in kept]
    try:
        return iter(system.evaluate_grid(xs))
    except Exception:  # raised again at its point
        return map(system.evaluate_basis, xs)


def _target_values(f, xs: Sequence[float]) -> list[float]:
    """f at each of ``xs``. A value that is not finite raises
    :class:`SourceEvalError` naming its point, as sources do themselves."""
    values = [f(x) for x in xs]
    if not all(map(math.isfinite, values)):
        raise _not_finite(*next((x, v) for x, v in zip(xs, values)
                                if not math.isfinite(v)))
    return values


def _not_finite(x: float, value: float) -> SourceEvalError:
    return SourceEvalError(f"target function returned {value!r} at x={x!r}")


def _certificate(method: str, scored: Iterable[Optional[tuple]],
                 grid: Sequence[float], f, atol: float, rtol: float,
                 seed: Optional[int],
                 coverage: Optional[str] = None) -> ConvexityCertificate:
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
                                bool(getattr(f, "uses_linear_interpolation", False)),
                                coverage)


def certify_theorem_a(system: ChebyshevSystem, f, grid: Sequence[float],
                      budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> ConvexityCertificate:
    """Certify via signs of the bordered determinant over ordered (n+1)-tuples.

    A tuple violates when its determinant falls below ``-(atol + rtol *
    scale)`` at that tuple's own scale. Past the budget, the windows alone
    are scanned when they decide every tuple (:func:`_windows_route`).
    """
    n = system.n
    grid = validate_grid(system, grid, n + 1)
    cols = system.evaluate_grid(grid)
    windows = require_positive(system, grid, cols, False)
    bordered = [c + (v,) for c, v in zip(cols, _target_values(f, grid))]

    def certificate(tuples, minors, coverage="windows") -> ConvexityCertificate:
        scored = ((value, t, atol + rtol * scale)
                  for t, (value, scale) in zip(tuples, minors))
        return _certificate("theoremA", scored, grid, f, atol, rtol, seed, coverage)

    routed, known = None, {}

    def windows_decide() -> bool:
        nonlocal routed, known
        routed, known = _windows_route(bordered, windows, certificate)
        return routed is not None

    tuples, coverage = scan_tuples(len(grid), n + 1, budget, seed, windows_decide)
    if routed is not None:
        return routed
    # The certificate does not depend on the order of the tuples, so they are
    # scanned sorted, where neighbours share their elimination prefixes; the
    # windows that a turned-down route computed are not computed again.
    tuples.sort()
    return certificate(tuples, known_scan(bordered, tuples, known), coverage)


def certify_corollary1(system: ChebyshevSystem, f, grid: Sequence[float],
                       budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED,
                       atol: float = DEFAULT_ATOL,
                       rtol: float = DEFAULT_RTOL) -> ConvexityCertificate:
    """Certify via the sliding-window divided-difference inequality.

    For each ordered (n+1)-tuple the divided difference of the upper window
    must not fall below the lower window's beyond tolerance. Windows whose
    collocation determinant degenerates are skipped and counted. Past the
    budget, the (n+1)-point windows alone are scanned when they decide
    every tuple (:func:`_windows_route`).
    """
    n = system.n
    grid = validate_grid(system, grid, n + 1)
    cols = system.evaluate_grid(grid)
    windows = require_positive(system, grid, cols, n >= 2)
    fvals = _target_values(f, grid)
    numerators = [c[:n - 1] + (v,) for c, v in zip(cols, fvals)]
    dd: dict[tuple[int, ...], Optional[float]] = {}

    def certificate(tuples, coverage="windows") -> ConvexityCertificate:
        # Each window not scored yet is scanned once, in lexicographic order,
        # so that neighbouring windows share their elimination prefixes; the
        # denominators of the contiguous ones are often the precheck's.
        ws = sorted({w for t in tuples for w in (t[:n], t[1:])}.difference(dd))
        for w, den, (num, _) in zip(ws, known_scan(cols, ws, windows.minors),
                                     minor_scan(numerators, ws)):
            dd[w] = None if sign_of(*den) == "0" else num / den[0]

        def scored():
            for t in tuples:
                lo, hi = dd[t[:n]], dd[t[1:]]
                if lo is None or hi is None:
                    yield None
                else:
                    yield hi - lo, t, atol + rtol * max(abs(hi), abs(lo))

        return _certificate("corollary1", scored(), grid, f, atol, rtol, seed, coverage)

    routed = None

    def windows_decide() -> bool:
        nonlocal routed
        routed = _windows_route([c + (v,) for c, v in zip(cols, fvals)], windows,
                                lambda tuples, _: certificate(tuples))[0]
        return routed is not None

    tuples, coverage = scan_tuples(len(grid), n + 1, budget, seed, windows_decide)
    return certificate(tuples, coverage) if routed is None else routed


def scan_theorem2(system: ChebyshevSystem, f, knots, grid: Sequence[float],
                  atol: float = DEFAULT_ATOL,
                  rtol: float = DEFAULT_RTOL) -> MonotonicityReport:
    """Scan x -> divided difference at (knots, x) and report monotonicity breaks.

    Knots must be strictly increasing interior points; :func:`sign_walk`
    walks the grid clear of them, and a scan without an adjacent pair
    raises. By Lemma 1 the value at x is (f - p)(x) / (u_n - q)(x), where p
    and q interpolate f and the last basis function u_n at the knots by the
    first n-1 functions, solved for once. The zero tests of :func:`gdd`
    stand, with its scale and messages: on the truncated determinant V at
    the knots first, then point by point on the full one, V (u_n - q)(x),
    and left of the last knot on the truncated one at the n-1 smallest
    points, V l(x), for l = 1 at the last knot and 0 at the others.
    """
    n = system.n
    knots = interior_knots(system, knots)
    grid = validate_grid(system, grid, 1)
    kcols = [system.evaluate_basis(k) for k in knots]
    rows = [c[:n - 1] for c in kcols]
    try:
        p, det = solve_with_det(rows, function_row(f, knots))
    except NearSingularError:
        det = None
    # minor_scan's row max-norms over the knots, and over the first n-1
    # functions at all knots but the last: a point's head left of it.
    kmax = [max(map(abs, v)) for v in zip(*kcols)]
    hmax = [max((abs(c[i]) for c in kcols[:-1]), default=0.0) for i in range(n - 1)]
    if det is None or sign_of(det.value, math.prod(kmax[:n - 1])) == "0":
        raise degenerated("truncated", knots)
    # The same matrix again, so these solves pass the same zero test.
    q, _ = solve_with_det(rows, [c[n - 1] for c in kcols])
    lagrange, _ = solve_with_det(rows, [0.0] * (n - 2) + [1.0])
    truncated = system.truncate(n - 1)
    p, q, lagrange = (OmegaCombination(truncated, tuple(c)).at_column
                      for c in (p, q, lagrange))
    scan: list[tuple[float, float]] = []
    kept = list(sign_walk(knots, grid, knot_exclusion(system)))
    cols = _walked_columns(system, grid, kept)
    for j, region in kept:
        x = grid[j]
        fx = function_row(f, (x,))[0]
        col = next(cols)
        absc = [*map(abs, col)]
        r = col[n - 1] - q(col)
        if sign_of(det.value * r, math.prod(map(max, kmax, absc))) == "0":
            raise degenerated("full", sorted(knots + (x,)))
        if region < n - 1 and sign_of(det.value * lagrange(col),
                                      math.prod(map(max, hmax, absc))) == "0":
            raise degenerated("truncated", sorted(knots[:-1] + (x,)))
        scan.append((x, (fx - p(col)) / r))
    if len(scan) < 2:
        raise PreconditionError(f"theorem2: nothing was checked; {len(scan)} grid "
                                "point(s) clear the knot exclusion, a pair is needed")
    violations = tuple(((x0, v0), (x1, v1)) for (x0, v0), (x1, v1) in zip(scan, scan[1:])
                       if v1 - v0 < -(atol + rtol * max(abs(v0), abs(v1))))
    return MonotonicityReport(knots, tuple(scan), violations)


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
    omega = interpolate(system, nodes, _target_values(f, nodes))

    def scored():
        kept = list(sign_walk(nodes, grid, knot_exclusion(system)))
        cols = _walked_columns(system, grid, kept)
        for j, region in kept:
            fx = f(grid[j])
            if not math.isfinite(fx):
                raise _not_finite(grid[j], fx)
            ox = omega.at_column(next(cols))
            yield pattern_sign(n, region) * (fx - ox), (j,), atol + rtol * abs(fx)

    return _certificate("definition", scored(), grid, f, atol, rtol, None)
