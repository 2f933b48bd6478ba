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
from itertools import repeat
from operator import mul, sub, truediv
from typing import Callable, Iterable, Optional, Sequence

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
              delta: float) -> tuple[list[int], list[int]]:
    """The grid points kept by a check of f minus a combination that
    interpolates it at the sorted nodes: its sign pattern, or a ratio of it.

    Returns the indices j of the points x = grid[j] farther than ``delta``
    from every node, in grid order, and their regions: the number of nodes
    left of x. The difference vanishes at the nodes, where its sign is
    noise. A point is dropped when k - x <= delta for a node k >= x, or
    x - k <= delta for a node k < x. Float subtraction is monotone, so on
    each side of a node the dropped points of the sorted grid form one run,
    found by bisection, and the kept points come in runs of one region.
    """
    js: list[int] = []
    regions: list[int] = []
    start = 0
    for region, k in enumerate(nodes):
        mid = bisect.bisect_right(grid, k)
        stop = bisect.bisect_left(grid, True, start, mid, key=lambda x: k - x <= delta)
        js.extend(range(start, stop))
        regions.extend([region] * (stop - start))
        start = max(start, bisect.bisect_left(grid, True, mid, len(grid),
                                              key=lambda x: x - k > delta))
    js.extend(range(start, len(grid)))
    regions.extend([len(nodes)] * (len(grid) - start))
    return js, regions


def walk_values(system: ChebyshevSystem, f, grid: Sequence[float],
                walk: tuple[list[int], list[int]], bulk: Callable[..., Optional[list]],
                point: Callable[[int, int], object],
                cols: Optional[Sequence[Sequence[float]]] = None) -> list:
    """The items of a pointwise route at the :func:`sign_walk` points
    ``walk``: ``bulk(xs, fvals, rows)`` of their abscissae, f values and
    basis rows (``rows[i]`` holds basis function i at every point), all
    evaluated in bulk. The rows come from ``cols``, the basis columns at the
    grid, or else from :meth:`ChebyshevSystem.evaluate_grid`, and f is taken
    past ``FunctionSource.__call__`` and its per-point checks.

    When an evaluation raises, an f value is not finite, or ``bulk``
    returns None because one of its zero tests fired, the items are
    ``point(j, region)`` at each point in grid order instead: the route's
    loop, which evaluates f and the basis one point at a time and raises
    the first failing point's error.
    """
    js, regions = walk
    try:
        xs = list(map(grid.__getitem__, js))
        fvals = list(map(getattr(f, "_eval", f), xs))
        if all(map(math.isfinite, fvals)):
            kept = system.evaluate_grid(xs) if cols is None else map(cols.__getitem__, js)
            items = bulk(xs, fvals, list(zip(*kept)) or [()] * system.n)
            if items is not None:
                return items
    except Exception:  # raised again by the loop below, at its point
        pass
    return list(map(point, js, regions))


def _zero_tested(det: float, values: Iterable[float], bounds: Sequence[float],
                 absrows: Sequence[Sequence[float]]) -> bool:
    """Whether ``det`` times any of ``values`` fails :func:`sign_of`'s zero
    test at its point's scale: the product over the basis functions i of
    ``max(bounds[i], absrows[i][j])``, multiplied in order, as ``math.prod``
    does at one point."""
    scales = [*map(max, repeat(bounds[0]), absrows[0])]
    for bound, row in zip(bounds[1:], absrows[1:]):
        scales = map(mul, scales, map(max, repeat(bound), row))
    return "0" in map(sign_of, map(mul, repeat(det), values), scales)


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
    heads = [c[:n - 1] for c in kcols]
    try:
        p, det = solve_with_det(heads, function_row(f, knots))
    except NearSingularError:
        det = None
    # minor_scan's row max-norms over the knots, and over the first n-1
    # functions at all knots but the last: a point's head left of it.
    kmax = [max(map(abs, v)) for v in zip(*kcols)]
    hmax = [max((abs(c[i]) for c in kcols[:-1]), default=0.0) for i in range(n - 1)]
    if det is None or sign_of(det.value, math.prod(kmax[:n - 1])) == "0":
        raise degenerated("truncated", knots)
    # The same matrix again, so these solves pass the same zero test.
    q, _ = solve_with_det(heads, [c[n - 1] for c in kcols])
    lagrange, _ = solve_with_det(heads, [0.0] * (n - 2) + [1.0])
    truncated = system.truncate(n - 1)
    p, q, lagrange = (OmegaCombination(truncated, tuple(c)) for c in (p, q, lagrange))
    walk = sign_walk(knots, grid, knot_exclusion(system))

    def bulk(xs, fvals, rows):
        rs = [*map(sub, rows[n - 1], q.at_rows(rows))]
        absrows = [[*map(abs, row)] for row in rows]
        # The points left of the last knot come first.
        head = bisect.bisect_left(walk[1], n - 1)
        if _zero_tested(det.value, rs, kmax, absrows) or _zero_tested(
                det.value, lagrange.at_rows([row[:head] for row in rows]), hmax,
                [row[:head] for row in absrows]):
            return None
        return list(zip(xs, map(truediv, map(sub, fvals, p.at_rows(rows)), rs)))

    def point(j, region):
        x = grid[j]
        fx = function_row(f, (x,))[0]
        col = system.evaluate_basis(x)
        absc = [*map(abs, col)]
        r = col[n - 1] - q.at_column(col)
        if sign_of(det.value * r, math.prod(map(max, kmax, absc))) == "0":
            raise degenerated("full", sorted(knots + (x,)))
        if region < n - 1 and sign_of(det.value * lagrange.at_column(col),
                                      math.prod(map(max, hmax, absc))) == "0":
            raise degenerated("truncated", sorted(knots[:-1] + (x,)))
        return x, (fx - p.at_column(col)) / r

    scan = walk_values(system, f, grid, walk, bulk, point)
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

    walk = sign_walk(nodes, grid, knot_exclusion(system))

    def bulk(xs, fvals, rows):
        signs = map(pattern_sign, repeat(n), walk[1])
        return list(zip(map(mul, signs, map(sub, fvals, omega.at_rows(rows))),
                        zip(walk[0]), [atol + rtol * abs(fx) for fx in fvals]))

    def point(j, region):
        fx = f(grid[j])
        if not math.isfinite(fx):
            raise _not_finite(grid[j], fx)
        ox = omega.at_column(system.evaluate_basis(grid[j]))
        return pattern_sign(n, region) * (fx - ox), (j,), atol + rtol * abs(fx)

    return _certificate("definition", walk_values(system, f, grid, walk, bulk, point),
                        grid, f, atol, rtol, None)
