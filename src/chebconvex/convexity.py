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
from functools import partial
from itertools import repeat
from operator import add, le, mul, not_, or_, sub, truediv
from typing import Callable, Iterable, Optional, Sequence

from .determinants import (TAU_FACTOR, ScaleBound, Windows, check_points, exact_sign,
                           minor_scan, sign_of, solve_with_det)
from .divdiff import degenerated
from .errors import DomainError, NearSingularError, PreconditionError
from .functions import function_row
from .interpolation import OmegaCombination, interpolate
from .sampling import DEFAULT_BUDGET, DEFAULT_SEED, ordered_index_tuples, scan_tuples
from .systems import ChebyshevSystem, structural_sign, validate_grid

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
    """The positivity hypothesis of theorem A, corollary 1 and the support
    construction, for the system and, with ``truncation``, its first n-1
    functions, the system's failure first: from :func:`structural_sign`
    when it decides all of them, else by a window-only classification of
    the basis columns ``cols`` at the validated grid. Returns their
    :class:`Windows`, which sweep only when a window search first asks."""
    windows = Windows(cols, system.n)
    checked = (system, system.truncate(system.n - 1)) if truncation else (system,)
    signs = [*map(structural_sign, checked)]
    for label, part, sign in zip(("system", "truncated system"), checked, signs):
        _refuse(label, part, grid, *((sign, None) if None not in signs
                                     else windows.first_failing(part.n)))
    return windows


def _refuse(label: str, part: ChebyshevSystem, grid: Sequence[float],
            first: Optional[str], fail: Optional[int]) -> None:
    """Raise that ``part`` is not positive on the grid unless its first
    window's sign ``first`` is "+" and no window (index ``fail``) fails."""
    if fail is not None or first != "+":
        verdict = ("negative, witness None" if fail is None
                   else f"non-chebyshev, witness {tuple(grid[fail:fail + part.n])}")
        raise PreconditionError(f"{label} {part.describe()} is not positive "
                                f"on the grid: verdict {verdict}")


def bordered_window_minors(bordered: Sequence[Sequence[float]], windows: Windows
                           ) -> Optional[tuple[str, list, list]]:
    """The common nonzero sign of the bordered windows of n+1 points, their
    index tuples and their :func:`minor_scan` determinants, in order, when
    Fekete's criterion gives every bordered (n+1)-tuple that sign, else
    None. The criterion holds when the basis windows of every order k <= n
    keep one nonzero sign (``windows``, over the first n entries of
    ``bordered``) and every bordered window has one sign: by
    :func:`sign_of`, or, where the zero test leaves it "0", by the
    :func:`exact_sign` of its evaluated floats. A window with a NaN minor,
    a non-finite entry or an exactly singular one has no sign."""
    if not windows.keep_sign():
        return None
    k = windows.n + 1
    tuples = ordered_index_tuples(len(bordered), k, windows_only=True)
    bound, common, dets = ScaleBound(bordered), None, []
    for t, det in zip(tuples, minor_scan(bordered, tuples)):
        sign = bound.sign(det, t)
        if sign == "0":
            sign = {1: "+", -1: "-"}.get(exact_sign(bordered[t[0]:t[0] + k]))
        if sign is None or math.isnan(det) or sign != (common or sign):
            return None
        common = sign
        dets.append(det)
    return common, tuples, dets


def _windows_route(bordered: Sequence[Sequence[float]], windows: Windows,
                   certificate: Callable[[list, list], ConvexityCertificate]
                   ) -> Optional[ConvexityCertificate]:
    """``certificate(tuples, dets)`` of the bordered windows of n+1 points
    alone, given their determinants, when it decides the scan, else None.
    It decides when the windows' common sign (:func:`bordered_window_minors`)
    is "+", so every tuple certifies, or "-" and the worst window violates,
    so that the verdict rests on a checked tuple that clears its band."""
    decided = bordered_window_minors(bordered, windows)
    if decided is None:
        return None
    sign, tuples, dets = decided
    cert = certificate(tuples, dets)
    return cert if sign == "+" or cert.min_value == cert.witness_value else None


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


def pattern_signs(count: int) -> list[int]:
    """Required sign of f - g in each region (the number of nodes to its
    left, 0 to ``count``) of the alternating pattern around ``count``
    nodes: (-1)^(count + region), so the region right of the last node is
    nonnegative."""
    return [-1 if (count + region) % 2 else 1 for region in range(count + 1)]


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
                walk: tuple[list[int], list[int]], route: Callable[..., list]) -> list:
    """The items of a pointwise route at the :func:`sign_walk` points
    ``walk``: ``route(js, regions, xs, fvals, rows)`` of their grid indices,
    regions, abscissae, f values and basis rows (``rows[i]`` holds basis
    function i at every point). The route runs once over all the points,
    evaluated in bulk: the rows by :meth:`ChebyshevSystem.evaluate_rows`,
    and f by :func:`function_row`.

    When an evaluation raises, an f value is not finite, or the route
    raises, it runs once per point in grid order instead, on f from
    :func:`function_row` and the basis at that point alone, so the first
    failing point's error is raised.
    """
    js, regions = walk
    xs = list(map(grid.__getitem__, js))
    try:
        return route(js, regions, xs, function_row(f, xs), system.evaluate_rows(xs))
    except Exception:  # raised again below, at its point
        pass
    items = []
    for j, region, x in zip(js, regions, xs):
        fx = function_row(f, (x,))
        items += route((j,), (region,), (x,), fx, list(zip(system.evaluate_basis(x))))
    return items


def _zero_tested(det: float, values: Iterable[float], bounds: Sequence[float],
                 rows: Sequence[Sequence[float]]) -> Optional[int]:
    """The index of the first point where ``det`` times its entry of
    ``values`` fails :func:`sign_of`'s zero test at that point's scale, or
    None: the product over the basis functions i of ``max(bounds[i],
    abs(rows[i][j]))``, multiplied in order, as ``math.prod`` does at one
    point. The test is sign_of's, mapped over the points: a product that
    is 0, or whose magnitude is at most ``TAU_FACTOR`` times the scale; a
    NaN product passes."""
    products = [*map(mul, repeat(det), values)]
    scales = [*map(max, repeat(bounds[0]), map(abs, rows[0]))]
    for bound, row in zip(bounds[1:], rows[1:]):
        scales = map(mul, scales, map(max, repeat(bound), map(abs, row)))
    zero = [*map(or_, map(not_, products),
                 map(le, map(abs, products), map(mul, repeat(TAU_FACTOR), scales)))]
    return zero.index(True) if True in zero else None


def _certificate(method: str, scored: Iterable[Optional[tuple]],
                 grid: Sequence[float], f, atol: float, rtol: float,
                 seed: Optional[int],
                 coverage: Optional[str] = None) -> ConvexityCertificate:
    """Minimum, witness and verdict from ``(value, t, tol)`` items, where
    ``t`` holds grid indices and the item violates when value < -tol; None
    marks an item skipped as degenerate. Ties go to the lexicographically
    smallest ``t``, so the outcome does not depend on enumeration order.
    A scan that checked nothing raises instead of certifying, and so does
    an item whose value or tolerance is not finite, which no comparison
    with the other can decide: :class:`DomainError`, naming its points.
    """
    best: Optional[tuple[float, tuple[int, ...]]] = None
    violated: Optional[tuple[float, tuple[int, ...]]] = None
    checked = skipped = 0
    for item in scored:
        if item is None:
            skipped += 1
            continue
        value, t, tol = item
        if not (math.isfinite(value) and math.isfinite(tol)):
            raise DomainError(f"{method}: value {value!r} with tolerance {tol!r} at "
                              f"{tuple(grid[j] for j in t)} is not finite")
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
                      *, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL) -> ConvexityCertificate:
    """Certify via signs of the bordered determinant over ordered (n+1)-tuples.

    A tuple violates when its determinant falls below ``-(atol + rtol *
    scale)`` at that tuple's own scale. That scale is computed only where
    the value or the band at the scan's :class:`ScaleBound` is not finite,
    or the bands at 0 and at the bound disagree. Past the budget, the
    windows alone are scanned when they decide every tuple
    (:func:`_windows_route`).
    """
    n = system.n
    grid = validate_grid(system, grid, n + 1)
    cols = system.evaluate_grid(grid)
    windows = require_positive(system, grid, cols, False)
    bordered = [c + (v,) for c, v in zip(cols, function_row(f, grid))]
    bound = ScaleBound(bordered)
    lo, hi = atol + rtol * 0.0, atol + rtol * bound.bound

    def scored(tuples, dets):
        for t, value in zip(tuples, dets):
            if (math.isfinite(hi) and math.isfinite(value)
                    and (value < -lo) == (value < -hi)):
                yield value, t, hi
            else:
                yield value, t, atol + rtol * bound.scale(t)

    def certificate(tuples, dets, coverage="windows") -> ConvexityCertificate:
        return _certificate("theoremA", scored(tuples, dets), grid, f, atol, rtol, seed,
                            coverage)

    tuples, coverage, routed = scan_tuples(len(grid), n + 1, budget, seed, partial(
        _windows_route, bordered, windows, certificate))
    if routed:
        return routed
    # The certificate does not depend on the order of the tuples, so they are
    # scanned sorted, where neighbours share their elimination prefixes.
    tuples.sort()
    cert = certificate(tuples, minor_scan(bordered, tuples), coverage)
    if cert.witness is None and cert.min_value <= 0.0:
        # Floats can collapse where the structure decides (exp(1e-300 x) is 1.0
        # everywhere): every tuple reads 0, so the windows must be exactly positive.
        _refuse("system", system, grid, "+", next((
            i for i in range(len(grid) - n + 1) if exact_sign(cols[i:i + n]) != 1), None))
    return cert


def certify_corollary1(system: ChebyshevSystem, f, grid: Sequence[float],
                       *, budget: int = DEFAULT_BUDGET, seed: int = DEFAULT_SEED,
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
    fvals = function_row(f, grid)
    numerators = [c[:n - 1] + (v,) for c, v in zip(cols, fvals)]
    bound = ScaleBound(cols)
    dd: dict[tuple[int, ...], Optional[float]] = {}

    def certificate(tuples, coverage="windows") -> ConvexityCertificate:
        # Each window not scored yet is scanned once, in lexicographic order,
        # so that neighbouring windows share their elimination prefixes.
        ws = sorted({w for t in tuples for w in (t[:n], t[1:])}.difference(dd))
        for w, den, num in zip(ws, minor_scan(cols, ws), minor_scan(numerators, ws)):
            dd[w] = None if bound.sign(den, w) == "0" else num / den

        def scored():
            for t in tuples:
                lo, hi = dd[t[:n]], dd[t[1:]]
                if lo is None or hi is None:
                    yield None
                else:
                    yield hi - lo, t, atol + rtol * max(abs(hi), abs(lo))

        return _certificate("corollary1", scored(), grid, f, atol, rtol, seed, coverage)

    tuples, coverage, routed = scan_tuples(len(grid), n + 1, budget, seed, partial(
        _windows_route, [c + (v,) for c, v in zip(cols, fvals)], windows,
        lambda tuples, _: certificate(tuples)))
    return routed or certificate(tuples, coverage)


def scan_theorem2(system: ChebyshevSystem, f, knots, grid: Sequence[float],
                  *, atol: float = DEFAULT_ATOL,
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
    points, V l(x), for l = 1 at the last knot and 0 at the others. A value
    that is not finite raises :class:`DomainError` naming its point: no
    step from or to it could be tested.
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
    # det_and_scale's row max-norms over the knots, and over the first n-1
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

    def route(js, regions, xs, fvals, rows):
        rs = [*map(sub, rows[n - 1], q.at_rows(rows, xs))]
        i = _zero_tested(det.value, rs, kmax, rows)
        if i is not None:
            raise degenerated("full", sorted(knots + (xs[i],)))
        # The points left of the last knot come first.
        head = bisect.bisect_left(regions, n - 1)
        left = [row[:head] for row in rows]
        i = _zero_tested(det.value, lagrange.at_rows(left, xs), hmax, left)
        if i is not None:
            raise degenerated("truncated", sorted(knots[:-1] + (xs[i],)))
        values = [*map(truediv, map(sub, fvals, p.at_rows(rows, xs)), rs)]
        if not all(map(math.isfinite, values)):
            x, v = next((x, v) for x, v in zip(xs, values) if not math.isfinite(v))
            raise DomainError(f"theorem2: value {v!r} is not finite at x={x!r}")
        return list(zip(xs, values))

    scan = walk_values(system, f, grid, walk, route)
    if len(scan) < 2:
        raise PreconditionError(f"theorem2: nothing was checked; {len(scan)} grid "
                                "point(s) clear the knot exclusion, a pair is needed")
    violations = tuple(((x0, v0), (x1, v1)) for (x0, v0), (x1, v1) in zip(scan, scan[1:])
                       if v1 - v0 < -(atol + rtol * max(abs(v0), abs(v1))))
    return MonotonicityReport(knots, tuple(scan), violations)


def verify_definition(system: ChebyshevSystem, f, nodes, grid: Sequence[float],
                      *, atol: float = DEFAULT_ATOL,
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
    omega = interpolate(system, nodes, function_row(f, nodes))

    walk = sign_walk(nodes, grid, knot_exclusion(system))
    signs = pattern_signs(n)

    def route(js, regions, xs, fvals, rows):
        slacks = map(mul, map(signs.__getitem__, regions),
                     map(sub, fvals, omega.at_rows(rows, xs)))
        tolerances = map(add, repeat(atol), map(mul, repeat(rtol), map(abs, fvals)))
        return list(zip(slacks, zip(js), tolerances))

    return _certificate("definition", walk_values(system, f, grid, walk, route),
                        grid, f, atol, rtol, None)
