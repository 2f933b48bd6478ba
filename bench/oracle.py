"""Expected outcomes of benchmark requests, computed without the package.

Nothing here imports ``chebconvex``. Every expectation comes from
construction or from a closed form evaluated in this module:

* Vandermonde systems ``poly:n`` are positive on increasing points, and
  ``negpoly:n`` has the sign (-1)^n;
* ``exp:0,1,...,n-1`` is the Vandermonde system in y = e^x, so it is
  positive and its determinants are products of differences of the y_j;
* ``x^n`` and ``e^(a x)`` with a > 0 are convex with respect to ``poly:n``,
  and ``-x^n`` is not;
* for ``poly:n`` the generalized divided difference is the classical one,
  which is evaluated here by the recurrence in exact
  :class:`fractions.Fraction` arithmetic; for f = x^n it is the sum of the
  points, so the support coefficient is c_n = sum(knots) + last knot.

A check takes the parsed output of one request and returns the list of
problems it found; an empty list means the output agrees with the oracle.
"""

from __future__ import annotations

import ast
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

EPS = sys.float_info.epsilon

#: The package documents its zero test as |det| <= 64 * eps * scale, with
#: ``scale`` the product of the row max-norms.
ZERO_TEST = 64.0 * EPS

#: Windows whose exact |det| / scale lies within this factor of the zero
#: test are in the region of the package's zero-test defect: the test calls
#: Vandermonde windows of fine grids singular, so classify says
#: non-chebyshev and certify and support exit 1 on the positivity precheck.
#: Workload grids stay outside the region (see ``in_defect_region``).
DEFECT_MARGIN = 4.0

#: Fraction of the interval span the package excludes around knots/nodes.
KNOT_EXCLUSION = 1e-4

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Expect:
    """Exit code and output check of one request."""

    code: int
    check: Optional[Check] = None


def judge(expect: Expect, fmt: str, code: int, text: str, err: str) -> Optional[str]:
    """Compare one outcome with its expectation: None when it agrees,
    otherwise what disagreed."""
    problems = []
    if code != expect.code:
        problems.append(f"exit {code}, expected {expect.code}: {err.strip()[:200]}")
    elif code in (0, 2):
        try:
            doc = parse_output(fmt, text)
            if expect.check is not None:
                problems.extend(expect.check(doc))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems.append(f"unexpected output: {type(exc).__name__}: {exc}")
    return "; ".join(problems) or None


# ---------------------------------------------------------------------------
# Output parsing

def parse_output(fmt: str, text: str) -> dict:
    """Flatten a report into ``{"a.b.c": value}``; columns go under ``rows``."""
    if fmt == "columns":
        lines = text.splitlines()
        if not lines or lines[0].split() != ["x", "f", "omega", "diff", "segment"]:
            raise ValueError("missing columns header")
        return {"rows": [[float(c) for c in line.split()] for line in lines[1:]]}
    if fmt == "structured":
        flat: dict = {}
        _flatten(json.loads(text), "", flat)
        return flat
    flat = {}
    for line in text.splitlines():
        key, sep, raw = line.partition(": ")
        if not sep:
            raise ValueError(f"unparsable human line {line!r}")
        try:
            flat[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            flat[key] = raw
    return flat


def _flatten(value, prefix: str, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(sub, f"{prefix}.{key}" if prefix else key, out)
    else:
        out[prefix] = value


# ---------------------------------------------------------------------------
# Closed forms

def uniform_grid(lo: float, hi: float, m: int) -> list[float]:
    """The package's documented uniform grid: lo + i * step, ending at hi."""
    step = (hi - lo) / (m - 1)
    return [lo + i * step for i in range(m - 1)] + [hi]


def vandermonde(ys: Sequence) -> Fraction:
    """det[y_j^i] for increasing y: the product of all differences, exact."""
    out = Fraction(1)
    fys = [Fraction(y) for y in ys]
    for j in range(len(fys)):
        for i in range(j):
            out *= fys[j] - fys[i]
    return out


def min_window_ratio(ys: Sequence[float], n: int) -> float:
    """Smallest |V| / scale over the contiguous n-point windows of ``ys``.

    Rows are y^0 .. y^(n-1), so the scale of a window is the product over i
    of max_j |y_j|^i.
    """
    best = math.inf
    for s in range(len(ys) - n + 1):
        w = ys[s:s + n]
        det = 1.0
        for j in range(n):
            for i in range(j):
                det *= w[j] - w[i]
        peak = max(abs(y) for y in w)
        scale = math.prod(peak ** i for i in range(n))
        best = min(best, abs(det) / scale)
    return best


def in_defect_region(ys: Sequence[float], orders: Sequence[int]) -> bool:
    return any(n >= 2 and len(ys) >= n and
               min_window_ratio(ys, n) <= DEFECT_MARGIN * ZERO_TEST
               for n in orders)


def outside_defect_region(ys: Sequence[float], orders: Sequence[int]) -> None:
    """Refuse a request whose grid lies in the zero-test defect's region:
    the workloads are built so that no request fails."""
    if in_defect_region(ys, orders):
        raise ValueError(f"a {len(ys)}-point grid is in the zero-test defect's "
                         f"region at order {max(orders)}")


def classical_dd(xs: Sequence[float], f: Callable[[Fraction], Fraction]) -> Fraction:
    """Classical divided difference by the recurrence, in exact arithmetic."""
    pts = [Fraction(x) for x in xs]
    table = [f(x) for x in pts]
    for level in range(1, len(pts)):
        for i in range(len(pts) - level):
            table[i] = (table[i + 1] - table[i]) / (pts[i + level] - pts[i])
    return table[0]


def outside_exclusion(grid: Sequence[float], knots: Sequence[float],
                      span: float) -> list[float]:
    delta = KNOT_EXCLUSION * span
    return [x for x in grid if min(abs(x - k) for k in knots) > delta]


# ---------------------------------------------------------------------------
# Comparison helpers

def _close(got, want: float, rtol: float, what: str, problems: list,
           atol: float = 0.0) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        problems.append(f"{what}: expected a number, got {got!r}")
    elif not abs(got - want) <= atol + rtol * max(abs(want), 1.0):
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _equal(got, want, what: str, problems: list) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _ordered_subset(w, grid: Sequence[float], size: int, what: str,
                    problems: list) -> bool:
    points = set(grid)
    if (not isinstance(w, list) or len(w) != size
            or any(a >= b for a, b in zip(w, w[1:]))
            or any(x not in points for x in w)):
        problems.append(f"{what}: {w!r} is not {size} increasing grid points")
        return False
    return True


def _tuple_count(doc: dict, key: str, total: int, budget: int, windows: int,
                 problems: list) -> None:
    got = doc.get(key)
    if total <= budget:
        _equal(got, total, key, problems)
    elif not (isinstance(got, int) and windows <= got <= budget):
        problems.append(f"{key}: {got!r} outside [{windows}, {budget}]")


# ---------------------------------------------------------------------------
# Scan commands

def classify_positive(grid: Sequence[float], ys: Sequence[float], n: int,
                      budget: int, verdict: str) -> Expect:
    """A Vandermonde-type system (in ``ys``) of known sign."""
    m = len(grid)

    def check(doc: dict) -> list:
        problems: list = []
        _equal(doc.get("classification.verdict"), verdict, "verdict", problems)
        _equal(doc.get("classification.witness"), None, "witness", problems)
        _tuple_count(doc, "classification.tuples_checked", math.comb(m, n),
                     budget, m - n + 1, problems)
        return problems

    outside_defect_region(ys, [n])
    return Expect(0, check)


def classify_first_flip(witness: Sequence[float], checked: int) -> Expect:
    """An early exit at a known tuple of a non-Chebyshev system."""

    def check(doc: dict) -> list:
        problems: list = []
        _equal(doc.get("classification.verdict"), "non-chebyshev", "verdict", problems)
        _equal(doc.get("classification.witness"), list(witness), "witness", problems)
        _equal(doc.get("classification.tuples_checked"), checked, "tuples_checked",
               problems)
        return problems

    return Expect(2, check)


def classify_cos(grid: Sequence[float]) -> Expect:
    """(cos) on (0, pi): the first grid point with cos(x) <= 0 flips the sign."""
    i = next(i for i, x in enumerate(grid) if math.cos(x) <= 0.0)
    return classify_first_flip([grid[i]], i + 1)


def classify_cossin(grid: Sequence[float]) -> Expect:
    """(cos, sin) from x_0 = 0: det = sin(x_j - x_0), negative past pi."""
    j = next(j for j, x in enumerate(grid) if math.sin(x) < 0.0)
    return classify_first_flip([grid[0], grid[j]], j)


def theorem_a(grid: Sequence[float], ys: Sequence[float], n: int, budget: int,
              bordered: Callable[[Sequence[float]], float],
              fmt: str, certified: bool) -> Expect:
    """Bordered determinants of a Vandermonde-type system plus a target.

    ``bordered`` gives the exact determinant at an increasing tuple of
    grid points. Every determinant is positive (``certified``) or every one
    negative, so the minimum over the sample is the minimum over windows
    when certified, and the reported witness value must equal the
    determinant at the reported witness when violated.
    """
    m = len(grid)
    floor = min(bordered(grid[s:s + n + 1]) for s in range(m - n)) if certified else None

    def check(doc: dict) -> list:
        problems: list = []
        verdict = "certified-on-sample" if certified else "violated"
        _equal(doc.get("certificate.verdict"), verdict, "verdict", problems)
        _tuple_count(doc, "certificate.tuples_checked", math.comb(m, n + 1),
                     budget, m - n, problems)
        if fmt != "structured":
            return problems
        if certified:
            _close(doc.get("certificate.min_value"), floor, 1e-6, "min_value", problems)
            _equal(doc.get("certificate.witness"), None, "witness", problems)
        else:
            w = doc.get("certificate.witness")
            if _ordered_subset(w, grid, n + 1, "witness", problems):
                _close(doc.get("certificate.witness_value"), bordered(w), 1e-6,
                       "witness_value", problems)
                _equal(doc.get("certificate.min_value"),
                       doc.get("certificate.witness_value"), "min_value", problems)
        return problems

    outside_defect_region(ys, [n])
    return Expect(0 if certified else 2, check)


def corollary1(grid: Sequence[float], ys: Sequence[float], n: int, budget: int,
               window_dd: Callable[[Sequence[float]], float],
               fmt: str, certified: bool) -> Expect:
    """Sliding-window divided differences with a closed-form window value.

    ``window_dd`` gives the divided difference of the target over n
    increasing grid points. The difference over an (n+1)-tuple is
    dd(upper window) - dd(lower window).
    """
    m = len(grid)

    def diff(t):
        return window_dd(t[1:]) - window_dd(t[:n])

    floor = min(diff(grid[s:s + n + 1]) for s in range(m - n)) if certified else None

    def check(doc: dict) -> list:
        problems: list = []
        verdict = "certified-on-sample" if certified else "violated"
        _equal(doc.get("certificate.verdict"), verdict, "verdict", problems)
        _tuple_count(doc, "certificate.tuples_checked", math.comb(m, n + 1),
                     budget, m - n, problems)
        _equal(doc.get("certificate.skipped"), 0, "skipped", problems)
        if fmt != "structured":
            return problems
        if certified:
            _close(doc.get("certificate.min_value"), floor, 1e-6, "min_value", problems)
        else:
            w = doc.get("certificate.witness")
            if _ordered_subset(w, grid, n + 1, "witness", problems):
                _close(doc.get("certificate.witness_value"), diff(w), 1e-6,
                       "witness_value", problems)
        return problems

    outside_defect_region(ys, [n, n - 1])
    return Expect(0 if certified else 2, check)


# ---------------------------------------------------------------------------
# Pointwise commands

def support(grid: Sequence[float], n: int, knots: Sequence[float], c_n: float,
            target: Callable[[float], float], diff: Callable[[float], float],
            fmt: str) -> Expect:
    """support of a convex ``target`` w.r.t. poly:n, with the exact limit
    ``c_n`` and the exact difference ``diff`` = target - omega."""

    def interpolates(coeffs) -> bool:
        return all(abs(sum(c * k ** i for i, c in enumerate(coeffs)) - target(k))
                   <= 1e-7 * max(abs(target(k)), 1.0) for k in knots)

    def check(doc: dict) -> list:
        problems: list = []
        if fmt == "columns":
            _check_columns(doc, grid, diff, knots, target, problems)
            return problems
        _close(doc.get("support.c_n.estimate"), c_n, 1e-6, "c_n", problems)
        _equal(doc.get("support.c_n.converged"), True, "c_n.converged", problems)
        _equal(doc.get("support.pattern.overall"), True, "pattern.overall", problems)
        coeffs = doc.get("support.coefficients")
        if not (isinstance(coeffs, list) and len(coeffs) == n):
            problems.append(f"coefficients: {coeffs!r}")
        elif not interpolates(coeffs):
            problems.append(f"coefficients {coeffs!r} do not interpolate f at the knots")
        return problems

    outside_defect_region(grid, [n, n - 1])
    return Expect(0, check)


def support_monomial(grid: Sequence[float], n: int, knots: Sequence[float],
                     fmt: str) -> Expect:
    """x^n w.r.t. poly:n: c_n = sum(knots) + last knot and
    x^n - omega(x) = (x - k_1) ... (x - k_(n-1))^2."""
    return support(grid, n, knots, math.fsum(knots) + knots[-1], lambda x: x ** n,
                   lambda x: math.prod(x - k for k in knots) * (x - knots[-1]), fmt)


def support_exp_line(grid: Sequence[float], rate: float, knot: float,
                     fmt: str) -> Expect:
    """e^(a x) w.r.t. poly:2: the tangent at the knot, slope a e^(a k)."""
    slope = rate * math.exp(rate * knot)
    return support(grid, 2, [knot], slope, lambda x: math.exp(rate * x),
                   lambda x: math.exp(rate * x) - math.exp(rate * knot) - slope * (x - knot),
                   fmt)


def _check_columns(doc: dict, grid: Sequence[float], diff: Callable,
                   knots: Sequence[float], f: Callable,
                   problems: list) -> None:
    rows = doc["rows"]
    if len(rows) != len(grid):
        problems.append(f"columns: {len(rows)} rows, expected {len(grid)}")
        return
    for (x, fx, ox, d, seg), want_x in zip(rows, grid):
        scale = 1.0 + abs(f(x))
        if (x != want_x or abs(fx - f(x)) > 1e-12 * scale
                or abs(d - diff(x)) > 1e-6 * scale
                or seg != 1 + sum(1 for k in knots if x > k)):
            problems.append(f"columns: row at x={x!r} is {[x, fx, ox, d, seg]}")
            return


def theorem2(grid: Sequence[float], span: float, knots: Sequence[float],
             value: Callable[[float], float], fmt: str, increasing: bool) -> Expect:
    """x -> dd(knots, x) with a closed form ``value``; monotone by construction."""
    xs = outside_exclusion(grid, knots, span)

    def check(doc: dict) -> list:
        problems: list = []
        _equal(doc.get("monotonicity.ok"), increasing, "ok", problems)
        if fmt != "structured":
            return problems
        scan = doc.get("monotonicity.scan")
        if not isinstance(scan, list) or [x for x, _ in scan] != xs:
            problems.append("scan: abscissae differ from the grid minus exclusions")
            return problems
        for x, v in scan:
            if abs(v - value(x)) > 1e-6 * (1.0 + abs(value(x))):
                problems.append(f"scan: dd at x={x!r} is {v!r}, expected {value(x)!r}")
                break
        want = 0 if increasing else len(xs) - 1
        _equal(len(doc.get("monotonicity.violations", ())), want, "violations", problems)
        return problems

    return Expect(0 if increasing else 2, check)


def definition_monomial(grid: Sequence[float], span: float, nodes: Sequence[float],
                        fmt: str, exact_target: bool, linear_table: bool) -> Expect:
    """x^n minus its interpolant at the nodes is prod(x - node): the
    alternating pattern holds, and the minimum slack is min |prod|."""
    xs = outside_exclusion(grid, nodes, span)
    floor = min(abs(math.prod(x - k for k in nodes)) for x in xs)
    top = max(abs(x) for x in grid) ** len(nodes)

    def check(doc: dict) -> list:
        problems: list = []
        _equal(doc.get("certificate.verdict"), "certified-on-sample", "verdict", problems)
        _equal(doc.get("certificate.tuples_checked"), len(xs), "tuples_checked", problems)
        _equal(doc.get("certificate.linear_table_interpolation"), linear_table,
               "linear_table_interpolation", problems)
        if exact_target:
            _close(doc.get("certificate.min_value"), floor, 0.0, "min_value", problems,
                   atol=1e-9 * (1.0 + top))
        return problems

    return Expect(0, check)


def divided_difference(points: Sequence[float], power: int) -> Expect:
    """gdd of x^power w.r.t. poly:len(points) equals the classical value."""
    exact = float(classical_dd(points, lambda x: x ** power))

    def check(doc: dict) -> list:
        problems: list = []
        _close(doc.get("dd.value"), exact, 1e-8, "dd.value", problems)
        _close(doc.get("classical"), exact, 1e-8, "classical", problems)
        _equal(doc.get("dd.ill_conditioned"), False, "ill_conditioned", problems)
        return problems

    return Expect(0, check)


def paper_example(fmt: str) -> Expect:
    """Cubic target, quadratic system: omega = -x + 2 x^2, f - omega = x (x-1)^2."""
    grid = uniform_grid(-2.0, 3.0, 100)

    def check(doc: dict) -> list:
        problems: list = []
        if fmt == "columns":
            _check_columns(doc, grid, lambda x: x * (x - 1.0) ** 2, [0.0, 1.0],
                           lambda x: x ** 3, problems)
            return problems
        coeffs = doc.get("support.coefficients")
        if not (isinstance(coeffs, list) and len(coeffs) == 3):
            problems.append(f"coefficients: {coeffs!r}")
        else:
            for got, want, i in zip(coeffs, (0.0, -1.0, 2.0), range(3)):
                _close(got, want, 1e-6, f"coefficient {i}", problems)
        checks = doc.get("checks")
        if not (isinstance(checks, list) and len(checks) == 5
                and all(c.get("pass") is True for c in checks)):
            problems.append("self-checks did not all pass")
        return problems

    return Expect(0, check)
