"""Intervals, basis functions, and Chebyshev systems.

A system is an ordered tuple of basis functions on an interval. Whether it
actually is a Chebyshev system (collocation determinant never vanishing on
ordered point tuples) is checked by sampling, never assumed: see
:func:`classify_on_grid`.

Continuity of the basis functions is an assumption of the whole theory and
is not verified here; the built-in kinds are all continuous, and tabulated
data is taken on faith.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .determinants import minor_scan, sign_of
from .errors import ArgumentError, DomainError, GeometryError
from .sampling import DEFAULT_BUDGET, DEFAULT_SEED, ordered_index_tuples

INF = math.inf

#: Relative inset used to keep auto-generated grids off open endpoints.
GRID_INSET_FACTOR = 1e-6


@dataclass(frozen=True)
class Interval:
    """A real interval, possibly unbounded, with open/closed endpoint flags."""

    lo: float = -INF
    hi: float = INF
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ArgumentError("interval endpoints must not be NaN")
        if not self.lo < self.hi:
            raise ArgumentError(f"empty interval: lo={self.lo} must be < hi={self.hi}")
        # Infinite endpoints are necessarily open.
        if math.isinf(self.lo):
            object.__setattr__(self, "lo_open", True)
        if math.isinf(self.hi):
            object.__setattr__(self, "hi_open", True)

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def tolerance_span(self) -> float:
        """Span used for scale-relative tolerances; capped at 1 when unbounded."""
        return self.span if math.isfinite(self.span) else 1.0

    def contains(self, x: float) -> bool:
        """Membership in the closure (open endpoints included)."""
        return self.lo <= x <= self.hi

    def interior_contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def admits(self, x: float) -> bool:
        """Closure membership minus excluded open endpoints."""
        if x == self.lo:
            return not self.lo_open
        if x == self.hi:
            return not self.hi_open
        return self.contains(x)

    def describe(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


REAL_LINE = Interval()


def uniform_grid(interval: Interval, count: int,
                 lo: Optional[float] = None, hi: Optional[float] = None) -> list[float]:
    """Uniform sampling grid inside ``interval``.

    Bounds default to the interval endpoints; an unbounded interval needs
    explicit finite bounds. A bound that sits on an open endpoint is moved
    inward by ``GRID_INSET_FACTOR * tolerance_span`` so the grid never
    touches an excluded endpoint.
    """
    if count < 2:
        raise ArgumentError("grid needs at least 2 points")
    a = interval.lo if lo is None else lo
    b = interval.hi if hi is None else hi
    if not (math.isfinite(a) and math.isfinite(b)):
        raise GeometryError("auto-sampling an unbounded interval requires finite bounds")
    if not (interval.contains(a) and interval.contains(b)):
        raise ArgumentError(f"grid bounds [{a}, {b}] leave interval {interval.describe()}")
    inset = GRID_INSET_FACTOR * interval.tolerance_span
    if a == interval.lo and interval.lo_open:
        a += inset
    if b == interval.hi and interval.hi_open:
        b -= inset
    if not a < b:
        raise GeometryError("grid bounds collapsed after endpoint inset")
    step = (b - a) / (count - 1)
    pts = [a + i * step for i in range(count - 1)]
    pts.append(b)
    return pts


# Basis function kinds.
MONOMIAL = "monomial"
EXPONENTIAL = "exp"
COSINE = "cos"
SINE = "sin"
CONSTANT = "const"
NEGMONOMIAL = "negmonomial"

_KINDS = (MONOMIAL, EXPONENTIAL, COSINE, SINE, CONSTANT, NEGMONOMIAL)


@dataclass(frozen=True)
class BasisFunction:
    """One evaluable basis function: x^k, e^(a x), cos, sin, c, or -x^k."""

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ArgumentError(f"unknown basis kind {self.kind!r}")
        if self.kind in (MONOMIAL, NEGMONOMIAL):
            if self.param < 0 or self.param != int(self.param):
                raise ArgumentError(f"{self.kind} power must be an integer >= 0")
        if not math.isfinite(self.param):
            raise ArgumentError("basis parameter must be finite")

    def __call__(self, x: float) -> float:
        try:
            if self.kind == MONOMIAL:
                return x ** int(self.param)
            if self.kind == EXPONENTIAL:
                return math.exp(self.param * x)
            if self.kind == COSINE:
                return math.cos(x)
            if self.kind == SINE:
                return math.sin(x)
            if self.kind == CONSTANT:
                return self.param
            return -(x ** int(self.param))
        except OverflowError as exc:
            raise DomainError(f"basis {self.describe()} overflowed at x={x!r}") from exc

    def describe(self) -> str:
        if self.kind == MONOMIAL:
            k = int(self.param)
            return "1" if k == 0 else ("x" if k == 1 else f"x^{k}")
        if self.kind == NEGMONOMIAL:
            k = int(self.param)
            return "-1" if k == 0 else ("-x" if k == 1 else f"-x^{k}")
        if self.kind == EXPONENTIAL:
            return f"exp({self.param:g}x)"
        if self.kind == CONSTANT:
            return f"{self.param:g}"
        return self.kind


@dataclass(frozen=True)
class ChebyshevSystem:
    """Ordered basis functions on an interval. Order is significant: it fixes
    the row order of every collocation matrix built from the system."""

    basis: tuple[BasisFunction, ...]
    interval: Interval = REAL_LINE
    name: str = field(default="", compare=False)

    def __post_init__(self):
        basis = tuple(self.basis)
        if len(basis) < 1:
            raise ArgumentError("a system needs at least one basis function")
        object.__setattr__(self, "basis", basis)

    @property
    def n(self) -> int:
        return len(self.basis)

    def evaluate_basis(self, x: float) -> tuple[float, ...]:
        """All basis values at ``x`` (which must lie in the interval closure)."""
        if not self.interval.contains(x):
            raise DomainError(f"x={x!r} outside interval {self.interval.describe()}")
        return tuple(func(x) for func in self.basis)

    def truncate(self, m: int) -> "ChebyshevSystem":
        """Restriction to the first ``m`` basis functions, same interval."""
        if not 1 <= m <= self.n:
            raise ArgumentError(f"truncation length {m} not in 1..{self.n}")
        if m == self.n:
            return self
        return ChebyshevSystem(self.basis[:m], self.interval,
                               f"{self.name}[:{m}]" if self.name else "")

    def describe(self) -> str:
        inner = ", ".join(b.describe() for b in self.basis)
        return f"({inner}) on {self.interval.describe()}"


@dataclass(frozen=True)
class SystemClassification:
    """Sampled verdict on the sign of the collocation determinant."""

    verdict: str  # 'positive' | 'negative' | 'non-chebyshev'
    witness: Optional[tuple[float, ...]]
    tuples_checked: int

    def __post_init__(self):
        if self.verdict == "non-chebyshev" and self.witness is None:
            raise ArgumentError("non-chebyshev verdict requires a witness tuple")


def validate_grid(system: ChebyshevSystem, grid: Sequence[float], minimum: int) -> list[float]:
    """Shared grid checks: enough points, strictly increasing, inside the interval."""
    pts = [float(x) for x in grid]
    check_grid_size(pts, minimum)
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise ArgumentError("grid must be strictly increasing")
    for x in pts:
        if not system.interval.admits(x):
            raise DomainError(f"grid point {x!r} outside {system.interval.describe()} "
                              "(open endpoints excluded)")
    return pts


def check_grid_size(grid: Sequence[float], minimum: int) -> None:
    if len(grid) < minimum:
        raise ArgumentError(f"grid has {len(grid)} points, need at least {minimum}")


def classify_on_grid(system: ChebyshevSystem, grid: Sequence[float],
                     budget: int = DEFAULT_BUDGET,
                     seed: int = DEFAULT_SEED) -> SystemClassification:
    """Classify a system as positive / negative / non-chebyshev by sampling.

    Evaluates the collocation determinant over ordered n-tuples drawn from
    ``grid``: exhaustively when the tuple count fits ``budget``, otherwise
    all contiguous windows plus a seeded random subsample. The verdict is
    ``positive`` (``negative``) when every checked determinant clears the
    scale-relative zero tolerance with constant sign, and ``non-chebyshev``
    with the first tuple, in sampler order, whose determinant vanishes or
    differs in sign from the first one; ``tuples_checked`` is then that
    tuple's position + 1. The windows that lead a sample are scanned in
    order, and the scan stops at a failing one. The rest is scanned sorted,
    where neighbours share elimination prefixes, and skips the tuples past
    the lowest failing position found so far: a failure past the windows
    may cost more determinants than its position.
    """
    grid = validate_grid(system, grid, system.n)
    cols = [system.evaluate_basis(x) for x in grid]
    tuples = ordered_index_tuples(len(grid), system.n, budget=budget, seed=seed)
    # An exhaustive list is already sorted: all of it is the head.
    head = len(tuples)
    if head < math.comb(len(grid), system.n):
        head = len(grid) - system.n + 1
    fail = len(tuples)

    def positions():  # drawn one at a time, so the filter sees the latest fail
        yield from range(head)
        yield from (p for p in sorted(range(head, len(tuples)), key=tuples.__getitem__)
                    if p < fail)

    order, fed = itertools.tee(positions())
    first_sign = None
    for p, minor in zip(order, minor_scan(cols, map(tuples.__getitem__, fed))):
        sign = sign_of(*minor)
        if first_sign is None:
            first_sign = sign
        if sign == "0" or sign != first_sign:
            fail = p
            if p < head:
                break
    if fail < len(tuples):
        witness = tuple(grid[j] for j in tuples[fail])
        return SystemClassification("non-chebyshev", witness, fail + 1)
    verdict = "positive" if first_sign == "+" else "negative"
    return SystemClassification(verdict, None, len(tuples))


# ---------------------------------------------------------------------------
# Construction helpers and the text format.

def polynomial_system(n: int, interval: Interval = REAL_LINE) -> ChebyshevSystem:
    """(1, x, ..., x^(n-1))."""
    return ChebyshevSystem(tuple(BasisFunction(MONOMIAL, k) for k in range(n)),
                           interval, f"poly:{n}")


def exponential_system(rates: Sequence[float], interval: Interval = REAL_LINE) -> ChebyshevSystem:
    """(e^(a1 x), ..., e^(an x)) for distinct rates, in the given order."""
    rates = tuple(float(a) for a in rates)
    if len(set(rates)) != len(rates):
        raise ArgumentError("exponential rates must be distinct")
    return ChebyshevSystem(tuple(BasisFunction(EXPONENTIAL, a) for a in rates),
                           interval, "exp:" + ",".join(f"{a:g}" for a in rates))


def negated_polynomial_system(n: int, interval: Interval = REAL_LINE) -> ChebyshevSystem:
    """(-1, -x, ..., -x^(n-1))."""
    return ChebyshevSystem(tuple(BasisFunction(NEGMONOMIAL, k) for k in range(n)),
                           interval, f"negpoly:{n}")


def cosine_sine_system(interval: Optional[Interval] = None) -> ChebyshevSystem:
    """(cos, sin); defaults to the open interval (0, pi)."""
    if interval is None:
        interval = Interval(0.0, math.pi, lo_open=True, hi_open=True)
    return ChebyshevSystem((BasisFunction(COSINE), BasisFunction(SINE)), interval, "cossin")


def parse_system(text: str, name: str = "") -> ChebyshevSystem:
    """Parse the system definition text format.

    One basis function per line (``monomial k`` | ``exp alpha`` | ``cos`` |
    ``sin`` | ``const c`` | ``negmonomial k``) plus an
    ``interval lo hi [open|closed] [open|closed]`` header line. ``#`` starts
    a comment; blank lines are ignored.
    """
    interval = None
    basis: list[BasisFunction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].lower()
        try:
            if head == "interval":
                interval = parse_interval(parts[1:])
            elif head in (MONOMIAL, NEGMONOMIAL, EXPONENTIAL, CONSTANT):
                if len(parts) != 2:
                    raise ArgumentError(f"{head} takes exactly one parameter")
                basis.append(BasisFunction(head, float(parts[1])))
            elif head in (COSINE, SINE):
                if len(parts) != 1:
                    raise ArgumentError(f"{head} takes no parameter")
                basis.append(BasisFunction(head))
            else:
                raise ArgumentError(f"unknown directive {parts[0]!r}")
        except ValueError as exc:
            raise ArgumentError(f"line {lineno}: {exc}") from exc
        except ArgumentError as exc:
            raise ArgumentError(f"line {lineno}: {exc}") from exc
    if not basis:
        raise ArgumentError("system definition contains no basis functions")
    return ChebyshevSystem(tuple(basis), interval or REAL_LINE, name)


def parse_interval(tokens: Sequence[str]) -> Interval:
    """An interval from the tokens ``lo hi [open|closed [open|closed]]``.
    Bounds use float syntax, so ``inf`` and ``-inf`` give unbounded ends."""
    if not 2 <= len(tokens) <= 4:
        raise ArgumentError("interval needs lo, hi and at most two open|closed flags")
    flags = [tok.strip().lower() for tok in tokens[2:]]
    if any(flag not in ("open", "closed") for flag in flags):
        raise ArgumentError(f"interval flags must be open|closed, got {tokens[2:]}")
    try:
        lo, hi = float(tokens[0]), float(tokens[1])
    except ValueError:
        raise ArgumentError(f"bad interval bounds {tokens[0]!r}, {tokens[1]!r}") from None
    return Interval(lo, hi, *(flag == "open" for flag in flags))


def named_system(spec: str, interval: Optional[Interval] = None) -> ChebyshevSystem:
    """Resolve a CLI-style inline system name.

    ``poly:N``, ``exp:a1,a2,...``, ``negpoly:N``, ``cossin``, ``cos``.
    """
    head, _, arg = spec.partition(":")
    head = head.strip().lower()
    if head == "poly":
        return polynomial_system(_positive_count(arg), interval or REAL_LINE)
    if head == "negpoly":
        return negated_polynomial_system(_positive_count(arg), interval or REAL_LINE)
    if head == "exp":
        try:
            rates = [float(tok) for tok in arg.split(",") if tok.strip()]
        except ValueError as exc:
            raise ArgumentError(f"bad exponential rates {arg!r}") from exc
        if not rates:
            raise ArgumentError("exp system needs at least one rate")
        return exponential_system(rates, interval or REAL_LINE)
    if head == "cossin":
        return cosine_sine_system(interval)
    if head == "cos":
        iv = interval or Interval(0.0, math.pi, lo_open=True, hi_open=True)
        return ChebyshevSystem((BasisFunction(COSINE),), iv, "cos")
    raise ArgumentError(f"unknown system name {spec!r}")


def _positive_count(arg: str) -> int:
    try:
        n = int(arg)
    except ValueError as exc:
        raise ArgumentError(f"bad system order {arg!r}") from exc
    if n < 1:
        raise ArgumentError("system order must be >= 1")
    return n
