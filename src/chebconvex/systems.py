"""Intervals, basis functions, and Chebyshev systems.

A system is an ordered tuple of basis functions on an interval. Whether it
actually is a Chebyshev system (collocation determinant never vanishing on
ordered point tuples) is never assumed: it is checked by sampling (see
:func:`classify_on_grid`), or, for three families of bases (monomials,
negated monomials and exponentials), it follows from the basis tuple alone
(:func:`structural_sign`). The positivity precheck of theorem A,
corollary 1 and the support construction takes its hypothesis from the
latter where it can, and samples every other basis.

A basis function is one of the closed forms of :data:`functions.FORMS`,
the table that targets use too, validated by :func:`functions.check_form`.
Continuity of the basis functions is an assumption of the whole theory and
is not verified here; the closed forms are all continuous, and tabulated
data is taken on faith.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Optional, Sequence

from .determinants import ScaleBound, Windows, exact_sign, minor_scan
from .errors import ArgumentError, DomainError, GeometryError
from .functions import BASIS_FORMS, FORMS, check_count, check_form, parse_floats
from .sampling import DEFAULT_BUDGET, DEFAULT_SEED, scan_tuples

INF = math.inf

#: Relative inset used to keep auto-generated grids off open endpoints.
GRID_INSET_FACTOR = 1e-6


class Frozen:
    """An immutable value: its ``_key`` attributes, in order, decide its
    equality and hash. A subclass stores its ``__slots__`` once, in
    ``__init__``, by :meth:`_freeze`, and keeps each argument of
    ``__init__`` in the attribute of that name: those rebuild it, for its
    repr, copies and pickles."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def _args(self) -> dict:
        code = type(self).__init__.__code__
        return {name: getattr(self, name) for name in code.co_varnames[1:code.co_argcount]}

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in self._args().items())
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), tuple(self._args().values())

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class Interval(Frozen):
    """A real interval, possibly unbounded, with open/closed endpoint flags."""

    __slots__ = _key = ("lo", "hi", "lo_open", "hi_open")

    def __init__(self, lo: float = -INF, hi: float = INF,
                 lo_open: bool = False, hi_open: bool = False):
        if math.isnan(lo) or math.isnan(hi):
            raise ArgumentError("interval endpoints must not be NaN")
        if not lo < hi:
            raise ArgumentError(f"empty interval: lo={lo} must be < hi={hi}")
        # Infinite endpoints are necessarily open.
        self._freeze(lo, hi, math.isinf(lo) or lo_open, math.isinf(hi) or hi_open)

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
    if not a < b:
        raise ArgumentError(f"grid bounds need lo < hi, got lo={a!r}, hi={b!r}")
    inset = GRID_INSET_FACTOR * interval.tolerance_span
    if a == interval.lo and interval.lo_open:
        a += inset
    if b == interval.hi and interval.hi_open:
        b -= inset
    if not a < b:
        raise GeometryError("grid bounds collapsed after endpoint inset")
    step = (b - a) / (count - 1)
    if not math.isfinite(step):
        raise GeometryError(f"grid bounds [{a}, {b}] span more than a float holds")
    pts = [a + i * step for i in range(count - 1)]
    pts.append(b)
    return pts


class BasisFunction(Frozen):
    """One evaluable basis function: x^k, e^(a x), cos, sin, c, or -x^k,
    named by its form in :data:`functions.FORMS` (any but ``poly``), whose
    evaluator ``values`` is bound to it."""

    __slots__ = ("kind", "param", "values")
    _key = ("kind", "param")

    def __init__(self, kind: str, param: float = 0.0):
        # cos and sin take no parameter: ``param`` may only keep its default.
        takes_none = kind in FORMS and FORMS[kind][0] == 0
        params = () if takes_none and param == 0.0 else (param,)
        check_form(kind, params, BASIS_FORMS, "basis kind")
        # Bound as given, so ``const`` returns ``param`` itself.
        self._freeze(kind, param, FORMS[kind][1](params))

    def __call__(self, x: float) -> float:
        try:
            value, = self.values((x,))
        except OverflowError as exc:
            raise DomainError(f"basis {self.describe()} overflowed at x={x!r}") from exc
        return value

    def describe(self) -> str:
        if self.kind in ("monomial", "negmonomial"):
            k = int(self.param)
            sign = "-" if self.kind == "negmonomial" else ""
            return sign + ("1" if k == 0 else ("x" if k == 1 else f"x^{k}"))
        if self.kind == "exp":
            return f"exp({self.param:g}x)"
        if self.kind == "const":
            return f"{self.param:g}"
        return self.kind


class ChebyshevSystem(Frozen):
    """Ordered basis functions on an interval. Order is significant: it fixes
    the row order of every collocation matrix built from the system."""

    __slots__ = ("basis", "interval", "name")
    _key = ("basis", "interval")

    def __init__(self, basis: tuple[BasisFunction, ...], interval: Interval = REAL_LINE,
                 name: str = ""):
        basis = tuple(basis)
        if len(basis) < 1:
            raise ArgumentError("a system needs at least one basis function")
        self._freeze(basis, interval, name)

    @property
    def n(self) -> int:
        return len(self.basis)

    def evaluate_basis(self, x: float) -> tuple[float, ...]:
        """All basis values at ``x`` (which must lie in the interval closure)."""
        if not self.interval.contains(x):
            raise DomainError(f"x={x!r} outside interval {self.interval.describe()}")
        return tuple(func(x) for func in self.basis)

    def evaluate_rows(self, xs: Sequence[float]) -> list[list[float]]:
        """The basis rows at the points ``xs``, row i holding basis function
        i at every point: ``[self.evaluate_basis(x) for x in xs]``
        transposed, bit for bit, each row from its function's evaluator
        over all the points. When a point lies outside the interval or a
        function fails, the points are evaluated one at a time instead, so
        the error is the one the first failing point raises there."""
        lo, hi = self.interval.lo, self.interval.hi
        try:
            if xs and lo <= min(xs) and max(xs) <= hi and not any(map(math.isnan, xs)):
                return [list(func.values(xs)) for func in self.basis]
        except Exception:  # raised again below, at its point
            pass
        cols = [self.evaluate_basis(x) for x in xs]
        return [list(row) for row in zip(*cols)] if cols else [[] for _ in self.basis]

    def evaluate_grid(self, xs: Sequence[float]) -> list[tuple[float, ...]]:
        """The basis columns at the points ``xs``, column j holding every
        basis function at point j: :meth:`evaluate_rows` transposed, so
        ``[self.evaluate_basis(x) for x in xs]`` bit for bit, with its
        errors."""
        return list(zip(*self.evaluate_rows(xs)))

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


class SystemClassification(Frozen):
    """Sampled verdict on the sign of the collocation determinant: ``verdict``
    'positive' | 'negative' | 'non-chebyshev', and ``coverage`` 'exhaustive'
    | 'windows' | 'sampled' (see :mod:`.sampling`)."""

    __slots__ = _key = ("verdict", "witness", "tuples_checked", "coverage")

    def __init__(self, verdict: str, witness: Optional[tuple[float, ...]],
                 tuples_checked: int, coverage: str):
        if verdict == "non-chebyshev" and witness is None:
            raise ArgumentError("non-chebyshev verdict requires a witness tuple")
        self._freeze(verdict, witness, tuples_checked, coverage)


def validate_grid(system: ChebyshevSystem, grid: Sequence[float], minimum: int) -> list[float]:
    """Shared grid checks: enough points, strictly increasing, inside the
    interval. A strictly increasing grid lies in [first point, last point],
    so its two ends decide membership; the points are walked one by one
    only to name the first one outside."""
    pts = list(map(float, grid))
    check_grid_size(pts, minimum)
    if not all(map(operator.lt, pts, pts[1:])):
        raise ArgumentError("grid must be strictly increasing")
    admits = system.interval.admits
    if pts and not (admits(pts[0]) and admits(pts[-1])):
        x = next(x for x in pts if not admits(x))
        raise DomainError(f"grid point {x!r} outside {system.interval.describe()} "
                          "(open endpoints excluded)")
    return pts


def check_grid_size(grid: Sequence[float], minimum: int) -> None:
    if len(grid) < minimum:
        raise ArgumentError(f"grid has {len(grid)} points, need at least {minimum}")


def classify_on_grid(system: ChebyshevSystem, grid: Sequence[float],
                     *, budget: int = DEFAULT_BUDGET,
                     seed: int = DEFAULT_SEED) -> SystemClassification:
    """Classify a system as positive / negative / non-chebyshev by sampling.

    Evaluates the collocation determinant over ordered n-tuples drawn from
    ``grid`` by :func:`.sampling.scan_tuples`, whose route past the budget
    is :meth:`Windows.keep_sign`. A tuple's sign is that of the zero test,
    and where the test says "0", the :func:`exact_sign` of its evaluated
    floats, so "0" means exactly singular floats. The verdict is
    ``positive`` (``negative``) when every checked tuple has the first
    one's nonzero sign, and ``non-chebyshev`` with the first tuple, in
    sampler order, whose sign vanishes or differs from it;
    ``tuples_checked`` is then that tuple's position + 1. Past the budget
    the n-point windows come first, and their exact signs,
    first sign and first failing window are those of
    :meth:`Windows.first_failing`, which computes no window twice; on the
    windows route they are the verdict. The tuples after the first (all of
    an exhaustive list) or after the windows (the rest of a sample) are
    scanned sorted, where neighbours share elimination prefixes, up to the
    first failing one, and then again over those at lower positions only:
    a failure past the windows may cost more determinants than its
    position.
    """
    n = system.n
    grid = validate_grid(system, grid, n)
    cols = system.evaluate_grid(grid)
    windows = Windows(cols, n)
    tuples, coverage, _ = scan_tuples(len(grid), n, budget, seed, windows.keep_sign)
    bound = ScaleBound(cols)

    def exact(p: int) -> str:
        return "0+-"[exact_sign([cols[j] for j in tuples[p]]) or 0]

    if coverage == "exhaustive":
        first = bound.sign(next(minor_scan(cols, tuples)), tuples[0])
        first = exact(0) if first == "0" else first
        fail, rest = (0, []) if first == "0" else (None, range(1, len(tuples)))
    else:
        first, fail = windows.first_failing(n)
        rest = [] if fail is not None else sorted(range(len(grid) - n + 1, len(tuples)),
                                                  key=tuples.__getitem__)
    while rest:
        signs, again = itertools.tee(map(bound.sign, minor_scan(
            cols, map(tuples.__getitem__, rest)), map(tuples.__getitem__, rest)))
        # Only a tuple whose sign differs from the first runs Python code here;
        # one that the zero test leaves "0" takes its exact sign.
        i = next((i for i, sign in itertools.compress(enumerate(signs), map(
            operator.ne, again, itertools.repeat(first)))
            if sign != "0" or exact(rest[i]) != first), None)
        if i is None:
            break
        fail = rest[i]
        rest = [p for p in rest[i + 1:] if p < fail]
    if fail is not None:
        witness = tuple(grid[j] for j in tuples[fail])
        return SystemClassification("non-chebyshev", witness, fail + 1, coverage)
    verdict = "positive" if first == "+" else "negative"
    return SystemClassification(verdict, None, len(tuples), coverage)


def structural_sign(system: ChebyshevSystem) -> Optional[str]:
    """The sign, "+" or "-", of the collocation determinant of ``system`` at
    every increasing tuple of reals when the basis tuple alone fixes it,
    else None. It is the sign of the permutation that sorts the parameters
    for monomials with the powers 0, ..., k-1 (a row-permuted Vandermonde
    determinant), times (-1)^k for negated ones, and for exponentials with
    distinct rates (e^(a x) is a totally positive kernel: Karlin, *Total
    Positivity*, 1968). It is the sign of the reals, not of their floats."""
    kinds = {func.kind for func in system.basis}
    params = [func.param for func in system.basis]
    k = system.n
    if kinds in ({"monomial"}, {"negmonomial"}):
        if sorted(params) != list(range(k)):
            return None
        flips = k % 2 if kinds == {"negmonomial"} else 0
    elif kinds == {"exp"} and len(set(params)) == k:
        flips = 0
    else:
        return None
    # One flip per inversion of the permutation that sorts the parameters.
    flips += sum(itertools.starmap(operator.gt, itertools.combinations(params, 2)))
    return "-" if flips % 2 else "+"


# ---------------------------------------------------------------------------
# Construction helpers and the text format.

def polynomial_system(n: int, interval: Interval = REAL_LINE) -> ChebyshevSystem:
    """(1, x, ..., x^(n-1))."""
    return ChebyshevSystem(tuple(BasisFunction("monomial", k) for k in range(n)),
                           interval, f"poly:{n}")


def exponential_system(rates: Sequence[float], interval: Interval = REAL_LINE) -> ChebyshevSystem:
    """(e^(a1 x), ..., e^(an x)) for distinct rates, in the given order."""
    rates = tuple(float(a) for a in rates)
    if len(set(rates)) != len(rates):
        raise ArgumentError("exponential rates must be distinct")
    return ChebyshevSystem(tuple(BasisFunction("exp", a) for a in rates),
                           interval, "exp:" + ",".join(f"{a:g}" for a in rates))


def negated_polynomial_system(n: int, interval: Interval = REAL_LINE) -> ChebyshevSystem:
    """(-1, -x, ..., -x^(n-1))."""
    return ChebyshevSystem(tuple(BasisFunction("negmonomial", k) for k in range(n)),
                           interval, f"negpoly:{n}")


def cosine_sine_system(interval: Optional[Interval] = None) -> ChebyshevSystem:
    """(cos, sin); defaults to the open interval (0, pi)."""
    if interval is None:
        interval = Interval(0.0, math.pi, lo_open=True, hi_open=True)
    return ChebyshevSystem((BasisFunction("cos"), BasisFunction("sin")), interval, "cossin")


def parse_system(text: str, name: str = "") -> ChebyshevSystem:
    """Parse the system definition text format.

    One basis function per line (``monomial k`` | ``exp alpha`` | ``cos`` |
    ``sin`` | ``const c`` | ``negmonomial k``) plus at most one
    ``interval lo hi [open|closed] [open|closed]`` header line. ``#`` starts
    a comment; blank lines are ignored.
    """
    interval, interval_line = None, 0
    basis: list[BasisFunction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0].lower()
        try:
            if head == "interval":
                if interval_line:
                    raise ArgumentError(f"second interval line (the first is line "
                                        f"{interval_line})")
                interval, interval_line = parse_interval(parts[1:]), lineno
            elif head in BASIS_FORMS:
                # The constructor checks the value; only the line shows the count.
                check_count(head, parts[1:])
                basis.append(BasisFunction(head, *map(float, parts[1:])))
            else:
                raise ArgumentError(f"unknown directive {parts[0]!r}")
        except (ValueError, ArgumentError) as exc:
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
        rates = parse_floats(arg, "exponential rate")
        if not rates:
            raise ArgumentError("exp system needs at least one rate")
        return exponential_system(rates, interval or REAL_LINE)
    if head == "cossin":
        return cosine_sine_system(interval)
    if head == "cos":
        iv = interval or Interval(0.0, math.pi, lo_open=True, hi_open=True)
        return ChebyshevSystem((BasisFunction("cos"),), iv, "cos")
    raise ArgumentError(f"unknown system name {spec!r}")


def _positive_count(arg: str) -> int:
    try:
        n = int(arg)
    except ValueError as exc:
        raise ArgumentError(f"bad system order {arg!r}") from exc
    if n < 1:
        raise ArgumentError("system order must be >= 1")
    return n
