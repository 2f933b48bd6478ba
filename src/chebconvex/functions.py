"""Closed forms and target-function sources.

:data:`FORMS` is the one table of closed forms, checked by
:func:`check_form`, for basis functions (:class:`systems.BasisFunction`)
and expression targets alike; general expression parsing is out of scope.
Each form has one evaluator, which maps the form's float operations over
a sequence of points; a single point is the sequence of one. Tabulated
sources optionally interpolate linearly between samples, and that choice
is flagged in every report built from them because interpolation can
manufacture or destroy convexity.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import operator
from functools import cached_property, partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

from .errors import (ArgumentError, DomainError, ResolutionError,
                     SourceEvalError, TableFormatError)

#: Relative snapping window for exact-abscissa queries against tables.
TABLE_SNAP_FACTOR = 1e-12


class FunctionSource:
    """Uniform evaluation interface for a target function. A source defines
    ``values``, its evaluation at a sequence of points, or ``_eval``, at
    one point; each is given by the other."""

    is_table = False
    uses_linear_interpolation = False

    def values(self, xs: Sequence[float]) -> Iterable[float]:
        """The values at the points ``xs``, in order, unchecked; an
        evaluation that fails raises at the first point where it fails."""
        return map(self._eval, xs)

    def _eval(self, x: float) -> float:
        value, = self.values((x,))
        return value

    def __call__(self, x: float) -> float:
        try:
            value = self._eval(x)
        except (DomainError, ResolutionError, SourceEvalError):
            raise
        except Exception as exc:
            raise SourceEvalError(f"{self.describe()} failed at x={x!r}") from exc
        if not math.isfinite(value):
            raise SourceEvalError(f"{self.describe()} returned {value!r} at x={x!r}")
        return value

    def describe(self) -> str:
        raise NotImplementedError


#: The closed forms: name -> (parameter count, or None for one or more;
#: a factory that binds the parameters once and returns the form's
#: evaluator, which maps the sequence of points ``xs`` to an iterator over
#: the values there). ``poly`` is for targets only. The parameter of
#: ``monomial`` and ``negmonomial`` is an integer power; a ``const`` keeps
#: its parameter as given.
FORMS = {
    "monomial": (1, lambda p: partial(_powers, int(p[0]))),
    "negmonomial": (1, lambda p: partial(_negated_powers, int(p[0]))),
    "exp": (1, lambda p: partial(_exponentials, float(p[0]))),
    "cos": (0, lambda p: partial(map, math.cos)),
    "sin": (0, lambda p: partial(map, math.sin)),
    "const": (1, lambda p: partial(_constants, p[0])),
    "poly": (None, lambda p: partial(_horner, p)),
}


def _powers(k: int, xs: Sequence[float]) -> Iterator[float]:
    # pow(x, 0) is 1.0 and pow(x, 1) is x, for every float x.
    if k == 0:
        return repeat(1.0, len(xs))
    return iter(xs) if k == 1 else map(pow, xs, repeat(k))


def _negated_powers(k: int, xs: Sequence[float]) -> Iterator[float]:
    return map(operator.neg, _powers(k, xs))


def _exponentials(a: float, xs: Sequence[float]) -> Iterator[float]:
    values = [*map(math.exp, map(partial(operator.mul, a), xs))]
    # math.exp raises OverflowError for an exponent past about 709.8, but
    # gives inf for one that overflowed to +inf itself: an overflow too.
    if math.inf in values:
        raise OverflowError("math range error")
    return iter(values)


def _constants(c: float, xs: Sequence[float]) -> Iterator[float]:
    return repeat(c, len(xs))


def _horner(coeffs: tuple[float, ...], xs: Sequence[float]) -> Iterator[float]:
    """``acc * x + c`` for the coefficients from the highest, from acc = 0.0.
    Each level is a list, so the depth of the maps does not grow with the
    number of coefficients."""
    acc = [0.0] * len(xs)
    for c in reversed(coeffs):
        acc = [*map(operator.add, map(operator.mul, acc, xs), repeat(c))]
    return iter(acc)


#: The forms a basis function may take.
BASIS_FORMS = tuple(form for form in FORMS if form != "poly")

_POWERS = ("monomial", "negmonomial")
_COUNTS = {0: "no parameter", 1: "exactly one parameter",
           None: "at least one coefficient"}


def check_count(form: str, params: Sequence) -> None:
    """Raise unless ``params`` has as many items as ``form`` takes."""
    count = FORMS[form][0]
    if (not params) if count is None else (len(params) != count):
        raise ArgumentError(f"{form} takes {_COUNTS[count]}")


def check_form(form: str, params: Iterable, known: Sequence[str],
               what: str) -> tuple[float, ...]:
    """``params`` as floats, checked against :data:`FORMS`: ``form`` is one
    of ``known`` (else "unknown ``what``"), the count is right, every
    parameter is finite, and a power is an integer >= 0."""
    if form not in known:
        raise ArgumentError(f"unknown {what} {form!r}")
    params = tuple(params)
    check_count(form, params)
    params = tuple(float(p) for p in params)
    for p in params:
        if not math.isfinite(p):
            raise ArgumentError(f"{form} parameter {p!r} is not finite")
    if form in _POWERS and not (params[0] >= 0 and params[0].is_integer()):
        raise ArgumentError(f"{form} power must be an integer >= 0")
    return params


def parse_floats(text: str, what: str) -> tuple[float, ...]:
    """The numbers of a comma-separated list; empty items are skipped."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ArgumentError(f"bad {what} list {text!r}") from None


class ExpressionSource(FunctionSource):
    """One of the closed forms of :data:`FORMS`, e.g. x^3 or e^(a x)."""

    def __init__(self, form: str, params: Sequence[float] = ()):
        self.params = check_form(form, params, FORMS, "expression form")
        self.form = form
        # The bound evaluator takes the place of the ``values`` method.
        self.values = FORMS[form][1](self.params)

    def describe(self) -> str:
        args = ",".join(f"{p:g}" for p in self.params)
        return f"{self.form}:{args}" if args else self.form


class CallableSource(FunctionSource):
    """Adapter for an arbitrary Python callable (library use only)."""

    def __init__(self, fn: Callable[[float], float], label: str = "callable"):
        self.fn = fn
        self.label = label

    def _eval(self, x: float) -> float:
        return float(self.fn(x))

    def describe(self) -> str:
        return self.label


def function_row(f, pts: Sequence[float]) -> list[float]:
    """f at each of ``pts``, in order: the one checked evaluation of a
    target, a :class:`FunctionSource` or a plain callable, which is taken
    as ``CallableSource(f, "target function")``. All the points are
    evaluated at once, through the source's ``values``; when that raises or
    gives a value that is not finite, the points go to
    :meth:`FunctionSource.__call__` one at a time, so that the first
    failing point raises its error: :class:`SourceEvalError` naming it,
    with f's exception as its cause, or an error that the source raises
    itself."""
    if not isinstance(f, FunctionSource):
        f = CallableSource(f, "target function")
    try:
        row = [*map(float, f.values(pts))]
        if all(map(math.isfinite, row)):
            return row
    except Exception:  # raised again below, at its point
        pass
    return [*map(float, map(f, pts))]


class TableSource(FunctionSource):
    """Tabulated samples with optional linear interpolation between them."""

    is_table = True

    def __init__(self, xs: Sequence[float], ys: Sequence[float],
                 interpolation: str = "none"):
        if interpolation not in ("none", "linear"):
            raise ArgumentError(f"interpolation must be none|linear, got {interpolation!r}")
        xs = tuple(map(float, xs))
        ys = tuple(map(float, ys))
        if len(xs) != len(ys) or not xs:
            raise ArgumentError("table needs equal-length, nonempty columns")
        if not all(map(math.isfinite, xs)):
            x = next(x for x in xs if not math.isfinite(x))
            raise ArgumentError(f"non-finite table abscissa {x!r}")
        if not all(map(operator.lt, xs, xs[1:])):
            raise ArgumentError("table abscissae must be strictly increasing")
        self.xs = xs
        self.ys = ys
        self.interpolation = interpolation
        span = xs[-1] - xs[0] if len(xs) > 1 else max(abs(xs[0]), 1.0)
        self._snap = TABLE_SNAP_FACTOR * span

    @property
    def uses_linear_interpolation(self) -> bool:
        return self.interpolation == "linear"

    def _eval(self, x: float) -> float:
        i = bisect.bisect_left(self.xs, x)
        for j in (i - 1, i):
            if 0 <= j < len(self.xs) and abs(self.xs[j] - x) <= self._snap:
                return self.ys[j]
        if self.interpolation == "none":
            raise ResolutionError(
                f"x={x!r} is not a table abscissa and interpolation is off")
        if x < self.xs[0] or x > self.xs[-1]:
            raise DomainError(f"x={x!r} outside table range "
                              f"[{self.xs[0]:g}, {self.xs[-1]:g}]")
        x0, x1 = self.xs[i - 1], self.xs[i]
        y0, y1 = self.ys[i - 1], self.ys[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    @cached_property
    def _rows(self) -> dict[float, float]:
        """``_eval`` at each abscissa, by abscissa: its own row's ordinate,
        unless the row to its left lies within ``_snap``, which ``_eval``
        tests first; then every abscissa is evaluated by ``_eval``."""
        if all(map(operator.gt, map(operator.sub, self.xs[1:], self.xs), repeat(self._snap))):
            return dict(zip(self.xs, self.ys))
        return {x: self._eval(x) for x in self.xs}

    def values(self, xs: Sequence[float]) -> list[float]:
        """``_eval`` at each of the points ``xs``. When the first point is an
        abscissa, the points that are abscissae are looked up in
        ``_rows``, which is built once, and the others go to ``_eval``;
        otherwise every point does, so a table queried off its rows never
        builds ``_rows``."""
        if xs:
            i = bisect.bisect_left(self.xs, xs[0])
            if i < len(self.xs) and self.xs[i] == xs[0]:
                found = [*map(self._rows.get, xs)]
                if None not in found:
                    return found
                return [self._eval(x) if v is None else v for x, v in zip(xs, found)]
        return [*map(self._eval, xs)]

    def max_spacing_within(self, lo: float, hi: float) -> float:
        """Largest gap between consecutive abscissae whose span overlaps [lo, hi].

        Raises :class:`ResolutionError` when the table does not cover the window.
        The gaps that overlap it are those from the last abscissa <= lo to
        the first >= hi, found by bisection.
        """
        xs = self.xs
        if xs[0] > lo or xs[-1] < hi:
            raise ResolutionError(
                f"table covers [{xs[0]:g}, {xs[-1]:g}], "
                f"needs [{lo:g}, {hi:g}]")
        i, j = bisect.bisect_right(xs, lo) - 1, bisect.bisect_left(xs, hi)
        return max(map(operator.sub, xs[i + 1:j + 1], xs[i:j]), default=0.0)

    def describe(self) -> str:
        tag = ",linear" if self.interpolation == "linear" else ""
        return f"table[{len(self.xs)}{tag}]"


def load_table(source: Union[str, Iterable[str]],
               interpolation: str = "none") -> TableSource:
    """Parse delimited text into a :class:`TableSource`.

    Accepts a string or an iterable of lines. Comma or whitespace separated,
    exactly two numeric columns, ``#`` comments, optional single header row.
    Rows are sorted by abscissa on load; non-finite and duplicate abscissae
    are rejected with their line numbers.

    The lines are parsed one at a time as they are read, so a file is never
    held in memory whole. The first line that is neither blank nor a
    comment may be a header: two cells that are not both numbers. On any
    later line such cells are an error.
    """
    if isinstance(source, str):
        source = source.splitlines()
    xs: list[float] = []
    ys: list[float] = []
    linenos: list[int] = []
    header_allowed = True
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cells = line.replace(",", " ").split()
        if len(cells) != 2:
            raise TableFormatError(
                f"line {lineno}: expected 2 columns, got {len(cells)}", (lineno,))
        try:
            x, y = float(cells[0]), float(cells[1])
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            raise TableFormatError(f"line {lineno}: non-numeric cell in {line!r}",
                                   (lineno,)) from None
        header_allowed = False
        if not math.isfinite(x):
            raise TableFormatError(f"line {lineno}: non-finite abscissa {x!r}",
                                   (lineno,))
        xs.append(x)
        ys.append(y)
        linenos.append(lineno)
    if not xs:
        raise TableFormatError("table contains no data rows")
    if not all(map(operator.lt, xs, xs[1:])):
        order = sorted(range(len(xs)), key=xs.__getitem__)
        xs, ys, linenos = ([column[i] for i in order] for column in (xs, ys, linenos))
        for i in range(len(xs) - 1):
            if xs[i] == xs[i + 1]:
                l0, l1 = linenos[i], linenos[i + 1]
                raise TableFormatError(
                    f"duplicate abscissa {xs[i]!r} on lines {l0} and {l1}", (l0, l1))
    return TableSource(xs, ys, interpolation)


@contextlib.contextmanager
def open_text(path: str, flag: str) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8 text, without the byte order mark
    that may open it. Text that is not UTF-8 raises :class:`ArgumentError`
    naming ``flag``, the command-line flag that gave the file, and the
    path."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ArgumentError(f"{flag} {path}: not UTF-8 text ({exc})") from None


def table_spec(spec: str) -> Optional[tuple[str, str]]:
    """The path and interpolation mode of a ``table:PATH[:linear]``
    function spec, else None."""
    head, _, arg = spec.partition(":")
    if head.strip().lower() != "table":
        return None
    path, _, mode = arg.partition(":")
    return path, mode or "none"


def parse_function(spec: str) -> FunctionSource:
    """Resolve a CLI-style function spec.

    ``monomial:3``, ``negmonomial:3``, ``exp:1.5``, ``cos``, ``sin``,
    ``const:2``, ``poly:c0,c1,...``, ``table:PATH`` or ``table:PATH:linear``.
    """
    table = table_spec(spec)
    if table is not None:
        path, mode = table
        if not path:
            raise ArgumentError("table spec needs a file path")
        with open_text(path, "--f") as handle:
            return load_table(handle, interpolation=mode)
    head, _, arg = spec.partition(":")
    head = head.strip().lower()
    if head in FORMS:
        return ExpressionSource(head, parse_floats(arg, "function parameter"))
    raise ArgumentError(f"unknown function spec {spec!r}")
