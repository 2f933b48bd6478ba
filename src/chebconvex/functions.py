"""Closed forms and target-function sources.

:data:`FORMS` is the one table of closed forms, checked by
:func:`check_form`, for basis functions (:class:`systems.BasisFunction`)
and expression targets alike; general expression parsing is out of scope.
Tabulated sources optionally interpolate linearly between samples, and
that choice is flagged in every report built from them because
interpolation can manufacture or destroy convexity.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

from .errors import (ArgumentError, DomainError, ResolutionError,
                     SourceEvalError, TableFormatError)

#: Relative snapping window for exact-abscissa queries against tables.
TABLE_SNAP_FACTOR = 1e-12

#: Lines of a table file parsed at a time in bulk: a bounded chunk, so a
#: large table is never split into cells all at once.
TABLE_CHUNK = 512


class FunctionSource:
    """Uniform evaluation interface for a target function."""

    is_table = False
    uses_linear_interpolation = False

    def _eval(self, x: float) -> float:
        raise NotImplementedError

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
#: a factory that binds the validated parameters once and returns the
#: function of x). ``poly`` is for targets only. The parameter of
#: ``monomial`` and ``negmonomial`` is an integer power.
FORMS = {
    "monomial": (1, lambda p: lambda x, k=int(p[0]): x ** k),
    "negmonomial": (1, lambda p: lambda x, k=int(p[0]): -(x ** k)),
    "exp": (1, lambda p: lambda x, a=p[0]: math.exp(a * x)),
    "cos": (0, lambda p: math.cos),
    "sin": (0, lambda p: math.sin),
    "const": (1, lambda p: lambda x, c=p[0]: c),
    "poly": (None, lambda p: lambda x: _horner(x, p)),
}

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


def _horner(x: float, coeffs: tuple[float, ...]) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class ExpressionSource(FunctionSource):
    """One of the closed forms of :data:`FORMS`, e.g. x^3 or e^(a x)."""

    def __init__(self, form: str, params: Sequence[float] = ()):
        self.params = check_form(form, params, FORMS, "expression form")
        self.form = form
        # The bound evaluator takes the place of the ``_eval`` method.
        self._eval = FORMS[form][1](self.params)

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

    def max_spacing_within(self, lo: float, hi: float) -> float:
        """Largest gap between consecutive abscissae whose span overlaps [lo, hi].

        Raises :class:`ResolutionError` when the table does not cover the window.
        """
        if self.xs[0] > lo or self.xs[-1] < hi:
            raise ResolutionError(
                f"table covers [{self.xs[0]:g}, {self.xs[-1]:g}], "
                f"needs [{lo:g}, {hi:g}]")
        worst = 0.0
        for a, b in zip(self.xs, self.xs[1:]):
            if b > lo and a < hi:
                worst = max(worst, b - a)
        return worst

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

    Once the first header or data row has come, the lines are parsed
    :data:`TABLE_CHUNK` at a time, each chunk with one ``split`` per line
    and one ``map(float)``. A chunk that is not all plain data rows (a
    comment, a blank line, a cell too many or too few, a cell that is not a
    number, a non-finite abscissa) is parsed line by line instead, which
    raises the line's own error.
    """
    if isinstance(source, str):
        lines = iter(source.splitlines())
    else:
        lines = (line.rstrip("\n") for line in source)
    rows: tuple[list[float], list[float], list[int]] = ([], [], [])
    lineno, header_allowed = 0, True
    for raw in lines:
        lineno += 1
        header_allowed = _parse_lines([raw], lineno, header_allowed, rows)
        if not header_allowed:
            break
    while chunk := list(itertools.islice(lines, TABLE_CHUNK)):
        if not _parse_chunk(chunk, lineno + 1, rows):
            _parse_lines(chunk, lineno + 1, False, rows)
        lineno += len(chunk)
    xs, ys, linenos = rows
    if not xs:
        raise TableFormatError("table contains no data rows")
    if not all(map(operator.lt, xs, xs[1:])):
        order = sorted(range(len(xs)), key=xs.__getitem__)
        xs, ys, linenos = ([column[i] for i in order] for column in rows)
        for i in range(len(xs) - 1):
            if xs[i] == xs[i + 1]:
                l0, l1 = linenos[i], linenos[i + 1]
                raise TableFormatError(
                    f"duplicate abscissa {xs[i]!r} on lines {l0} and {l1}", (l0, l1))
    return TableSource(xs, ys, interpolation)


def _parse_lines(lines: Sequence[str], first: int, header_allowed: bool,
                 rows: tuple[list, list, list]) -> bool:
    """Append the data rows of ``lines``, numbered from ``first``, to the
    ``(xs, ys, line numbers)`` of ``rows``, one line at a time. Returns
    whether a header row may still come."""
    for lineno, raw in enumerate(lines, start=first):
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
        rows[0].append(x)
        rows[1].append(y)
        rows[2].append(lineno)
    return header_allowed


def _parse_chunk(lines: Sequence[str], first: int, rows: tuple[list, list, list]) -> bool:
    """Append the rows of ``lines``, numbered from ``first``, to ``rows`` in
    bulk, as :func:`_parse_lines` would after the header, when every line is
    a data row with a finite abscissa. Otherwise append nothing and return
    False."""
    # A comment fails the cell count or float(): no number holds a "#".
    cells = list(map(str.split, "\n".join(lines).replace(",", " ").split("\n")))
    if len(cells) != len(lines) or set(map(len, cells)) != {2}:
        return False
    try:
        values = list(map(float, itertools.chain.from_iterable(cells)))
    except ValueError:
        return False
    xs = values[0::2]
    if not all(map(math.isfinite, xs)):
        return False
    rows[0].extend(xs)
    rows[1].extend(values[1::2])
    rows[2].extend(range(first, first + len(lines)))
    return True


@contextlib.contextmanager
def open_text(path: str, flag: str) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8 text. Text that is not UTF-8
    raises :class:`ArgumentError` naming ``flag``, the command-line flag
    that gave the file, and the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
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
