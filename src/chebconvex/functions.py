"""Target-function sources: built-in expression forms and tabulated samples.

Only the closed set of forms the library's fixtures need is supported;
general expression parsing is out of scope. Tabulated sources optionally
interpolate linearly between samples, and that choice is flagged in every
report built from them because interpolation can manufacture or destroy
convexity.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, Union

from .errors import (ArgumentError, DomainError, ResolutionError,
                     SourceEvalError, TableFormatError)
from .systems import Interval

#: Relative snapping window for exact-abscissa queries against tables.
TABLE_SNAP_FACTOR = 1e-12


class FunctionSource:
    """Uniform evaluation interface for a target function."""

    is_table = False
    uses_linear_interpolation = False

    def __init__(self, domain: Optional[Interval] = None):
        self.domain = domain

    def _eval(self, x: float) -> float:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        if self.domain is not None and not self.domain.contains(x):
            raise DomainError(f"x={x!r} outside domain {self.domain.describe()}")
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


_FORMS: dict[str, Callable[[float, tuple[float, ...]], float]] = {
    "monomial": lambda x, p: x ** int(p[0]),
    "negmonomial": lambda x, p: -(x ** int(p[0])),
    "exp": lambda x, p: math.exp(p[0] * x),
    "cos": lambda x, p: math.cos(x),
    "sin": lambda x, p: math.sin(x),
    "const": lambda x, p: p[0],
    "poly": lambda x, p: _horner(x, p),
}

_FORM_ARITY = {"monomial": 1, "negmonomial": 1, "exp": 1, "cos": 0, "sin": 0,
               "const": 1}


def _horner(x: float, coeffs: tuple[float, ...]) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class ExpressionSource(FunctionSource):
    """One of the built-in closed forms, e.g. x^3 or e^(a x)."""

    def __init__(self, form: str, params: Sequence[float] = (),
                 domain: Optional[Interval] = None):
        super().__init__(domain)
        if form not in _FORMS:
            raise ArgumentError(f"unknown expression form {form!r}")
        params = tuple(float(p) for p in params)
        want = _FORM_ARITY.get(form)
        if want is not None and len(params) != want:
            raise ArgumentError(f"form {form!r} takes {want} parameter(s)")
        if form == "poly" and not params:
            raise ArgumentError("poly needs at least one coefficient")
        if form in ("monomial", "negmonomial"):
            k = params[0]
            if k < 0 or k != int(k):
                raise ArgumentError("monomial power must be an integer >= 0")
        self.form = form
        self.params = params

    def _eval(self, x: float) -> float:
        return _FORMS[self.form](x, self.params)

    def describe(self) -> str:
        if self.form in ("cos", "sin"):
            return self.form
        if self.form == "poly":
            return "poly:" + ",".join(f"{c:g}" for c in self.params)
        return f"{self.form}:{self.params[0]:g}"


class CallableSource(FunctionSource):
    """Adapter for an arbitrary Python callable (library use only)."""

    def __init__(self, fn: Callable[[float], float], label: str = "callable",
                 domain: Optional[Interval] = None):
        super().__init__(domain)
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
                 interpolation: str = "none", domain: Optional[Interval] = None):
        super().__init__(domain)
        if interpolation not in ("none", "linear"):
            raise ArgumentError(f"interpolation must be none|linear, got {interpolation!r}")
        xs = tuple(float(x) for x in xs)
        ys = tuple(float(y) for y in ys)
        if len(xs) != len(ys) or not xs:
            raise ArgumentError("table needs equal-length, nonempty columns")
        for a, b in zip(xs, xs[1:]):
            if not a < b:
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


def load_table(source: Union[str, Iterable[str]], interpolation: str = "none",
               domain: Optional[Interval] = None) -> TableSource:
    """Parse delimited text into a :class:`TableSource`.

    Accepts a string or an iterable of lines. Comma or whitespace separated,
    exactly two numeric columns, ``#`` comments, optional single header row.
    Rows are sorted by abscissa on load; duplicate abscissae are rejected
    with their line numbers.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]
    rows: list[tuple[float, float, int]] = []
    header_allowed = True
    for lineno, raw in enumerate(lines, start=1):
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
        rows.append((x, y, lineno))
    if not rows:
        raise TableFormatError("table contains no data rows")
    rows.sort(key=lambda r: r[0])
    for (x0, _, l0), (x1, _, l1) in zip(rows, rows[1:]):
        if x0 == x1:
            raise TableFormatError(
                f"duplicate abscissa {x0!r} on lines {l0} and {l1}", (l0, l1))
    return TableSource([r[0] for r in rows], [r[1] for r in rows],
                       interpolation, domain)


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


def parse_function(spec: str, domain: Optional[Interval] = None) -> FunctionSource:
    """Resolve a CLI-style function spec.

    ``monomial:3``, ``negmonomial:3``, ``exp:1.5``, ``cos``, ``sin``,
    ``const:2``, ``poly:c0,c1,...``, ``table:PATH`` or ``table:PATH:linear``.
    """
    head, _, arg = spec.partition(":")
    head = head.strip().lower()
    if head == "table":
        path, _, mode = arg.partition(":")
        if not path:
            raise ArgumentError("table spec needs a file path")
        mode = mode or "none"
        with open_text(path, "--f") as handle:
            return load_table(handle, interpolation=mode, domain=domain)
    if head in ("cos", "sin"):
        if arg:
            raise ArgumentError(f"{head} takes no parameter")
        return ExpressionSource(head, (), domain)
    if head in ("monomial", "negmonomial", "exp", "const", "poly"):
        try:
            params = [float(tok) for tok in arg.split(",") if tok.strip()]
        except ValueError as exc:
            raise ArgumentError(f"bad parameters in function spec {spec!r}") from exc
        return ExpressionSource(head, params, domain)
    raise ArgumentError(f"unknown function spec {spec!r}")
