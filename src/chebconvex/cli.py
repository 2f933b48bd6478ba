"""Command-line front end.

Commands: ``classify``, ``dd``, ``certify``, ``support``, and
``reproduce-paper-example`` (the built-in end-to-end worked example with
self-checks). Exit codes partition outcomes: 0 for success or a certified
verdict, 2 for a violated certificate / failed pattern / non-Chebyshev
classification, 1 for usage or runtime errors.

Structured output is a single self-describing JSON document per run with a
versioned schema field, the seed, and every tolerance, so runs are diffable
and reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import json
import math
import operator
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, TextIO

from . import support as support_mod
from .convexity import (CERTIFIED, DEFAULT_ATOL, DEFAULT_RTOL,
                        ConvexityCertificate, MonotonicityReport,
                        certify_corollary1, certify_theorem_a, scan_theorem2,
                        verify_definition)
from .divdiff import DividedDifference, classical_dd, gdd
from .errors import ArgumentError, ChebConvexError
from .functions import (ExpressionSource, FunctionSource, load_table,
                        open_text, parse_floats, parse_function, table_spec)
from .sampling import DEFAULT_BUDGET, DEFAULT_SEED
from .support import SupportResult, build_support
from .systems import (ChebyshevSystem, Interval, SystemClassification,
                      classify_on_grid, named_system, parse_interval,
                      parse_system, polynomial_system, uniform_grid)

SCHEMA = "chebconvex.report/1"
SEED_ENV_VAR = "CHEBCONVEX_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATED = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ArgumentError(message)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ArgumentError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def _parse_grid(text: str):
    """``lo:hi:count`` for a uniform grid, or a table file path whose
    abscissae become the grid."""
    parts = text.split(":")
    if len(parts) == 3:
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            lo = None
        else:
            if count < 2:
                raise ArgumentError("grid count must be >= 2")
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ArgumentError(f"--grid bounds must be finite, got {text!r}")
            return lo, hi, count
    if os.path.isfile(text):
        return text
    raise ArgumentError(f"grid spec must be lo:hi:count or a table file, got {text!r}")


@functools.cache
def build_parser() -> _Parser:
    """The one argument parser: it is static, the default seed is read later.
    Options that only some commands take default to None (``--classical`` to
    False) at the top level, so every namespace has every attribute."""
    parser = _Parser(prog="chebconvex",
                     description="Chebyshev-system collocation determinants, "
                                 "generalized divided differences, convexity "
                                 "certificates, and support construction.")
    parser.set_defaults(system=None, interval=None, function=None, grid=None,
                        points=None, knots=None, nodes=None, method=None,
                        classical=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False, function=False, system=True):
        if system:
            p.add_argument("--system", required=True,
                           help="inline system name (poly:N, exp:a1,a2,..., "
                                "negpoly:N, cossin, cos) or a definition file path")
            p.add_argument("--interval",
                           help="override interval: lo:hi[:open|closed[:open|closed]]")
        if function:
            p.add_argument("--f", required=True, dest="function",
                           help="target function (monomial:K, negmonomial:K, exp:A, "
                                "cos, sin, const:C, poly:c0,c1,..., table:PATH[:linear])")
        if grid:
            p.add_argument("--grid", required=True,
                           help="uniform grid lo:hi:count, or a table file whose "
                                "abscissae form the grid")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="largest C(m, k) scanned in full; past it, the m-k+1 windows alone "
                            "when they decide every tuple, else the windows plus seeded random "
                            "tuples up to this total, at least the windows (default %(default)s)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"PRNG seed for tuple subsampling (default ${SEED_ENV_VAR} or {DEFAULT_SEED})")
        p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
        p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
        p.add_argument("--format", default="human", dest="fmt",
                       choices=("human", "structured", "columns"))
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("classify", help="classify a system on a sampling grid")
    common(p, grid=True)

    p = sub.add_parser("dd", help="generalized divided difference at given points")
    common(p, function=True)
    p.add_argument("--points", required=True, help="comma-separated points")
    p.add_argument("--classical", action="store_true",
                   help="also compute the classical recurrence value")

    p = sub.add_parser("certify", help="certify convexity w.r.t. a system")
    common(p, grid=True, function=True)
    p.add_argument("--method", required=True,
                   choices=("theoremA", "corollary1", "theorem2", "definition"))
    p.add_argument("--knots", help="knots for --method theorem2")
    p.add_argument("--nodes", help="nodes for --method definition")

    p = sub.add_parser("support", help="build the support-type combination")
    common(p, grid=True, function=True)
    p.add_argument("--knots", required=True, help="comma-separated interior knots")

    p = sub.add_parser("reproduce-paper-example",
                       help="run the built-in cubic worked example and self-check it")
    common(p, system=False)

    return parser


#: Flags whose values may start with '-' (negative bounds, points, rates).
_DASH_VALUE_FLAGS = ("--grid", "--points", "--knots", "--nodes", "--interval",
                     "--f", "--system", "--atol", "--rtol")


def _merge_dash_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def parse_config(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The parsed namespace, with every given option checked and converted:
    ``interval`` to an Interval, ``grid`` to (lo, hi, count) or a table
    file path, and ``points``, ``knots`` and ``nodes`` to float tuples."""
    if argv is None:
        argv = sys.argv[1:]
    config = build_parser().parse_args(_merge_dash_values(argv))
    if config.seed is None:
        config.seed = _default_seed()
    if not (0 < config.atol < math.inf and 0 < config.rtol < math.inf):
        raise ArgumentError("tolerances must be positive and finite")
    if config.budget < 1:
        raise ArgumentError("budget must be >= 1")
    if config.interval is not None:
        config.interval = parse_interval(config.interval.split(":"))
    if config.grid is not None:
        config.grid = _parse_grid(config.grid)
    for name in ("points", "knots", "nodes"):
        text = getattr(config, name)
        if text is not None:
            setattr(config, name, parse_floats(text, name))
    return config


def _resolve_system(config: argparse.Namespace) -> ChebyshevSystem:
    spec = config.system
    if os.path.isfile(spec):
        with open_text(spec, "--system") as handle:
            system = parse_system(handle.read(), name=os.path.basename(spec))
        return system if config.interval is None else replace(system, interval=config.interval)
    return named_system(spec, config.interval)


def _resolve_grid(config: argparse.Namespace, system: ChebyshevSystem) -> list[float]:
    if isinstance(config.grid, str):
        with open_text(config.grid, "--grid") as handle:
            return list(load_table(handle).xs)
    lo, hi, count = config.grid
    return uniform_grid(system.interval, count, lo, hi)


def _resolve_target_and_grid(config: argparse.Namespace, system: ChebyshevSystem
                             ) -> tuple[FunctionSource, list[float]]:
    """The target of ``--f``, then the grid. When ``--f table:PATH`` and
    ``--grid PATH`` name one file, it is parsed once: the target's
    abscissae are the grid."""
    f = parse_function(config.function)
    table = table_spec(config.function)
    if table is not None and isinstance(config.grid, str) and table[0] == config.grid:
        return f, list(f.xs)
    return f, _resolve_grid(config, system)


# ---------------------------------------------------------------------------
# Serialization

def _num(x):
    if isinstance(x, float) and not math.isfinite(x):
        return ("inf" if x > 0 else "-inf") if not math.isnan(x) else "nan"
    return x


def _interval_dict(interval: Interval) -> dict:
    return {"lo": _num(interval.lo), "hi": _num(interval.hi),
            "lo_open": interval.lo_open, "hi_open": interval.hi_open}


def _system_dict(system: ChebyshevSystem) -> dict:
    return {"name": system.name, "n": system.n,
            "basis": [b.describe() for b in system.basis],
            "interval": _interval_dict(system.interval)}


def _classification_dict(result: SystemClassification) -> dict:
    return {"verdict": result.verdict,
            "witness": list(result.witness) if result.witness else None,
            "tuples_checked": result.tuples_checked,
            "coverage": result.coverage}


def _certificate_dict(cert: ConvexityCertificate) -> dict:
    return {"method": cert.method, "verdict": cert.verdict,
            "tuples_checked": cert.tuples_checked,
            "coverage": cert.coverage,
            "min_value": cert.min_value,
            "witness": list(cert.witness) if cert.witness else None,
            "witness_value": cert.witness_value,
            "atol": cert.atol, "rtol": cert.rtol, "seed": cert.seed,
            "skipped": cert.skipped,
            "linear_table_interpolation": cert.linear_table}


def _monotonicity_dict(report: MonotonicityReport) -> dict:
    return {"knots": list(report.knots),
            "scan": [[x, v] for x, v in report.scan],
            "violations": [[[x0, v0], [x1, v1]]
                           for (x0, v0), (x1, v1) in report.violations],
            "ok": report.ok}


def _dd_dict(dd: DividedDifference) -> dict:
    return {"value": dd.value, "points": list(dd.points),
            "conditioning": dd.conditioning,
            "ill_conditioned": dd.ill_conditioned}


def _pattern_dict(pattern: support_mod.SignPatternReport) -> dict:
    return {"overall": pattern.overall, "excluded": pattern.excluded,
            "segments": [{"index": s.index, "lo": _num(s.lo), "hi": _num(s.hi),
                          "required_sign": s.required_sign,
                          "points_checked": s.points_checked,
                          "violations": [[x, d] for x, d in s.violations]}
                         for s in pattern.segments]}


def _support_dict(result: SupportResult, f: FunctionSource) -> dict:
    return {"knots": list(result.knots),
            "coefficients": list(result.omega.coefficients),
            "omega": result.omega.describe(),
            "c_n": {"estimate": result.c_n.estimate,
                    "converged": result.c_n.converged,
                    "monotone_ok": result.c_n.monotone_ok,
                    "h_trace": [[h, v] for h, v in result.c_n.h_sequence]},
            "pattern": _pattern_dict(result.pattern),
            "linear_table_interpolation":
                bool(getattr(f, "uses_linear_interpolation", False))}


# ---------------------------------------------------------------------------
# Command execution

def _run_classify(config: argparse.Namespace) -> tuple[dict, int]:
    system = _resolve_system(config)
    grid = _resolve_grid(config, system)
    result = classify_on_grid(system, grid, budget=config.budget, seed=config.seed)
    code = EXIT_OK if result.verdict in ("positive", "negative") else EXIT_VIOLATED
    return {"system": _system_dict(system),
            "classification": _classification_dict(result)}, code


def _run_dd(config: argparse.Namespace) -> tuple[dict, int]:
    system = _resolve_system(config)
    f = parse_function(config.function)
    dd = gdd(system, config.points, f)
    doc = {"system": _system_dict(system), "function": f.describe(),
           "dd": _dd_dict(dd)}
    if config.classical:
        doc["classical"] = classical_dd(config.points, f)
    return doc, EXIT_OK


def _run_certify(config: argparse.Namespace) -> tuple[dict, int]:
    system = _resolve_system(config)
    f, grid = _resolve_target_and_grid(config, system)
    doc = {"system": _system_dict(system), "function": f.describe(),
           "disclaimer": "grid certification is necessary-but-not-sufficient "
                         "evidence; it proves nothing on the continuum"}
    if config.method == "theoremA":
        cert = certify_theorem_a(system, f, grid, budget=config.budget,
                                 seed=config.seed, atol=config.atol, rtol=config.rtol)
    elif config.method == "corollary1":
        cert = certify_corollary1(system, f, grid, budget=config.budget,
                                  seed=config.seed, atol=config.atol, rtol=config.rtol)
    elif config.method == "theorem2":
        if not config.knots:
            raise ArgumentError("--method theorem2 requires --knots")
        report = scan_theorem2(system, f, config.knots, grid,
                               atol=config.atol, rtol=config.rtol)
        doc["monotonicity"] = _monotonicity_dict(report)
        return doc, EXIT_OK if report.ok else EXIT_VIOLATED
    else:
        if not config.nodes:
            raise ArgumentError("--method definition requires --nodes")
        cert = verify_definition(system, f, config.nodes, grid,
                                 atol=config.atol, rtol=config.rtol)
    doc["certificate"] = _certificate_dict(cert)
    return doc, EXIT_OK if cert.verdict == CERTIFIED else EXIT_VIOLATED


def _run_support(config: argparse.Namespace) -> tuple[dict, int]:
    system = _resolve_system(config)
    f, grid = _resolve_target_and_grid(config, system)
    result = build_support(system, f, config.knots, grid,
                           atol=config.atol, rtol=config.rtol)
    doc = {"system": _system_dict(system), "function": f.describe(),
           "support": _support_dict(result, f)}
    if config.fmt == "columns":
        doc["_columns"] = _column_rows(f, result, grid)
    return doc, EXIT_OK if result.pattern.overall else EXIT_VIOLATED


def _run_paper_example(config: argparse.Namespace) -> tuple[dict, int]:
    interval = Interval(-2.0, 3.0)
    system = polynomial_system(3, interval)
    f = ExpressionSource("monomial", (3,))
    knots = (0.0, 1.0)
    grid = uniform_grid(interval, 100)
    result = build_support(system, f, knots, grid,
                           atol=config.atol, rtol=config.rtol)
    expected = (0.0, -1.0, 2.0)
    got = result.omega.coefficients
    checks = [
        {"name": "coefficients equal (0, -1, 2) within 1e-6",
         "pass": all(abs(a - b) <= 1e-6 for a, b in zip(got, expected)),
         "detail": f"got {list(got)}"},
        {"name": "limit estimate equals 2 within 1e-6",
         "pass": abs(result.c_n.estimate - 2.0) <= 1e-6,
         "detail": f"estimate {result.c_n.estimate!r} from "
                   f"{len(result.c_n.h_sequence)} samples"},
        {"name": "limit trace is nonincreasing",
         "pass": result.c_n.monotone_ok, "detail": ""},
        {"name": "difference is nonpositive left of 0, nonnegative on (0, 1) "
                 "and beyond 1, with zero violations on the grid",
         "pass": result.pattern.overall and
                 all(not s.violations for s in result.pattern.segments),
         "detail": f"checked {[s.points_checked for s in result.pattern.segments]} "
                   f"points per segment"},
        {"name": "combination matches the target at both knots",
         "pass": all(abs(result.omega(k) - f(k)) <= 1e-9 for k in knots),
         "detail": ""},
    ]
    doc = {"system": _system_dict(system), "function": f.describe(),
           "grid": {"lo": -2.0, "hi": 3.0, "count": 100},
           "support": _support_dict(result, f),
           "checks": checks}
    if config.fmt == "columns":
        doc["_columns"] = _column_rows(f, result, grid)
    code = EXIT_OK if all(c["pass"] for c in checks) else EXIT_VIOLATED
    return doc, code


def _column_rows(f, result: SupportResult, grid: Sequence[float]) -> list[tuple]:
    """Plot rows ``(x, f, omega, f - omega, segment)`` for every grid point;
    f and omega are evaluated only at the points that the sign-pattern
    check skipped."""
    checked = {x: (fx, ox) for x, fx, ox in result.pattern.values}
    fxs, oxs = zip(*[checked.get(x) or (f(x), result.omega(x)) for x in grid])
    segments = [1 + bisect.bisect_left(result.knots, x) for x in grid]
    return list(zip(grid, fxs, oxs, map(operator.sub, fxs, oxs), segments))


_RUNNERS = {
    "classify": _run_classify,
    "dd": _run_dd,
    "certify": _run_certify,
    "support": _run_support,
    "reproduce-paper-example": _run_paper_example,
}


# ---------------------------------------------------------------------------
# Rendering

def render_structured(doc: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline, for
    the keys of ``doc`` that do not start with "_"."""
    payload = {k: v for k, v in doc.items() if not k.startswith("_")}
    return _encode(payload, "") + "\n"


def _encode(value, indent: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` nested at ``indent``.
    Dicts with string keys and lists are walked here; a list of finite
    floats, or of equal-length rows of them, at any depth, is written with
    one ``%r`` template. Everything else goes to ``json.dumps`` itself: its
    newlines are structural, so nesting only indents them."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        return repr(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        return "{\n" + inner + (",\n" + inner).join(
            encode_basestring_ascii(k) + ": " + _encode(v, inner)
            for k, v in sorted(value.items())) + "\n" + indent + "}"
    if (kind is list or kind is tuple) and value:
        text = _float_array(value, indent)
        if text is None:
            text = "[\n" + inner + (",\n" + inner).join(
                _encode(v, inner) for v in value) + "\n" + indent + "]"
        return text
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _float_array(value, indent: str) -> Optional[str]:
    """The JSON of ``value`` nested at ``indent`` when it is a nonempty list
    whose leaves are finite floats, all at one depth, with equal lengths at
    each level, else None. A finite float's repr has no "n"; "nan" and
    "inf" have one."""
    shape, leaves = [len(value)], value
    while True:
        kinds = set(map(type, leaves))
        if kinds == {float}:
            break
        lengths = set(map(len, leaves)) if kinds <= {list, tuple} else ()
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        leaves = list(itertools.chain.from_iterable(leaves))
    template = "%r"
    for depth in reversed(range(len(shape))):
        outer = indent + "  " * depth
        inner = outer + "  "
        template = ("[\n" + inner + (",\n" + inner).join([template] * shape[depth])
                    + "\n" + outer + "]")
    text = template % tuple(leaves)
    return None if "n" in text else text


def emit_columns(doc: dict) -> str:
    """Plot-ready columns (x, f, omega, f - omega, segment id) for support
    and worked-example reports, one ``%r`` template per row."""
    rows = doc.get("_columns")
    if rows is None:
        raise ArgumentError("columns output needs a support or example report")
    return "".join(["x f omega diff segment\n",
                    *map("%r %r %r %r %s\n".__mod__, map(tuple, rows))])


def _render_human(doc: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                emit(f"{prefix}.{key}" if prefix else key, sub)
        elif isinstance(value, list) and len(value) > 8:
            lines.append(f"{prefix}: [{len(value)} entries]")
        else:
            lines.append(f"{prefix}: {value}")

    for key, value in doc.items():
        if not key.startswith("_"):
            emit(key, value)
    return "\n".join(lines) + "\n"


def render(doc: dict, config: argparse.Namespace) -> str:
    if config.fmt == "structured":
        return render_structured(doc)
    if config.fmt == "columns":
        return emit_columns(doc)
    return _render_human(doc)


def main(argv: Optional[Sequence[str]] = None, stream: Optional[TextIO] = None) -> int:
    stream = stream if stream is not None else sys.stdout
    try:
        config = parse_config(argv)
        doc, code = _RUNNERS[config.command](config)
        doc = {"schema": SCHEMA, "command": config.command, "seed": config.seed,
               "tolerances": {"atol": config.atol, "rtol": config.rtol},
               "budget": config.budget, **doc}
        text = render(doc, config)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            stream.write(text)
        return code
    except (ChebConvexError, OSError, UnicodeError) as exc:
        # A file that cannot be opened, read as UTF-8 or written is a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
