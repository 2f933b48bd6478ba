"""Request generation for the three benchmark workloads.

A workload is a fixed sequence of rounds. Every round issues each of the
workload's templates once, in a fixed order, so any whole number of rounds
has the same command mix. The benchmark seed only perturbs a template's
details (grid bounds, knots, points, a budget above the exhaustive count,
and the request's own ``--seed``); it never changes a grid size or a
sampling budget, so the cost of a round hardly depends on the seed. Round
``r`` is drawn from its own generator, so rounds are produced on demand
and never repeat a request.

* ``scan_exhaustive``: ``classify`` and ``certify theoremA|corollary1`` with
  C(m, k) <= budget, so the tuple scan is a full lexicographic enumeration
  and the elimination kernel does most of the work. Includes violated
  targets and early-exit non-Chebyshev classifications.
* ``scan_sampled``: the same commands at orders 3-5 on 40-80-point grids with
  C(m, k) far above the budget: the same kernel fed by the seeded rejection
  sampler, with little shared prefix between tuples.
* ``pointwise``: ``support``, ``certify theorem2|definition``, ``dd
  --classical`` and ``reproduce-paper-example`` on 1000-4000-point grids,
  in human, structured and columns formats, some with table targets. No
  tuple scan runs beyond the window precheck.

No request fails on the package as it stands, so two sets of runs count
the same failures (none). Two package defects are kept out of the draw
and recorded in ``test_bench.KnownDefects``: grids stay outside the
zero-test defect's region (``oracle.outside_defect_region`` refuses one
inside it), and ``support`` passes ``--rtol`` SUPPORT_RTOL, at which the
halving limit estimate stops well before rounding noise dominates it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle
from oracle import Expect

WORKLOADS = ("scan_exhaustive", "scan_sampled", "pointwise")


@dataclass(frozen=True)
class Request:
    rid: int
    template: str
    argv: tuple
    fmt: str
    expect: Expect


class Builder:
    """Argument and expectation builder for one template instance."""

    def __init__(self, rng: random.Random, workdir: str, tag: str, fmt: str):
        self.rng = rng
        self.workdir = workdir
        self.tag = tag
        self.fmt = fmt

    def jitter(self, value: float, width: float) -> float:
        return value + self.rng.uniform(-width, width)

    def seed(self) -> str:
        return str(self.rng.randrange(2 ** 31))

    def budget_over(self, total: int) -> int:
        """A budget that keeps C(m, k) = ``total`` an exhaustive scan."""
        return self.rng.randint(total, total + total // 2)

    def table(self, xs, power: int) -> str:
        """Write (x, x^power) rows to a table file and return its path."""
        path = os.path.join(self.workdir, f"{self.tag}.tsv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# x  x^%d\n" % power)
            for x in xs:
                handle.write(f"{x!r} {x ** power!r}\n")
        return path


def _floats(values) -> str:
    return ",".join(repr(v) for v in values)


def _grid_arg(lo: float, hi: float, m: int) -> str:
    return f"{lo!r}:{hi!r}:{m}"


def _exp_rates(n: int) -> str:
    return "exp:" + ",".join(str(i) for i in range(n))


def _poly_bounds(b: Builder) -> tuple[float, float]:
    return b.jitter(-2.0, 0.2), b.jitter(3.0, 0.2)


def _exp_bounds(b: Builder) -> tuple[float, float]:
    return b.jitter(-1.0, 0.1), b.jitter(1.0, 0.1)


# ---------------------------------------------------------------------------
# Scan templates

def _classify_vandermonde(kind: str, n: int, m: int, budget: int):
    """classify poly:n, negpoly:n or exp:0..n-1 on m points."""
    def make(b: Builder):
        lo, hi = _exp_bounds(b) if kind == "exp" else _poly_bounds(b)
        grid = oracle.uniform_grid(lo, hi, m)
        ys = [math.exp(x) for x in grid] if kind == "exp" else grid
        total = math.comb(m, n)
        bud = b.budget_over(total) if total <= budget else budget
        system = _exp_rates(n) if kind == "exp" else f"{kind}:{n}"
        verdict = "negative" if kind == "negpoly" and n % 2 else "positive"
        argv = ["classify", "--system", system, "--grid", _grid_arg(lo, hi, m),
                "--budget", str(bud), "--seed", b.seed(), "--format", b.fmt]
        return argv, oracle.classify_positive(grid, ys, n, bud, verdict)
    return make


def _classify_cos(m: int):
    def make(b: Builder):
        lo, hi = b.jitter(0.1, 0.05), b.jitter(3.0, 0.05)
        grid = oracle.uniform_grid(lo, hi, m)
        argv = ["classify", "--system", "cos", "--grid", _grid_arg(lo, hi, m),
                "--budget", str(b.budget_over(m)), "--format", b.fmt]
        return argv, oracle.classify_cos(grid)
    return make


def _classify_cossin(m: int):
    def make(b: Builder):
        hi = b.jitter(6.0, 0.2)
        grid = oracle.uniform_grid(0.0, hi, m)
        argv = ["classify", "--system", "cossin",
                "--interval", f"0:{2 * math.pi!r}:closed:open",
                "--grid", _grid_arg(0.0, hi, m),
                "--budget", str(b.budget_over(math.comb(m, 2))), "--format", b.fmt]
        return argv, oracle.classify_cossin(grid)
    return make


def _poly_target(target: str, n: int):
    """Bordered determinant and window divided difference of +-x^n w.r.t. poly:n."""
    sign = 1.0 if target == "monomial" else -1.0
    return (lambda t: sign * float(oracle.vandermonde(t)),
            lambda w: sign * math.fsum(w))


def _exp_target(rate: int, n: int):
    """The same for e^(rate x) w.r.t. exp:0..n-1, in y = e^x; rate is n or -1."""
    if rate == n:
        return (lambda t: float(oracle.vandermonde([math.exp(x) for x in t])),
                lambda w: math.fsum(math.exp(x) for x in w))
    return (lambda t: -float(oracle.vandermonde([math.exp(x) for x in t]))
            / math.exp(math.fsum(t)),
            lambda w: math.exp(-math.fsum(w)))


def _certify(method: str, kind: str, n: int, target: str, m: int, budget: int,
             certified: bool):
    """certify theoremA|corollary1 for a Vandermonde-type system."""
    def make(b: Builder):
        if kind == "exp":
            lo, hi = _exp_bounds(b)
            rate = int(target.split(":")[1])
            bordered, window_dd = _exp_target(rate, n)
            system = _exp_rates(n)
        else:
            lo, hi = _poly_bounds(b)
            bordered, window_dd = _poly_target(target.split(":")[0], n)
            system = f"{kind}:{n}"
        grid = oracle.uniform_grid(lo, hi, m)
        ys = [math.exp(x) for x in grid] if kind == "exp" else grid
        total = math.comb(m, n + 1)
        bud = b.budget_over(total) if total <= budget else budget
        argv = ["certify", "--method", method, "--system", system, "--f", target,
                "--grid", _grid_arg(lo, hi, m), "--budget", str(bud),
                "--seed", b.seed(), "--format", b.fmt]
        if method == "theoremA":
            expect = oracle.theorem_a(grid, ys, n, bud, bordered, b.fmt, certified)
        else:
            expect = oracle.corollary1(grid, ys, n, bud, window_dd, b.fmt, certified)
        return argv, expect
    return make


# ---------------------------------------------------------------------------
# Pointwise templates

SPAN_LO, SPAN_HI = -2.0, 3.0
INTERVAL = f"{SPAN_LO!r}:{SPAN_HI!r}"
SPAN = SPAN_HI - SPAN_LO


def _pointwise_grid(b: Builder, m: int) -> tuple[float, float, list]:
    lo, hi = SPAN_LO + b.rng.uniform(0.0, 0.2), SPAN_HI - b.rng.uniform(0.0, 0.2)
    return lo, hi, oracle.uniform_grid(lo, hi, m)


def _knots(b: Builder, n: int) -> list:
    base = {2: [0.5], 3: [0.0, 1.0], 4: [-1.0, 0.0, 1.0]}[n]
    return [b.jitter(k, 0.2) for k in base]


def _snap(grid, values) -> list:
    """The grid points nearest to ``values`` (table targets need abscissae)."""
    return [min(grid, key=lambda x: abs(x - v)) for v in values]


#: Stopping tolerance of support's halving limit estimate. The estimate then
#: stops at h of about SUPPORT_RTOL * |c_n|, so it is off by at most about
#: that (the oracle allows 1e-6), and rounding noise, about eps / h, is far
#: below the tolerance. At the package's default of 1e-8 the two are of a
#: size: the estimate diverges or stops on noise in a few percent of requests.
SUPPORT_RTOL = "1e-7"


def _support(n: int, target: str, m: int):
    def make(b: Builder):
        lo, hi, grid = _pointwise_grid(b, m)
        knots = _knots(b, n)
        argv = ["support", "--system", f"poly:{n}", "--interval", INTERVAL,
                "--f", target, "--knots", _floats(knots),
                "--grid", _grid_arg(lo, hi, m), "--rtol", SUPPORT_RTOL,
                "--format", b.fmt]
        if target.startswith("exp:"):
            expect = oracle.support_exp_line(grid, float(target[4:]), knots[0], b.fmt)
        else:
            expect = oracle.support_monomial(grid, n, knots, b.fmt)
        return argv, expect
    return make


def _theorem2(n: int, target: str, m: int):
    """x -> dd(knots, x) of +-x^n is +-(sum(knots) + x)."""
    def make(b: Builder):
        lo, hi, grid = _pointwise_grid(b, m)
        knots = _knots(b, n)
        grid_arg = _grid_arg(lo, hi, m)
        sign = -1.0 if target == "negmonomial" else 1.0
        if target == "table":
            knots = _snap(grid, knots)
            grid_arg = b.table(grid, n)
            f = f"table:{grid_arg}"
        else:
            f = f"{target}:{n}"
        argv = ["certify", "--method", "theorem2", "--system", f"poly:{n}",
                "--interval", INTERVAL, "--f", f, "--knots", _floats(knots),
                "--grid", grid_arg, "--format", b.fmt]
        total = math.fsum(knots)
        return argv, oracle.theorem2(grid, SPAN, knots,
                                     lambda x: sign * (total + x), b.fmt, sign > 0)
    return make


def _definition(n: int, target: str, m: int):
    def make(b: Builder):
        lo, hi, grid = _pointwise_grid(b, m)
        nodes = [b.jitter(k, 0.2) for k in (-1.0, 0.0, 1.0, 2.0)[:n]]
        grid_arg = _grid_arg(lo, hi, m)
        f = f"monomial:{n}"
        if target == "table":
            nodes = _snap(grid, nodes)
            grid_arg = b.table(grid, n)
            f = f"table:{grid_arg}"
        elif target == "table-linear":
            # Four times denser than the grid, and off its points.
            f = f"table:{b.table(oracle.uniform_grid(SPAN_LO, SPAN_HI, 4 * m + 1), n)}:linear"
        argv = ["certify", "--method", "definition", "--system", f"poly:{n}",
                "--interval", INTERVAL, "--f", f, "--nodes", _floats(nodes),
                "--grid", grid_arg, "--format", b.fmt]
        return argv, oracle.definition_monomial(
            grid, SPAN, nodes, b.fmt, exact_target=target != "table-linear",
            linear_table=target == "table-linear")
    return make


def _dd(n: int, power: int):
    def make(b: Builder):
        base = (-1.5, -0.2, 1.1, 2.4, 3.7)[:n]
        points = [b.jitter(x, 0.2) for x in base]
        argv = ["dd", "--system", f"poly:{n}", "--f", f"monomial:{power}",
                "--points", _floats(points), "--classical", "--format", b.fmt]
        return argv, oracle.divided_difference(points, power)
    return make


def _paper_example():
    def make(b: Builder):
        return (["reproduce-paper-example", "--format", b.fmt],
                oracle.paper_example(b.fmt))
    return make


Template = Callable[[Builder], tuple]

TEMPLATES: dict[str, list[tuple[str, str, Template]]] = {
    "scan_exhaustive": [
        ("classify poly:2 m60", "human", _classify_vandermonde("poly", 2, 60, 3000)),
        ("classify poly:3 m24", "human", _classify_vandermonde("poly", 3, 24, 3000)),
        ("classify poly:4 m17", "structured", _classify_vandermonde("poly", 4, 17, 3000)),
        ("classify exp:0,1,2 m24", "human", _classify_vandermonde("exp", 3, 24, 3000)),
        ("classify negpoly:3 m24", "human", _classify_vandermonde("negpoly", 3, 24, 3000)),
        ("classify negpoly:4 m17", "structured", _classify_vandermonde("negpoly", 4, 17, 3000)),
        ("classify cos m200", "human", _classify_cos(200)),
        ("classify cossin m60", "structured", _classify_cossin(60)),
        ("theoremA poly:2 x^2 m24", "structured",
         _certify("theoremA", "poly", 2, "monomial:2", 24, 3000, True)),
        ("theoremA poly:3 x^3 m16", "structured",
         _certify("theoremA", "poly", 3, "monomial:3", 16, 3000, True)),
        ("theoremA poly:4 -x^4 m13", "structured",
         _certify("theoremA", "poly", 4, "negmonomial:4", 13, 3000, False)),
        ("theoremA exp:0,1,2 e^3x m16", "structured",
         _certify("theoremA", "exp", 3, "exp:3", 16, 3000, True)),
        ("theoremA negpoly:2 x^2 m24", "human",
         _certify("theoremA", "negpoly", 2, "monomial:2", 24, 3000, True)),
        ("corollary1 poly:3 x^3 m16", "structured",
         _certify("corollary1", "poly", 3, "monomial:3", 16, 3000, True)),
        ("corollary1 poly:4 -x^4 m13", "structured",
         _certify("corollary1", "poly", 4, "negmonomial:4", 13, 3000, False)),
        ("corollary1 exp:0,1,2 e^3x m16", "structured",
         _certify("corollary1", "exp", 3, "exp:3", 16, 3000, True)),
        ("corollary1 exp:0,1,2 e^-x m16", "human",
         _certify("corollary1", "exp", 3, "exp:-1", 16, 3000, False)),
    ],
    "scan_sampled": [
        ("classify poly:3 m60", "human", _classify_vandermonde("poly", 3, 60, 2000)),
        ("classify poly:4 m70", "structured", _classify_vandermonde("poly", 4, 70, 2000)),
        ("classify poly:5 m50", "human", _classify_vandermonde("poly", 5, 50, 2000)),
        ("classify exp:0,1,2,3 m60", "structured", _classify_vandermonde("exp", 4, 60, 2000)),
        ("theoremA poly:3 x^3 m60", "structured",
         _certify("theoremA", "poly", 3, "monomial:3", 60, 2000, True)),
        ("theoremA poly:4 x^4 m50", "structured",
         _certify("theoremA", "poly", 4, "monomial:4", 50, 2000, True)),
        ("theoremA poly:5 x^5 m50", "structured",
         _certify("theoremA", "poly", 5, "monomial:5", 50, 2000, True)),
        ("theoremA poly:4 -x^4 m40", "structured",
         _certify("theoremA", "poly", 4, "negmonomial:4", 40, 2000, False)),
        ("corollary1 poly:3 x^3 m70", "structured",
         _certify("corollary1", "poly", 3, "monomial:3", 70, 2000, True)),
        ("corollary1 poly:4 x^4 m50", "human",
         _certify("corollary1", "poly", 4, "monomial:4", 50, 2000, True)),
        ("corollary1 poly:5 x^5 m40", "structured",
         _certify("corollary1", "poly", 5, "monomial:5", 40, 2000, True)),
        ("corollary1 exp:0,1,2 e^-x m60", "structured",
         _certify("corollary1", "exp", 3, "exp:-1", 60, 2000, False)),
    ],
    "pointwise": [
        ("support poly:3 x^3 m2000", "human", _support(3, "monomial:3", 2000)),
        ("support poly:2 x^2 m3000", "columns", _support(2, "monomial:2", 3000)),
        ("support poly:2 e^x m4000", "structured", _support(2, "exp:1", 4000)),
        ("support poly:3 x^3 m3000", "structured", _support(3, "monomial:3", 3000)),
        ("support poly:4 x^4 m300", "structured", _support(4, "monomial:4", 300)),
        ("theorem2 poly:3 x^3 m2000", "structured", _theorem2(3, "monomial", 2000)),
        ("theorem2 poly:4 x^4 m1500", "human", _theorem2(4, "monomial", 1500)),
        ("theorem2 poly:3 -x^3 m1000", "structured", _theorem2(3, "negmonomial", 1000)),
        ("theorem2 poly:3 table m1200", "structured", _theorem2(3, "table", 1200)),
        ("definition poly:3 x^3 m4000", "structured", _definition(3, "monomial", 4000)),
        ("definition poly:4 x^4 m2000", "human", _definition(4, "monomial", 2000)),
        ("definition poly:3 table m1000", "structured", _definition(3, "table", 1000)),
        ("definition poly:3 table:linear m1500", "structured",
         _definition(3, "table-linear", 1500)),
        ("dd poly:4 x^5", "structured", _dd(4, 5)),
        ("dd poly:3 x^4", "human", _dd(3, 4)),
        ("paper-example structured", "structured", _paper_example()),
        ("paper-example columns", "columns", _paper_example()),
    ],
}

class Workload:
    """The deterministic round sequence of one workload and seed."""

    def __init__(self, name: str, seed: int, workdir: str):
        if name not in TEMPLATES:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.templates = TEMPLATES[name]

    def round(self, r: int) -> list:
        out = []
        for i, (label, fmt, make) in enumerate(self.templates):
            tag = f"r{r}t{i}"
            rng = random.Random(f"{self.name}/{self.seed}/{tag}")
            argv, expect = make(Builder(rng, self.workdir, tag, fmt))
            out.append(Request(r * len(self.templates) + i, label, tuple(argv),
                               fmt, expect))
        return out
