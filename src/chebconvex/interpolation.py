"""Interpolation by linear combinations of a system's basis functions.

A Chebyshev system of n functions interpolates any n values at any n
distinct points uniquely. The constrained variant fixes the coefficient of
the last basis function and interpolates the target at n-1 knots with the
remaining n-1 coefficients; the pointwise difference between the target
and that combination then has a closed determinant form, whose residual is
exposed by :func:`lemma1_residual` as a built-in self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Sequence

from .determinants import check_points, d_det, function_row, solve_with_det, v_det
from .errors import ArgumentError, DegenerateInputError, DomainError, NearSingularError
from .systems import ChebyshevSystem

#: Relative bound on interpolation residuals at the nodes.
NODE_RESIDUAL_RTOL = 1e-9


@dataclass(frozen=True)
class OmegaCombination:
    """A linear combination of a system's basis functions."""

    system: ChebyshevSystem
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.system.n:
            raise ArgumentError("coefficient count must match the system order")

    def __call__(self, x: float) -> float:
        return self.at_rows([(func(x),) for func in self.system.basis], (x,))[0]

    def at_rows(self, rows: Sequence[Sequence[float]], xs: Sequence[float]) -> list[float]:
        """The combination at the points ``xs``, from ``rows[i]``, the values
        of basis function i there: at each point, the ``fsum`` of the
        coefficients times the basis values, in basis order. A value that
        is not finite, or a sum that overflows, raises :class:`DomainError`
        naming the first point where one does, as a basis function that
        overflows there does."""
        scaled = [map(mul, repeat(c), row) for c, row in zip(self.coefficients, rows)]
        values: list[float] = []
        try:  # extend keeps the sums before one that raises
            values.extend(map(math.fsum, zip(*scaled)))
        except (OverflowError, ValueError):  # fsum's intermediate overflow, or inf - inf
            values.append(math.nan)
        if not all(map(math.isfinite, values)):
            x = next(x for x, v in zip(xs, values) if not math.isfinite(v))
            raise DomainError(f"combination {self.describe()} is not finite at x={x!r}")
        return values

    def describe(self) -> str:
        terms = [f"{c:g}*{func.describe()}"
                 for c, func in zip(self.coefficients, self.system.basis)]
        return " + ".join(terms)


def _check_node_residuals(omega: OmegaCombination, nodes: Sequence[float],
                          cols: Sequence[Sequence[float]],
                          targets: Sequence[float]) -> None:
    """Check omega against ``targets`` at the nodes, from the basis values
    ``cols`` that the caller evaluated there."""
    # Tolerance is relative to the cancellation scale of each node equation;
    # a NaN residual fails it too.
    for x, col, want in zip(nodes, cols, targets):
        scale = max(1.0, abs(want), sum(abs(t) for t in map(mul, omega.coefficients, col)))
        if not abs(omega.at_rows(list(zip(col)), (x,))[0] - want) <= NODE_RESIDUAL_RTOL * scale:
            raise NearSingularError(
                f"interpolation residual at node {x!r} exceeds "
                f"{NODE_RESIDUAL_RTOL:g} of scale {scale:g}")


def interpolate(system: ChebyshevSystem, pts: Sequence[float],
                values: Sequence[float]) -> OmegaCombination:
    """The unique combination matching ``values`` at the given points.

    Nodes are sorted ascending internally (determinant sign conventions
    assume ordered columns); the coefficient vector stays basis-ordered.
    """
    pts = check_points(system, pts, system.n)
    values = [float(v) for v in values]
    if len(values) != system.n:
        raise ArgumentError(f"expected {system.n} values, got {len(values)}")
    for v in values:
        if not math.isfinite(v):
            raise ArgumentError(f"non-finite interpolation value {v!r}")
    paired = sorted(zip(pts, values))
    nodes = [x for x, _ in paired]
    targets = [v for _, v in paired]
    matrix = [list(system.evaluate_basis(x)) for x in nodes]
    coeffs, _ = solve_with_det(matrix, targets)
    omega = OmegaCombination(system, tuple(coeffs))
    _check_node_residuals(omega, nodes, matrix, targets)
    return omega


def constrained_interpolate(system: ChebyshevSystem, knots: Sequence[float], f,
                            c_n: float) -> OmegaCombination:
    """Interpolate ``f`` at n-1 knots with the last coefficient pinned.

    Solves the truncated (n-1)-system for the leading coefficients with
    right-hand side f(x_k) - c_n * (last basis)(x_k); the returned
    combination has all n coefficients, the last being ``c_n``.
    """
    n = system.n
    if n < 2:
        raise ArgumentError("constrained interpolation needs a system of order >= 2")
    if not math.isfinite(c_n):
        raise ArgumentError(f"non-finite pinned coefficient c_n={c_n!r}")
    knots = tuple(sorted(check_points(system, knots, n - 1)))
    cols = [system.evaluate_basis(x) for x in knots]
    fvals = function_row(f, knots)
    targets = [v - c_n * c[n - 1] for c, v in zip(cols, fvals)]
    coeffs, _ = solve_with_det([c[:n - 1] for c in cols], targets)
    omega = OmegaCombination(system, tuple(coeffs) + (float(c_n),))
    _check_node_residuals(omega, knots, cols, fvals)
    return omega


def lemma1_residual(system: ChebyshevSystem, knots: Sequence[float], f, c_n: float,
                    x: float) -> float:
    """Absolute residual of the constrained-interpolation difference identity.

    Compares f(x) - omega(x) against its determinant form
    (bordered(knots, x; f) - c_n * full(knots, x)) / truncated(knots),
    where ``x`` occupies the last column in both extended determinants.
    """
    n = system.n
    if n < 2:
        raise ArgumentError("the difference identity needs a system of order >= 2")
    knots = tuple(sorted(check_points(system, knots, n - 1)))
    if any(k == x for k in knots):
        raise DegenerateInputError(f"evaluation point x={x!r} coincides with a knot")
    omega = constrained_interpolate(system, knots, f, c_n)
    lhs = function_row(f, (x,))[0] - omega(x)
    extended = knots + (float(x),)
    bordered = d_det(system.truncate(n - 1), extended, f)
    full = v_det(system, extended)
    base = v_det(system.truncate(n - 1), knots)
    if base.sign == "0":
        raise NearSingularError("truncated determinant degenerated at the knots")
    rhs = (bordered.value - c_n * full.value) / base.value
    return abs(lhs - rhs)
