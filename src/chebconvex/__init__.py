"""Chebyshev systems, generalized divided differences, convexity
certificates, and support-type construction.

Everything is a pure function over immutable values; every sampled verdict
records the seed and tolerances it was produced with.
"""

from .convexity import (CERTIFIED, VIOLATED, ConvexityCertificate,
                        MonotonicityReport, certify_corollary1,
                        certify_theorem_a, scan_theorem2, verify_definition)
from .determinants import SignedValue, d_det, v_det
from .divdiff import (DividedDifference, classical_dd, gdd,
                      recurrence_identity_residual)
from .errors import (ArgumentError, ChebConvexError, DegenerateInputError,
                     DomainError, GeometryError, LimitDivergedError,
                     NearSingularError, PreconditionError, ResolutionError,
                     SourceEvalError, TableFormatError)
from .functions import (CallableSource, ExpressionSource, FunctionSource,
                        TableSource, load_table, parse_function)
from .interpolation import (OmegaCombination, constrained_interpolate,
                            interpolate, lemma1_residual)
from .support import (LimitDiagnostics, SignPatternReport, SupportResult,
                      build_support, estimate_cn, verify_sign_pattern)
from .systems import (BasisFunction, ChebyshevSystem, Interval,
                      SystemClassification, classify_on_grid,
                      cosine_sine_system, exponential_system, named_system,
                      negated_polynomial_system, parse_system,
                      polynomial_system, uniform_grid)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "BasisFunction", "CERTIFIED", "CallableSource",
    "ChebConvexError", "ChebyshevSystem", "ConvexityCertificate",
    "DegenerateInputError", "DividedDifference", "DomainError",
    "ExpressionSource", "FunctionSource", "GeometryError", "Interval",
    "LimitDiagnostics", "LimitDivergedError", "MonotonicityReport",
    "NearSingularError", "OmegaCombination", "PreconditionError",
    "ResolutionError", "SignPatternReport", "SignedValue",
    "SourceEvalError", "SupportResult", "SystemClassification",
    "TableFormatError", "TableSource", "VIOLATED", "build_support",
    "certify_corollary1", "certify_theorem_a", "classical_dd",
    "classify_on_grid", "constrained_interpolate", "cosine_sine_system",
    "d_det", "estimate_cn", "exponential_system", "gdd",
    "interpolate", "lemma1_residual", "load_table", "named_system",
    "negated_polynomial_system", "parse_function", "parse_system",
    "polynomial_system", "recurrence_identity_residual", "scan_theorem2",
    "uniform_grid", "v_det", "verify_definition", "verify_sign_pattern",
]
