"""Exception types shared across the solver layers."""


class ParameterError(ValueError):
    """A parameter violates its admissibility contract."""


class ZeroVectorError(ValueError):
    """A denominator vector is zero; the caller holds an exact solution."""


class OracleFailure(RuntimeError):
    """An inexact-resolvent oracle could not meet its acceptance test."""


class CGBreakdown(RuntimeError):
    """Conjugate gradient hit nonpositive curvature (operator not SPD)."""


class LineSearchFailure(RuntimeError):
    """Backtracking line search exhausted its budget without descent."""


class ParseError(ValueError):
    """A dataset file failed to parse; the message names the line."""
