"""Exception types shared across the solver layers."""


class ParameterError(ValueError):
    """A parameter violates its admissibility contract."""


class CGBreakdown(RuntimeError):
    """Conjugate gradient met a nonpositive curvature along its search
    direction: the operator is not SPD there, or round-off hid its
    curvature.  The message gives the curvature and the direction's norm."""


class LineSearchFailure(RuntimeError):
    """Backtracking line search exhausted its budget without descent."""


class ParseError(ValueError):
    """A dataset file failed to parse; the message names the line."""
