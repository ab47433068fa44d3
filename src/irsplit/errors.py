"""Exception types shared across the solver layers, and the check of an
iteration budget."""

import numbers


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


def _check_budget(value, name: str, least: int) -> None:
    """``ParameterError`` unless ``value`` is an integer of at least
    ``least``: any ``numbers.Integral`` but a bool, numpy's included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{name} >= {least} violated")
