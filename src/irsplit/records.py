"""Per-run records and the one result type of the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any

import numpy as np

CONVERGED = "converged"
BUDGET_EXCEEDED = "budget_exceeded"
ERROR = "error"
SOLVED = "solved"  # a driver status only: an exact solution turned up
STALLED = "stalled"  # a driver status only: the inner budget ran out

_RECORD_STATUS = {SOLVED: CONVERGED, STALLED: BUDGET_EXCEEDED}


@dataclass
class RunRecord:
    """Outcome of one solver run: counts, wall time and final residuals; a
    plain record, checked only where ``irsplit.bench`` reads a file."""

    outer_iters: int
    inner_iters_total: int
    wall_seconds: float
    final_kkt: float
    final_objective: float
    status: str = CONVERGED
    cause: str = ""  # a failed run's failure, layer and outer iteration


@dataclass
class RunResult:
    """What ``run_hpp``, ``run_admm``, ``run_dr`` and ``fista_solve``
    return: the estimate ``x``, the driver's ``status``, the ``record``
    and, from the one outer loop of the first three, the last iterate as
    ``triple`` (a splitting triple for ``run_hpp``, whose ``x`` is its
    engine point r + b)."""

    x: np.ndarray
    status: str
    record: RunRecord
    triple: Any = None

    outer_iters = property(attrgetter("record.outer_iters"))
    inner_iters_total = property(attrgetter("record.inner_iters_total"))


def run_result(x, status: str, outer_iters: int, inner_iters_total: int,
               wall_seconds: float, final_kkt: float, final_objective: float,
               cause: str = "", triple: Any = None) -> RunResult:
    """The result of a run that ended with driver status ``status``, which
    its record maps to its own; a ``cause`` gets the last outer iteration
    appended."""
    if cause:
        cause += f" at outer iteration {outer_iters}"
    record = RunRecord(outer_iters, inner_iters_total, wall_seconds,
                       final_kkt, final_objective,
                       _RECORD_STATUS.get(status, status), cause)
    return RunResult(x, status, record, triple)
