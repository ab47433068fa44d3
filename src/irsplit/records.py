"""Per-run metric records shared by the solvers and the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass

CONVERGED = "converged"
BUDGET_EXCEEDED = "budget_exceeded"
ERROR = "error"

_STATUSES = (CONVERGED, BUDGET_EXCEEDED, ERROR)


@dataclass
class RunRecord:
    """Outcome of one solver run: counts, wall time and final residuals."""

    outer_iters: int
    inner_iters_total: int
    wall_seconds: float
    final_kkt: float
    final_objective: float
    status: str = CONVERGED

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.outer_iters < 0 or self.inner_iters_total < 0:
            raise ValueError("iteration counts must be nonnegative")
        if self.wall_seconds < 0:
            raise ValueError("wall_seconds must be nonnegative")
