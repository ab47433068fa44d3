"""Partially inexact relative-error inertial-relaxed ADMM for min f + g.

The f-subproblem is solved approximately by an F-procedure (one trial per
inner step, each trial certified by the exact gradient of the augmented
subobjective); the g-subproblem is solved exactly through a shifted prox.
Acceptance uses either the summed-squares test or the strictly stronger
max-form test.  Under the change of variables ``(s, b, r) = (x, -p, z)``
with scaling ``gamma = 1/c`` the recursion coincides with the inexact
Douglas-Rachford layer applied to A = subdiff(g), B = subdiff(f); the
F-procedure becomes a B-procedure through :func:`f_to_b_adapter`.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .dr import SplitTriple, reset_procedure
from .errors import BudgetExceeded, ParameterError, ZeroVectorError
from .hpp import InertiaRelaxParams, validate_params
from .records import BUDGET_EXCEEDED, CONVERGED, RunRecord

__all__ = [
    "Criterion",
    "PrimalDualTriple",
    "ADMMParams",
    "FProcedure",
    "ShiftedProxG",
    "AdmmProblem",
    "admm_extrapolate",
    "multiplier_candidate",
    "admm_acceptance",
    "theta_admm",
    "p_update",
    "f_to_b_adapter",
    "InnerTrial",
    "ADMMStep",
    "ADMMResult",
    "run_admm",
    "embed_to_dr",
]


class Criterion(enum.Enum):
    """Inner acceptance test: summed squares, or the stronger max form."""

    SUM_SQUARES = "sum_squares"
    MAX_FORM = "max_form"


@dataclass
class PrimalDualTriple:
    """Primal pair (x, z) and multiplier p.

    Construction converts the components to float arrays and checks that
    they share one shape and are finite.  :func:`run_admm` applies that
    check to its starting triple and carries its iterates as plain arrays;
    it builds triples only for its result, a ``BudgetExceeded`` state and
    the trace rows.
    """

    x: np.ndarray
    z: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if not (self.x.shape == self.z.shape == self.p.shape):
            raise ValueError("triple components must share one shape")
        for name, v in (("x", self.x), ("z", self.z), ("p", self.p)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} has non-finite entries")

    @classmethod
    def zeros(cls, n: int) -> "PrimalDualTriple":
        return cls(np.zeros(n), np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class ADMMParams:
    """Penalty c, engine parameters, acceptance criterion and budgets."""

    c: float
    core: InertiaRelaxParams
    criterion: Criterion = Criterion.MAX_FORM
    epsilon: float = 1e-6
    inner_budget: int = 10_000
    max_outer: int = 10_000
    kkt_stride: int = 1

    def validate(self):
        if not self.c > 0.0:
            raise ParameterError("c > 0 violated")
        if not self.epsilon >= 0.0:
            raise ParameterError("epsilon >= 0 violated")
        if self.inner_budget < 1 or self.max_outer < 0:
            raise ParameterError("budgets must be positive")
        if self.kkt_stride < 1:
            raise ParameterError("kkt_stride must be positive")
        validate_params(self.core)


class FProcedure(Protocol):
    """Iterative solver family for min_x f(x) + <p, x> + (c/2)||x - z||^2.

    ``open_session(p, z, c, x_bar)`` starts a solve warm started at
    ``x_bar``; ``session.next()`` yields trial pairs ``(x_l, y_l)`` where
    ``y_l`` is a subgradient of the augmented subobjective at ``x_l`` and
    y_l -> 0.  A session may expose ``exact = True``, asserting each trial
    is an exact minimizer (emitted with y_l = 0).

    The sessions of one run may share state that steers the search, such as
    curvature memory, but never the certificate: each ``y_l`` is evaluated
    at its own ``x_l``.  A procedure holding such state exposes
    ``reset()``, which the drivers call at run entry, so a run does not
    depend on the runs before it.
    """

    def open_session(self, p: np.ndarray, z: np.ndarray, c: float,
                     x_bar: np.ndarray):
        ...


class ShiftedProxG(Protocol):
    """Exact solver for min_z g(z) - <p, z> + (c/2)||x - z||^2."""

    def solve(self, p: np.ndarray, x: np.ndarray, c: float) -> np.ndarray:
        ...


@dataclass
class AdmmProblem:
    """Everything a run needs: subproblem engines, stopping residual, objective."""

    fproc: FProcedure
    prox_g: ShiftedProxG
    kkt_residual: Callable[[np.ndarray], float]
    objective: Optional[Callable[[np.ndarray], float]] = None
    dim: Optional[int] = None


def _extrapolate(cur: np.ndarray, prev: np.ndarray,
                 alpha_k: float) -> np.ndarray:
    return cur + alpha_k * (cur - prev)


def admm_extrapolate(cur: PrimalDualTriple, prev: PrimalDualTriple,
                     alpha_k: float) -> PrimalDualTriple:
    """Componentwise inertial extrapolation of the triple."""
    if alpha_k < 0.0:
        raise ParameterError("alpha_k must be nonnegative")
    if cur.x.shape != prev.x.shape:
        raise ValueError("dimension mismatch between current and previous triples")
    return PrimalDualTriple(
        _extrapolate(cur.x, prev.x, alpha_k),
        _extrapolate(cur.z, prev.z, alpha_k),
        _extrapolate(cur.p, prev.p, alpha_k),
    )


def multiplier_candidate(p_hat: np.ndarray, x_l: np.ndarray, z_hat: np.ndarray,
                         y_l: np.ndarray, c: float) -> np.ndarray:
    """Trial multiplier p_l = p_hat + c (x_l - z_hat) - y_l."""
    if not c > 0.0:
        raise ParameterError("c > 0 violated")
    return p_hat + c * (x_l - z_hat) - y_l


def admm_acceptance(y_l, p_l, p_hat, z_l, z_hat, x_l, c: float, sigma: float,
                    criterion: Criterion = Criterion.MAX_FORM) -> bool:
    """Inner acceptance test at tolerance sigma.

    SUM_SQUARES: ||y||^2 <= sigma^2 (||p_l - p_hat - c(z_l - z_hat)||^2
    + c^2 ||x_l - z_l||^2).  MAX_FORM replaces the sum by the max of norms
    and implies SUM_SQUARES.
    """
    t = p_l - p_hat - c * (z_l - z_hat)
    d = x_l - z_l
    if criterion is Criterion.SUM_SQUARES:
        return y_l @ y_l <= sigma * sigma * (t @ t + (c * c) * (d @ d))
    return math.sqrt(y_l @ y_l) <= sigma * max(
        math.sqrt(t @ t), c * math.sqrt(d @ d))


def _theta(z_hat: np.ndarray, p_hat: np.ndarray, x_l: np.ndarray,
           z_l: np.ndarray, p_l: np.ndarray, c: float) -> float:
    d = x_l - z_l
    dd = d @ d
    if dd == 0.0:
        raise ZeroVectorError("x = z: solution found")
    if not math.isfinite(dd):
        # an inf in x_l or z_l: the subtractions below would be inf - inf
        return math.nan
    t = c * (z_hat - z_l) - (p_hat - p_l)
    return float((t @ d) / (c * dd))


def theta_admm(hat: PrimalDualTriple, x_l: np.ndarray, z_l: np.ndarray,
               p_l: np.ndarray, c: float) -> float:
    """Projection coefficient; equals the splitting-layer theta under the
    (x, -p, z) change of variables with gamma = 1/c.

    Raises ``ZeroVectorError`` when x_l = z_l (solution found).
    """
    return _theta(hat.z, hat.p, x_l, z_l, p_l, c)


def p_update(p_hat: np.ndarray, z_hat: np.ndarray, z_next: np.ndarray,
             x_next: np.ndarray, theta_val: float, rho_k: float,
             c: float) -> np.ndarray:
    """Projective multiplier correction closing the outer iteration.

    p_next = p_hat + c [(1 - rho theta) z_next + rho theta x_next - z_hat].
    """
    rw = rho_k * theta_val
    return p_hat + c * ((1.0 - rw) * z_next + rw * x_next - z_hat)


# ---------------------------------------------------------------------------
# F-procedure -> B-procedure adapter
# ---------------------------------------------------------------------------

class _AdaptedSession:
    def __init__(self, fsession, r, b, gamma):
        self._fsession = fsession
        self._r = r
        self._b = b
        self._gamma = gamma
        self.exact = bool(getattr(fsession, "exact", False))

    def next(self):
        x, y = self._fsession.next()
        b_l = y + (self._b - (x - self._r) / self._gamma)
        return x, b_l


class FToBAdapter:
    """View an F-procedure for f as a B-procedure for B = subdiff(f).

    B(r, b, gamma, s_bar, b_bar) = F(-b, r, 1/gamma, s_bar) + (0, b -
    (F_1 - r)/gamma); the warm-start slope ``b_bar`` is accepted and
    ignored.
    """

    def __init__(self, fproc: FProcedure):
        self.fproc = fproc

    def reset(self) -> None:
        reset_procedure(self.fproc)

    def open_session(self, r, b, gamma, s_bar, b_bar):
        fsession = self.fproc.open_session(-b, r, 1.0 / gamma, s_bar)
        return _AdaptedSession(fsession, r, b, gamma)


def f_to_b_adapter(fproc: FProcedure) -> FToBAdapter:
    return FToBAdapter(fproc)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

@dataclass
class InnerTrial:
    x: np.ndarray
    y: np.ndarray
    p_l: np.ndarray
    z_l: np.ndarray
    accepted: bool


@dataclass
class ADMMStep:
    """One recorded outer iteration, including every inner trial."""

    hat: PrimalDualTriple
    x: np.ndarray
    y: np.ndarray
    p_l: np.ndarray
    z_l: np.ndarray
    trials: int
    theta: float
    rho_k: float
    alpha_k: float
    next: PrimalDualTriple
    p_gap: float
    inner: Optional[list] = None


@dataclass
class ADMMResult:
    """``x`` is the solution estimate: the g-side iterate, whose exact
    shrink step can produce exact zeros; the smooth-side iterate never
    does, and the sup-norm subdifferential distance is discontinuous at
    components that are merely close to zero."""

    x: np.ndarray
    triple: PrimalDualTriple
    status: str
    outer_iters: int
    inner_iters_total: int
    record: RunRecord
    trace: Optional[list] = None


def run_admm(problem: AdmmProblem, params: ADMMParams,
             init: Optional[PrimalDualTriple] = None,
             keep_trace: bool = False) -> ADMMResult:
    """Run the inexact inertial-relaxed ADMM until the outer residual test.

    Stops when the KKT residual at the g-side iterate falls to
    ``params.epsilon`` (checked every ``kkt_stride`` outer iterations), on
    the exact coincidence x_l = z_l, or with status ``budget_exceeded``
    after ``max_outer`` iterations.  The inner budget raises
    ``BudgetExceeded``: with sigma > 0 a conforming F-procedure is always
    accepted eventually.

    Inputs are validated once, at entry: ``params`` (c > 0, alpha and the
    other engine parameters) and the starting triple (one shape, of length
    ``problem.dim`` when that is set, finite entries).  The iterates are
    then carried as plain arrays.  The projection coefficient theta reads
    the extrapolated z and p and the accepted trial's x, z and p, so a NaN
    or inf entering through the F-procedure or the prox makes it
    non-finite; that raises ``ValueError`` naming the outer iteration.
    """
    params.validate()
    if init is None:
        if problem.dim is None:
            raise ValueError("problem.dim required for the default zero start")
        init = PrimalDualTriple.zeros(problem.dim)
    else:
        init = PrimalDualTriple(init.x, init.z, init.p)
        if problem.dim is not None and init.x.shape != (problem.dim,):
            raise ValueError(f"init has shape {init.x.shape}, "
                             f"expected ({problem.dim},)")
    c = params.c
    sigma = params.core.sigma
    alpha = params.core.alpha
    rho = params.core.rho_hi
    reset_procedure(problem.fproc)
    x, z, p = init.x, init.z, init.p
    x_prev, z_prev, p_prev = x, z, p
    inner_total = 0
    trace: list = []
    started = time.perf_counter()
    status = BUDGET_EXCEEDED
    outer = params.max_outer
    solution = z
    final_kkt = None
    for k in range(params.max_outer):
        if k % params.kkt_stride == 0:
            kkt = float(problem.kkt_residual(z))
            if kkt <= params.epsilon:
                status = "converged"
                outer = k
                solution = z
                final_kkt = kkt
                break
        x_hat = _extrapolate(x, x_prev, alpha)
        z_hat = _extrapolate(z, z_prev, alpha)
        p_hat = _extrapolate(p, p_prev, alpha)
        session = problem.fproc.open_session(p_hat, z_hat, c, x_hat)
        exact = bool(getattr(session, "exact", False))
        inner_rows: list = []
        accepted = False
        for trial in range(1, params.inner_budget + 1):
            x_l, y_l = session.next()
            p_l = multiplier_candidate(p_hat, x_l, z_hat, y_l, c)
            z_l = problem.prox_g.solve(p_l, x_l, c)
            accepted = exact or admm_acceptance(
                y_l, p_l, p_hat, z_l, z_hat, x_l, c, sigma, params.criterion)
            if keep_trace:
                inner_rows.append(InnerTrial(x_l, y_l, p_l, z_l, accepted))
            if accepted:
                break
        if not accepted:
            raise BudgetExceeded(
                f"F-procedure not accepted within {params.inner_budget} trials",
                state=PrimalDualTriple(x, z, p))
        inner_total += trial
        if np.array_equal(x_l, z_l):
            status = "solved"
            outer = k
            solution = z_l
            break
        th = _theta(z_hat, p_hat, x_l, z_l, p_l, c)
        if not math.isfinite(th):
            raise ValueError(f"non-finite iterate at outer iteration {k} "
                             f"(theta = {th})")
        if th <= 0.0:
            raise RuntimeError("nonpositive projection coefficient: "
                               "the F-procedure violated its contract")
        p_next = p_update(p_hat, z_hat, z_l, x_l, th, rho, c)
        if keep_trace:
            gap_vec = p_l - p_hat - c * (z_l - z_hat)
            trace.append(ADMMStep(
                PrimalDualTriple(x_hat, z_hat, p_hat), x_l, y_l, p_l, z_l,
                trial, th, rho, alpha, PrimalDualTriple(x_l, z_l, p_next),
                float(np.linalg.norm(gap_vec)), inner_rows))
        x_prev, z_prev, p_prev = x, z, p
        x, z, p = x_l, z_l, p_next
        solution = z
    wall = time.perf_counter() - started
    if final_kkt is None:
        final_kkt = float(problem.kkt_residual(solution))
    obj = float(problem.objective(solution)) if problem.objective else math.nan
    rec_status = CONVERGED if status in ("converged", "solved") else BUDGET_EXCEEDED
    record = RunRecord(outer, inner_total, wall, final_kkt, obj, rec_status)
    return ADMMResult(solution, PrimalDualTriple(x, z, p), status, outer,
                      inner_total, record, trace if keep_trace else None)


def embed_to_dr(triple: PrimalDualTriple, c: float) -> SplitTriple:
    """Change of variables (s, b, r) = (x, -p, z) onto the splitting layer.

    With scaling gamma = 1/c every run quantity maps onto the splitting
    recursion; the implied exact half-step slope is a = c (s - r) - b.
    """
    if not c > 0.0:
        raise ParameterError("c > 0 violated")
    return SplitTriple(triple.x, -triple.p, triple.z)
