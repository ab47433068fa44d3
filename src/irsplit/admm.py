"""Partially inexact relative-error inertial-relaxed ADMM for min f + g.

The f-subproblem is solved approximately by an F-procedure (one trial per
inner step, each trial certified by the exact gradient of the augmented
subobjective); the g-subproblem is solved exactly through a shifted prox.
Acceptance uses either the summed-squares test or the strictly stronger
max-form test.  Under the change of variables ``(s, b, r) = (x, -p, z)``
with scaling ``gamma = 1/c`` the recursion coincides with the inexact
Douglas-Rachford layer applied to A = subdiff(g), B = subdiff(f); the
F-procedure becomes a B-procedure through :class:`FToBAdapter`, and
:func:`irsplit.dr.run_dr` drives the loop here under that change.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import (CGBreakdown, LineSearchFailure, ParameterError,
                     ZeroVectorError)
from .hpp import InertiaRelaxParams, _extrapolate, validate_params
from .records import BUDGET_EXCEEDED, CONVERGED, ERROR, RunRecord

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
    "FToBAdapter",
    "ADMMResult",
    "reset_procedure",
    "run_admm",
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
    it builds a triple only for its result.
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

    def validate(self):
        if not self.c > 0.0:
            raise ParameterError("c > 0 violated")
        if not self.epsilon >= 0.0:
            raise ParameterError("epsilon >= 0 violated")
        if self.inner_budget < 1 or self.max_outer < 0:
            raise ParameterError("budgets must be positive")
        validate_params(self.core)
        if self.core.lam != 1.0:
            raise ParameterError("lam = 1 required by the splitting layers")


class FProcedure(Protocol):
    """Iterative solver family for min_x f(x) + <p, x> + (c/2)||x - z||^2.

    ``open_session(p, z, c, x_bar)`` starts a solve warm started at
    ``x_bar``; ``session.next()`` yields trial pairs ``(x_l, y_l)`` where
    ``y_l`` is a subgradient of the augmented subobjective at ``x_l`` and
    y_l -> 0.  A session may expose ``exact = True``, asserting each trial
    is an exact minimizer (emitted with y_l = 0).  Emitted arrays are float
    arrays that belong to the session and are read-only for callers: a
    session may emit its own state without a copy, and never modifies an
    emitted array afterwards.  The loop likewise never writes into an
    emitted array, nor into the triple it starts from; it updates in place
    only arrays it has just allocated.

    The sessions of one run may share state that steers the search, such as
    curvature memory, but never the certificate: each ``y_l`` is evaluated
    at its own ``x_l``.  A procedure holding such state exposes
    ``reset()``, which the drivers call at run entry and on every exit,
    normal or raised, so a run does not depend on the runs before it and
    leaves no vectors behind.

    A procedure that declares ``accepts_anchor = True`` takes a fifth
    argument, ``anchor = (x, x_prev, alpha)``: :func:`run_admm` passes the
    current and previous accepted trials it extrapolated ``x_bar = x +
    alpha (x - x_prev)`` from, so the procedure can reuse work done at those
    points.  The procedure must check that it knows both points and fall
    back to computing at ``x_bar`` otherwise; callers that pass no anchor,
    such as a direct user of :class:`FToBAdapter`, get that fallback.
    """

    def open_session(self, p: np.ndarray, z: np.ndarray, c: float,
                     x_bar: np.ndarray):
        ...


class ShiftedProxG(Protocol):
    """Exact solver for min_z g(z) - <p, z> + (c/2)||x - z||^2, returning
    a float array that the loop only reads."""

    def solve(self, p: np.ndarray, x: np.ndarray, c: float) -> np.ndarray:
        ...


@dataclass
class AdmmProblem:
    """Everything a run needs: subproblem engines, stopping residual, objective.

    :func:`run_admm` requires ``kkt_residual``; the loop of
    :func:`irsplit.dr.run_dr` runs with None there, and no KKT test.
    The run calls ``kkt_residual(z, floor)`` with two positional arguments.
    It returns the KKT residual at z, except that a value above ``floor``
    may instead be a lower bound on it (still above ``floor``): it then
    proves only that the test ``residual <= floor`` fails.  A value at or
    below ``floor``, and any value for ``floor = inf``, is the residual.
    """

    fproc: FProcedure
    prox_g: ShiftedProxG
    kkt_residual: Optional[Callable[[np.ndarray, float], float]]
    objective: Optional[Callable[[np.ndarray], float]] = None
    dim: Optional[int] = None


# The private kernels below form each result in one fresh array, by the
# operations of the formula they state, in its order: a product or sum
# written in place with its operands swapped is the same bit for bit.  They
# take float arrays; the public wrappers convert their inputs first.

def _floats(*arrays) -> list:
    return [np.asarray(v, dtype=float) for v in arrays]


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


def _multiplier(p_hat, x_l, z_hat, y_l, c: float) -> np.ndarray:
    """p_hat + c (x_l - z_hat) - y_l."""
    out = x_l - z_hat
    out *= c
    out += p_hat
    out -= y_l
    return out


def multiplier_candidate(p_hat: np.ndarray, x_l: np.ndarray, z_hat: np.ndarray,
                         y_l: np.ndarray, c: float) -> np.ndarray:
    """Trial multiplier p_l = p_hat + c (x_l - z_hat) - y_l."""
    if not c > 0.0:
        raise ParameterError("c > 0 violated")
    return _multiplier(*_floats(p_hat, x_l, z_hat, y_l), c)


def _acceptance_vector(p_l, p_hat, z_l, z_hat, c: float) -> np.ndarray:
    """t = p_l - p_hat - c (z_l - z_hat), which the acceptance test and
    theta share.  It is bit for bit theta's c (z_hat - z_l) - (p_hat - p_l):
    each operand is the exact negation of the other's, and rounding to
    nearest is symmetric in sign."""
    out = p_l - p_hat
    shift = z_l - z_hat
    shift *= c
    out -= shift
    return out


def _accept(y_l, tt: float, dd: float, c: float, sigma: float,
            max_form: bool) -> bool:
    """The acceptance test from tt = t @ t, t = :func:`_acceptance_vector`,
    and dd = ||x_l - z_l||^2."""
    if max_form:
        return math.sqrt(y_l @ y_l) <= sigma * max(math.sqrt(tt),
                                                   c * math.sqrt(dd))
    return y_l @ y_l <= sigma * sigma * (tt + (c * c) * dd)


def admm_acceptance(y_l, p_l, p_hat, z_l, z_hat, x_l, c: float, sigma: float,
                    criterion: Criterion = Criterion.MAX_FORM) -> bool:
    """Inner acceptance test at tolerance sigma.

    SUM_SQUARES: ||y||^2 <= sigma^2 (||p_l - p_hat - c(z_l - z_hat)||^2
    + c^2 ||x_l - z_l||^2).  MAX_FORM replaces the sum by the max of norms
    and implies SUM_SQUARES.
    """
    y_l, p_l, p_hat, z_l, z_hat, x_l = _floats(y_l, p_l, p_hat, z_l, z_hat,
                                               x_l)
    d = x_l - z_l
    t = _acceptance_vector(p_l, p_hat, z_l, z_hat, c)
    return _accept(y_l, t @ t, d @ d, c, sigma,
                   criterion is Criterion.MAX_FORM)


def _theta(t: np.ndarray, d: np.ndarray, dd: float, c: float) -> float:
    """theta from t = :func:`_acceptance_vector`, d = x_l - z_l and a
    finite dd = d @ d > 0."""
    return float((t @ d) / (c * dd))


def theta_admm(hat: PrimalDualTriple, x_l: np.ndarray, z_l: np.ndarray,
               p_l: np.ndarray, c: float) -> float:
    """Projection coefficient; equals the splitting-layer theta under the
    (x, -p, z) change of variables with gamma = 1/c.

    Raises ``ZeroVectorError`` when x_l = z_l (solution found).
    """
    d = x_l - z_l
    dd = d @ d
    if dd == 0.0:
        raise ZeroVectorError("x = z: solution found")
    if not math.isfinite(dd):
        # an inf in x_l or z_l: the subtractions below would be inf - inf
        return math.nan
    return _theta(c * (hat.z - z_l) - (hat.p - p_l), d, dd, c)


def _p_update(p_hat, z_hat, z_next, x_next, rw: float,
              c: float) -> np.ndarray:
    """p_hat + c ((1 - rw) z_next + rw x_next - z_hat)."""
    out = (1.0 - rw) * z_next
    out += rw * x_next
    out -= z_hat
    out *= c
    out += p_hat
    return out


def p_update(p_hat: np.ndarray, z_hat: np.ndarray, z_next: np.ndarray,
             x_next: np.ndarray, theta_val: float, rho_k: float,
             c: float) -> np.ndarray:
    """Projective multiplier correction closing the outer iteration.

    p_next = p_hat + c [(1 - rho theta) z_next + rho theta x_next - z_hat].
    """
    return _p_update(*_floats(p_hat, z_hat, z_next, x_next),
                     rho_k * theta_val, c)


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

    def open_session(self, r, b, gamma, s_bar, b_bar):
        fsession = self.fproc.open_session(-b, r, 1.0 / gamma, s_bar)
        return _AdaptedSession(fsession, r, b, gamma)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

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


def reset_procedure(procedure) -> None:
    """Clear the state a procedure's sessions share, if it has any.

    Calls the optional ``reset()`` of an F- or B-procedure.  The loop
    calls it at run entry, so that a run starts from the same procedure
    state whatever ran before it, and on every exit, so that no vectors of
    a finished run stay alive with the procedure.
    """
    reset = getattr(procedure, "reset", None)
    if reset is not None:
        reset()


def run_admm(problem: AdmmProblem, params: ADMMParams,
             init: Optional[PrimalDualTriple] = None,
             observer: Optional[Callable[[dict], None]] = None
             ) -> ADMMResult:
    """Run the inexact inertial-relaxed ADMM until the outer residual test.

    Stops when the KKT residual at the g-side iterate falls to
    ``params.epsilon`` (checked every outer iteration, with
    ``params.epsilon`` as the floor of ``problem.kkt_residual``, so a
    failing test may see a lower bound; the record's ``final_kkt`` is
    always the residual itself), on the exact
    coincidence x_l = z_l of an accepted trial, which is then returned as
    ``triple`` with status ``solved``, or with status ``budget_exceeded``
    after ``max_outer`` iterations.

    Inputs are validated once, at entry: ``params`` (c > 0, lam = 1, alpha
    and the other engine parameters), ``problem.kkt_residual`` (not None)
    and the starting triple (one shape, of length ``problem.dim`` when that
    is set, finite entries), else ``ParameterError`` or ``ValueError``.
    After entry a failure returns the last completed iterate, its counts
    and ``final_kkt``, with ``record.cause`` naming it, its layer and the
    outer iteration: status ``stalled`` (record ``budget_exceeded``) when
    the inner budget runs out, as at the round-off floor, and ``error``
    on a ``LineSearchFailure`` or ``CGBreakdown`` out of a session, a
    non-finite trial or a theta that is not finite and positive.

    When the F-procedure accepts an anchor (see :class:`FProcedure`), each
    session is opened with the two points ``x_hat`` was extrapolated from.
    The procedure's ``reset()`` runs at entry and on every exit, including
    a raised one.

    ``observer``, when given, is called once per completed outer iteration
    with a dict: ``k``, ``trials``, ``theta``, ``alpha_k``, ``rho_k``,
    ``kkt`` (the stop-test value at the top of iteration k: a lower bound
    when above ``epsilon``), ``gap`` (||x - z|| of the accepted trial), the
    extrapolated ``x_hat``, ``z_hat``, ``p_hat``, the accepted trial's
    ``x``, ``z`` and ``p_l``, and the corrected ``p``, so the next iterate
    is ``(x, z, p)``.  The arrays are passed without a copy: the loop never
    writes into them later, and the observer must not either.  An
    exception the observer raises ends the run.
    """
    params.validate()
    if problem.kkt_residual is None:
        raise ValueError("problem.kkt_residual required for the stop test")
    if init is None:
        if problem.dim is None:
            raise ValueError("problem.dim required for the default zero start")
        init = PrimalDualTriple.zeros(problem.dim)
    else:
        init = PrimalDualTriple(init.x, init.z, init.p)
        if problem.dim is not None and init.x.shape != (problem.dim,):
            raise ValueError(f"init has shape {init.x.shape}, "
                             f"expected ({problem.dim},)")
    return _run(problem, params, init, observer)


def _run(problem: AdmmProblem, params: ADMMParams, init: PrimalDualTriple,
         observer: Optional[Callable[[dict], None]],
         gap_tol: float = 0.0) -> ADMMResult:
    """The outer loop of both drivers, on validated inputs.

    Stops on a KKT residual at most ``params.epsilon`` unless
    ``problem.kkt_residual`` is None, on an accepted trial with
    ||x_l - z_l|| <= ``gap_tol`` (status ``solved``, the trial returned),
    after ``params.max_outer`` iterations, or on a failure (see
    :func:`run_admm`).  The record's ``final_kkt`` is the KKT residual at
    the returned z, or ||x - z|| of the returned triple without the KKT
    test.  The iteration that stops as ``solved`` forms no corrected
    multiplier and reaches no observer.
    """
    reset_procedure(problem.fproc)
    try:
        c = params.c
        sigma = params.core.sigma
        alpha = params.core.alpha
        rho = params.core.rho_hi
        max_form = params.criterion is Criterion.MAX_FORM
        open_session = problem.fproc.open_session
        prox = problem.prox_g.solve
        anchored = bool(getattr(problem.fproc, "accepts_anchor", False))
        kkt_residual = problem.kkt_residual
        x, z, p = init.x, init.z, init.p
        x_prev, z_prev, p_prev = x, z, p
        inner_total = 0
        started = time.perf_counter()
        status, cause = BUDGET_EXCEEDED, ""
        epsilon = params.epsilon
        kkt = math.nan
        for k in range(params.max_outer):
            if kkt_residual is not None:
                kkt = float(kkt_residual(z, epsilon))
                if kkt <= epsilon:
                    status = "converged"
                    break
            x_hat = _extrapolate(x, x_prev, alpha)
            z_hat = _extrapolate(z, z_prev, alpha)
            p_hat = _extrapolate(p, p_prev, alpha)
            try:
                if anchored:
                    session = open_session(p_hat, z_hat, c, x_hat,
                                           (x, x_prev, alpha))
                else:
                    session = open_session(p_hat, z_hat, c, x_hat)
                exact = bool(getattr(session, "exact", False))
                for trial in range(1, params.inner_budget + 1):
                    x_l, y_l = session.next()
                    p_l = _multiplier(p_hat, x_l, z_hat, y_l, c)
                    z_l = prox(p_l, x_l, c)
                    d = x_l - z_l
                    dd = d @ d
                    if not math.isfinite(dd):  # before t meets inf - inf
                        status = ERROR
                        cause = f"non-finite trial (||x - z||^2 = {dd})"
                        break
                    t = _acceptance_vector(p_l, p_hat, z_l, z_hat, c)
                    tt = t @ t
                    if exact or _accept(y_l, tt, dd, c, sigma, max_form):
                        break
                else:
                    status = "stalled"
                    cause = "inner budget spent in a session"
            except (CGBreakdown, LineSearchFailure) as exc:
                status, cause = ERROR, f"{exc!r} out of a session"
            if not cause:
                inner_total += trial
                gap = math.sqrt(dd)
                if gap <= gap_tol:
                    status = "solved"
                    x, z, p = x_l, z_l, p_l
                    break
                # an inf of t meeting a zero of d would make t @ d warn
                th = _theta(t, d, dd, c) if math.isfinite(tt) else math.nan
                if not 0.0 < th < math.inf:
                    status, cause = ERROR, f"theta = {th} in the projection"
            if cause:
                cause += f" at outer iteration {k}"
                break
            p_next = _p_update(p_hat, z_hat, z_l, x_l, rho * th, c)
            if observer is not None:
                observer({"k": k, "trials": trial, "theta": th,
                          "alpha_k": alpha, "rho_k": rho, "kkt": kkt,
                          "gap": gap, "x_hat": x_hat, "z_hat": z_hat,
                          "p_hat": p_hat, "x": x_l, "z": z_l, "p_l": p_l,
                          "p": p_next})
            x_prev, z_prev, p_prev = x, z, p
            x, z, p = x_l, z_l, p_next
        else:
            k = params.max_outer
        wall = time.perf_counter() - started
        if status != "converged":  # the residual itself, not a bound
            kkt = (float(np.linalg.norm(x - z)) if kkt_residual is None
                   else float(kkt_residual(z, math.inf)))
        obj = float(problem.objective(z)) if problem.objective else math.nan
        rec_status = {"solved": CONVERGED,
                      "stalled": BUDGET_EXCEEDED}.get(status, status)
        record = RunRecord(k, inner_total, wall, kkt, obj, rec_status, cause)
        return ADMMResult(z, PrimalDualTriple(x, z, p), status, k,
                          inner_total, record)
    finally:
        reset_procedure(problem.fproc)
