"""Partially inexact relative-error inertial-relaxed ADMM for min f + g.

The f-subproblem is solved approximately by an F-procedure (one trial per
inner step, each trial certified by the exact gradient of the augmented
subobjective); the g-subproblem is solved exactly through a shifted prox.
Acceptance uses either the summed-squares test or the strictly stronger
max-form test.  Under the change of variables ``(s, b, r) = (x, -p, z)``
with scaling ``gamma = 1/c`` the recursion coincides with the inexact
Douglas-Rachford layer applied to A = subdiff(g), B = subdiff(f), and
:func:`irsplit.dr.run_dr` drives the loop here, F-procedure included,
under that change.  Each step of the recursion (extrapolation, trial
multiplier, acceptance test, theta, multiplier correction) is a private
in-place kernel of that one loop.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

import numpy as np

from .errors import (CGBreakdown, LineSearchFailure, ParameterError,
                     _check_budget)
from .hpp import InertiaRelaxParams, _extrapolate, _vec
from .records import (BUDGET_EXCEEDED, CONVERGED, ERROR, SOLVED, STALLED,
                      RunResult, run_result)

__all__ = [
    "Criterion",
    "PrimalDualTriple",
    "ADMMParams",
    "FProcedure",
    "ShiftedProxG",
    "AdmmProblem",
    "run_admm",
]


class Criterion(enum.Enum):
    """Inner acceptance test: summed squares, or the stronger max form."""

    SUM_SQUARES = "sum_squares"
    MAX_FORM = "max_form"


@dataclass
class PrimalDualTriple:
    """Primal pair (x, z) and multiplier p.

    Construction checks that the components are finite 1-D float arrays
    of one shape, else ``ValueError``.  :func:`run_admm` applies that
    check to its starting triple and carries its iterates as plain arrays;
    it builds a triple only for its result.
    """

    x: np.ndarray
    z: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        self.x, self.z, self.p = (_vec(getattr(self, n), n) for n in "xzp")
        if not (self.x.shape == self.z.shape == self.p.shape):
            raise ValueError("triple components must share one shape")

    @classmethod
    def zeros(cls, n: int) -> "PrimalDualTriple":
        return cls(np.zeros(n), np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class ADMMParams:
    """Penalty c, engine parameters, acceptance criterion and budgets.
    Construction, ``dataclasses.replace`` included, raises
    ``ParameterError`` naming the first inequality a value violates, or a
    budget that is not an integer."""

    c: float
    core: InertiaRelaxParams
    criterion: Criterion = Criterion.MAX_FORM
    epsilon: float = 1e-6
    inner_budget: int = 10_000
    max_outer: int = 10_000

    def __post_init__(self):
        if not self.c > 0.0:
            raise ParameterError("c > 0 violated")
        if not self.c < math.inf:
            raise ParameterError("c < inf violated")
        if not self.epsilon >= 0.0:
            raise ParameterError("epsilon >= 0 violated")
        _check_budget(self.max_outer, "max_outer", 0)
        _check_budget(self.inner_budget, "inner_budget", 1)


class FProcedure(Protocol):
    """Iterative solver family for min_x f(x) + <p, x> + (c/2)||x - z||^2.

    ``open_session(p, z, c, x_bar, anchor=None)`` starts a solve warm
    started at ``x_bar``; ``session.next()`` yields trial pairs ``(x_l,
    y_l)`` where ``y_l`` is a subgradient of the augmented subobjective at
    ``x_l`` and y_l -> 0.  An F-procedure for a monotone operator B in place of
    subdiff(f) emits y_l in B(x_l) + p + c (x_l - z): this is the B
    half-step s + gamma B(s) = r + gamma b of :func:`irsplit.dr.run_dr` in
    the loop's variables (s, b, r) = (x, -p, z), gamma = 1/c.  Every trial
    meets the acceptance test; an exact one has y_l = 0, which passes either
    criterion at any sigma.  Emitted arrays are float arrays that belong to
    the session and are read-only for callers: a session may emit its own
    state without a copy, and never modifies an emitted array afterwards.
    The loop likewise never writes into an emitted array, nor into the
    triple it starts from; it updates in place only arrays it has just
    allocated.

    :func:`run_admm` passes ``anchor = (session, alpha)``: ``session`` is
    the previous outer iteration's session, whose latest trial ``x`` is
    the accepted one that ``x_bar = x + alpha (x - x_prev)`` was
    extrapolated from, and None at the first iteration.  A procedure may
    ignore it, or carry work from one session to the next through it, such
    as Gram products or curvature memory, but never the certificate: each
    ``y_l`` is evaluated at its own ``x_l``.  A procedure keeps nothing
    that depends on a run, so a run, which starts with no session, does
    not depend on the runs before it.
    """

    def open_session(self, p: np.ndarray, z: np.ndarray, c: float,
                     x_bar: np.ndarray, anchor: Optional[tuple] = None):
        ...


class ShiftedProxG(Protocol):
    """Exact solver for min_z g(z) - <p, z> + (c/2)||x - z||^2, returning
    a float array that the loop only reads."""

    def solve(self, p: np.ndarray, x: np.ndarray, c: float) -> np.ndarray:
        ...


@dataclass
class AdmmProblem:
    """What :func:`run_admm` runs: subproblem engines, the stopping
    residual, which it requires, and an optional objective.

    The run calls ``kkt_residual(z, floor, screen)``, positionally, and
    gets ``(value, screen)``: the KKT residual at z, or, above ``floor``,
    possibly a lower bound on it, which proves only that ``residual <=
    floor`` fails; ``floor = inf`` gives the residual.  The run passes
    None as the first screen, then each one returned; a residual may
    ignore it and return ``(value, None)``.
    """

    fproc: FProcedure
    prox_g: ShiftedProxG
    kkt_residual: Callable[[np.ndarray, float, object], tuple]
    objective: Optional[Callable[[np.ndarray], float]] = None
    dim: Optional[int] = None


# The private kernels below form each result in one fresh array, by the
# operations of the formula they state, in its order: a product or sum
# written in place with its operands swapped is the same bit for bit.  They
# take the float arrays the loop carries.  tests/reference.py states each
# formula once as a plain expression, and tests/test_kernels.py holds each
# kernel to it bit for bit.  Inner products of the loop's own contiguous
# arrays use ``ndarray.dot``, the BLAS call of ``@`` without the matmul
# dispatch, and the same bits but for the sign of a zero that is one
# product (n = 1).  Only ``_theta`` can see that: t . d may be -0.0.

def _multiplier(p_hat, x_l, z_hat, y_l, c: float) -> np.ndarray:
    """p_hat + c (x_l - z_hat) - y_l."""
    out = x_l - z_hat
    out *= c
    out += p_hat
    out -= y_l
    return out


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
    """The acceptance test from tt = t . t, t = :func:`_acceptance_vector`,
    and dd = ||x_l - z_l||^2.  A trial with y_l . y_l = 0 passes at any
    sigma, before the right side, which can be NaN (0 * inf), is formed."""
    yy = y_l.dot(y_l)
    if yy == 0.0:
        return True
    if max_form:
        return math.sqrt(yy) <= sigma * max(math.sqrt(tt), c * math.sqrt(dd))
    return yy <= sigma * sigma * (tt + (c * c) * dd)


def _theta(t: np.ndarray, d: np.ndarray, dd: float, c: float) -> float:
    """theta from t = :func:`_acceptance_vector`, d = x_l - z_l and a
    finite dd = d . d > 0."""
    # @, not .dot: at n = 1 the zero's sign reaches record.cause
    return float((t @ d) / (c * dd))


def _p_update(p_hat, z_hat, z_next, x_next, rw: float,
              c: float) -> np.ndarray:
    """p_hat + c ((1 - rw) z_next + rw x_next - z_hat)."""
    out = (1.0 - rw) * z_next
    out += rw * x_next
    out -= z_hat
    out *= c
    out += p_hat
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_admm(problem: AdmmProblem, params: ADMMParams,
             init: Optional[PrimalDualTriple] = None,
             observer: Optional[Callable[[dict], None]] = None
             ) -> RunResult:
    """Run the inexact inertial-relaxed ADMM until the outer residual test.

    Stops when the KKT residual at the g-side iterate falls to
    ``params.epsilon`` (tested every outer iteration with ``params.epsilon``
    as the floor of ``problem.kkt_residual``, so a failing test may see a
    lower bound; the record's ``final_kkt`` is always the residual itself),
    on the exact coincidence x_l = z_l of an accepted trial (status
    ``solved``, the trial returned), or with status ``budget_exceeded``
    after ``max_outer`` iterations.  The result's ``triple`` is the last
    :class:`PrimalDualTriple` and its ``x`` is z, the g-side iterate: its
    exact shrink can produce exact zeros, the smooth-side iterate never
    does, and the sup-norm subdifferential distance is discontinuous at
    components merely near zero.

    Inputs are validated once, at entry: ``problem.kkt_residual`` (not
    None) and the starting triple (1-D, of one shape, ``(problem.dim,)``
    when that is set, finite entries), else ``ValueError``; ``params``
    checked itself when it was built.  After entry a failure returns
    the last completed iterate, its counts and ``final_kkt``, with
    ``record.cause`` naming it, its layer and the outer iteration: status
    ``stalled`` when the inner budget runs out, as at the round-off floor,
    and ``error`` on a ``LineSearchFailure`` or ``CGBreakdown`` out of a
    session, a non-finite trial or a theta that is not finite and
    positive.  numpy's floating-point warnings are off while the run
    lasts, callbacks and observer included: a non-finite value ends it as
    ``error``, not as a warning.

    ``observer``, when given, is called once per completed outer iteration
    with a dict: ``k``, ``trials``, ``theta``, ``alpha_k``, ``rho_k``,
    ``kkt`` (the stop-test value at the top of iteration k, a lower bound
    when above ``epsilon``; it repeats on a rerun), ``gap`` (||x - z|| of
    the accepted trial), the extrapolated ``x_hat``, ``z_hat``, ``p_hat``,
    the accepted trial's ``x``, ``z`` and ``p_l``, and the corrected
    ``p``, so the next iterate is ``(x, z, p)``.  The arrays are passed
    without a copy: the loop never writes into them later, and the
    observer must not either.  An exception the observer raises ends the
    run.
    """
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
    return _run(problem.fproc.open_session, problem.prox_g.solve,
                problem.kkt_residual, problem.objective, params,
                (init.x, init.z, init.p), observer)


@np.errstate(all="ignore")
def _run(open_session, prox, kkt_residual, objective, params: ADMMParams,
         start: tuple, observer: Optional[Callable[[dict], None]],
         gap_tol: float = 0.0, triple=PrimalDualTriple) -> RunResult:
    """The outer loop of both drivers, on validated inputs: the four
    callables of an :class:`AdmmProblem`, ``prox`` its ``prox_g.solve``;
    ``start``, the checked (x, z, p); and ``triple(x, z, p)``, which
    builds the result's triple from the last one.

    Stops on a KKT residual at most ``params.epsilon`` unless
    ``kkt_residual`` is None, on an accepted trial with
    ||x_l - z_l|| <= ``gap_tol`` (status ``solved``, the trial returned),
    after ``params.max_outer`` iterations, or on a failure (see
    :func:`run_admm`).  The record's ``final_kkt`` is the KKT residual at
    the returned z, or ||x - z|| of the returned triple without the KKT
    test.  The iteration that stops as ``solved`` forms no corrected
    multiplier and reaches no observer.  With numpy's warnings off, the
    tests of a finite dd + t . t and of 0 < theta < inf catch an inf or
    NaN trial.
    """
    c = params.c
    sigma = params.core.sigma
    alpha = params.core.alpha
    rho = params.core.rho_hi
    max_form = params.criterion is Criterion.MAX_FORM
    x, z, p = start
    x_prev, z_prev, p_prev = x, z, p
    inner_total = 0
    started = time.perf_counter()
    status, cause = BUDGET_EXCEEDED, ""
    epsilon = params.epsilon
    kkt = math.nan
    session = screen = None
    for k in range(params.max_outer):
        if kkt_residual is not None:
            kkt, screen = kkt_residual(z, epsilon, screen)
            kkt = float(kkt)
            if kkt <= epsilon:
                status = CONVERGED
                break
        x_hat = _extrapolate(x, x_prev, alpha)
        z_hat = _extrapolate(z, z_prev, alpha)
        p_hat = _extrapolate(p, p_prev, alpha)
        try:
            session = open_session(p_hat, z_hat, c, x_hat, (session, alpha))
            for trial in range(1, params.inner_budget + 1):
                x_l, y_l = session.next()
                p_l = _multiplier(p_hat, x_l, z_hat, y_l, c)
                z_l = prox(p_l, x_l, c)
                d = x_l - z_l
                dd = d.dot(d)
                t = _acceptance_vector(p_l, p_hat, z_l, z_hat, c)
                tt = t.dot(t)
                if not math.isfinite(dd + tt):
                    status = ERROR
                    cause = (f"non-finite trial (||x - z||^2 = {dd}, "
                             f"||t||^2 = {tt})")
                    break
                if _accept(y_l, tt, dd, c, sigma, max_form):
                    break
            else:
                status = STALLED
                cause = "inner budget spent in a session"
        except (CGBreakdown, LineSearchFailure) as exc:
            status, cause = ERROR, f"{exc!r} out of a session"
        if not cause:
            inner_total += trial
            gap = math.sqrt(dd)
            if gap <= gap_tol:
                status = SOLVED
                x, z, p = x_l, z_l, p_l
                break
            th = _theta(t, d, dd, c)
            if not 0.0 < th < math.inf:
                status, cause = ERROR, f"theta = {th} in the projection"
        if cause:
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
    if status != CONVERGED:  # the residual itself, not a bound
        kkt = (float(np.linalg.norm(x - z)) if kkt_residual is None
               else float(kkt_residual(z, math.inf, None)[0]))
    obj = float(objective(z)) if objective else math.nan
    return run_result(z, status, k, inner_total, wall, kkt, obj, cause,
                      triple(x, z, p))
