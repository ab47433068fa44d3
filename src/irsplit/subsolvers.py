"""Concrete subproblem engines: one-step-at-a-time CG and L-BFGS sessions,
the l1 shrink, and a monotone backtracking accelerated proximal-gradient
baseline.

Sessions advance exactly one step per ``next()`` call so the enclosing
splitting layer can interleave its acceptance test with the solve; the
emitted second component is always the (sub)gradient of the augmented
subobjective at the emitted point.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CGBreakdown, LineSearchFailure, ParameterError
from .records import BUDGET_EXCEEDED, CONVERGED, RunRecord

__all__ = [
    "CGSession",
    "QuadraticFProcedure",
    "make_quadratic_fprocedure",
    "LBFGSSession",
    "LBFGSFProcedure",
    "soft_threshold",
    "FistaConfig",
    "CompositeProblem",
    "FistaResult",
    "fista_solve",
]


class CGSession:
    """Conjugate gradient on an SPD system H x = rhs, one step per ``next``.

    ``next()`` returns ``(x, y)`` with y = H x - rhs maintained by the usual
    residual recurrence.  Once the residual is exactly zero the session
    keeps returning the current point.  Nonpositive curvature raises
    ``CGBreakdown``.
    """

    def __init__(self, operator_apply: Callable[[np.ndarray], np.ndarray],
                 rhs: np.ndarray, x0: np.ndarray):
        self._apply = operator_apply
        self.x = np.asarray(x0, dtype=float).copy()
        self._resid = np.asarray(rhs, dtype=float) - operator_apply(self.x)
        self._direction = self._resid.copy()
        self._rs = float(self._resid @ self._resid)
        self.steps = 0

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rs == 0.0:
            return self.x.copy(), -self._resid
        h_d = self._apply(self._direction)
        curvature = float(self._direction @ h_d)
        if curvature <= 0.0:
            raise CGBreakdown("nonpositive curvature: operator is not SPD")
        step = self._rs / curvature
        self.x = self.x + step * self._direction
        self._resid = self._resid - step * h_d
        rs_new = float(self._resid @ self._resid)
        self._direction = self._resid + (rs_new / self._rs) * self._direction
        self._rs = rs_new
        self.steps += 1
        return self.x.copy(), -self._resid


class QuadraticFProcedure:
    """F-procedure for f(x) = (1/2)||A x - b||^2 backed by matrix-free CG.

    Sessions solve (A^T A + c I) x = A^T b - p + c z warm started at x_bar;
    the normal matrix is never formed, each step applies A then A^T.
    """

    def __init__(self, design, b: np.ndarray, c: float):
        if not c > 0.0:
            raise ParameterError("c > 0 violated")
        self.design = design
        self.c = c
        self._at_b = design.apply_transpose(np.asarray(b, dtype=float))

    def open_session(self, p, z, c, x_bar) -> CGSession:
        design = self.design
        rhs = self._at_b - p + c * z

        def gram(u):
            return design.apply_transpose(design.apply(u)) + c * u

        return CGSession(gram, rhs, x_bar)


def make_quadratic_fprocedure(design, b, c: float) -> QuadraticFProcedure:
    return QuadraticFProcedure(design, b, c)


class LBFGSSession:
    """Limited-memory BFGS with Armijo backtracking, one step per ``next``.

    ``pairs`` is the curvature memory the session reads and extends: a
    bounded deque of ``(s, y, 1/<s, y>)`` secant pairs, a fresh one of
    length 10 when omitted.  Curvature pairs with nonpositive
    <step, grad-diff> are skipped.  At a stationary point the session
    keeps returning it.
    """

    def __init__(self, value_and_grad, x0: np.ndarray,
                 pairs: Optional[deque] = None, armijo: float = 1e-4,
                 backtrack: float = 0.5, max_backtracks: int = 50):
        self._fg = value_and_grad
        self.x = np.asarray(x0, dtype=float).copy()
        self.f, self.g = value_and_grad(self.x)
        self._pairs = deque(maxlen=10) if pairs is None else pairs
        self._armijo = armijo
        self._backtrack = backtrack
        self._max_backtracks = max_backtracks

    def _direction(self) -> np.ndarray:
        # standard two-loop recursion with <s,y>/<y,y> initial scaling
        q = self.g.copy()
        alphas = []
        for s, y, rho in reversed(self._pairs):
            a = rho * (s @ q)
            alphas.append(a)
            q -= a * y
        if self._pairs:
            s, y, _ = self._pairs[-1]
            q *= (s @ y) / (y @ y)
        for (s, y, rho), a in zip(self._pairs, reversed(alphas)):
            b = rho * (y @ q)
            q += (a - b) * s
        return -q

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        if not np.any(self.g):
            return self.x.copy(), self.g.copy()
        d = self._direction()
        slope = float(self.g @ d)
        if slope >= 0.0:
            d = -self.g
            slope = -float(self.g @ self.g)
        step = 1.0
        for _ in range(self._max_backtracks):
            x_new = self.x + step * d
            f_new, g_new = self._fg(x_new)
            if f_new <= self.f + self._armijo * step * slope:
                break
            step *= self._backtrack
        else:
            raise LineSearchFailure("no Armijo step within the backtrack budget")
        s = x_new - self.x
        y = g_new - self.g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            self._pairs.append((s, y, 1.0 / sy))
        self.x, self.f, self.g = x_new, f_new, g_new
        return self.x.copy(), self.g.copy()


class LBFGSFProcedure:
    """F-procedure for a smooth f given by a value-and-gradient callable.

    The procedure owns one curvature memory of ``memory`` secant pairs that
    every session it opens reads and extends, so the first step of a
    session already uses the curvature learned by the earlier ones.  The
    augmented subobjective f + <p, .> + (c/2)||. - z||^2 has Hessian
    grad^2 f + c I whatever (p, z) are, so a stored pair stays a true
    secant pair while c is unchanged; a session opened with another c
    starts from empty memory.  ``reset()`` clears the memory; the drivers
    call it at run entry so that runs do not depend on each other.  Every
    trial's gradient is still evaluated fresh, so the certificate is the
    same as with a memoryless session.
    """

    def __init__(self, value_and_grad, memory: int = 10, armijo: float = 1e-4,
                 backtrack: float = 0.5, max_backtracks: int = 50):
        self._fg = value_and_grad
        self._pairs: deque = deque(maxlen=memory)
        self._c: Optional[float] = None
        self._opts = dict(armijo=armijo, backtrack=backtrack,
                          max_backtracks=max_backtracks)

    def reset(self) -> None:
        """Forget every stored curvature pair."""
        self._pairs.clear()

    def open_session(self, p, z, c, x_bar) -> LBFGSSession:
        if c != self._c:
            self._pairs.clear()
            self._c = c
        base = self._fg

        def augmented(x):
            f, g = base(x)
            dxz = x - z
            return (f + p @ x + 0.5 * c * (dxz @ dxz), g + p + c * dxz)

        return LBFGSSession(augmented, x_bar, self._pairs, **self._opts)


def soft_threshold(t: np.ndarray, kappa: float) -> np.ndarray:
    """Componentwise shrink sign(t) max(|t| - kappa, 0), the prox of kappa*l1."""
    if kappa < 0.0:
        raise ParameterError("kappa >= 0 violated")
    t = np.asarray(t, dtype=float)
    return np.sign(t) * np.maximum(np.abs(t) - kappa, 0.0)


# ---------------------------------------------------------------------------
# Accelerated proximal-gradient baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FistaConfig:
    """Backtracking configuration: initial Lipschitz guess and growth factor."""

    lipschitz0: float = 1.0
    eta: float = 2.0
    tol: float = 1e-6
    max_iters: int = 100_000

    def validate(self):
        if not self.lipschitz0 > 0.0:
            raise ParameterError("lipschitz0 > 0 violated")
        if not self.eta > 1.0:
            raise ParameterError("eta > 1 violated")


@dataclass
class CompositeProblem:
    """min F = f + g with smooth f (value and gradient) and proxable g."""

    value_grad: Callable[[np.ndarray], tuple[float, np.ndarray]]
    prox: Callable[[np.ndarray, float], np.ndarray]  # prox of step*g at point
    g_value: Callable[[np.ndarray], float]
    kkt_residual: Callable[[np.ndarray], float]

    def objective(self, x: np.ndarray) -> float:
        return float(self.value_grad(x)[0] + self.g_value(x))


@dataclass
class FistaResult:
    x: np.ndarray
    status: str
    record: RunRecord


def fista_solve(problem: CompositeProblem, config: FistaConfig,
                x0: Optional[np.ndarray] = None, n: Optional[int] = None) -> FistaResult:
    """Monotone accelerated proximal gradient with Lipschitz backtracking.

    The accepted point never increases the objective (the accelerated
    candidate is kept only when it improves), so the objective decreases
    after every accepted backtracking step.  Stops when the KKT residual
    falls below ``config.tol``; returns status ``budget_exceeded``
    otherwise.
    """
    config.validate()
    if x0 is None:
        if n is None:
            raise ValueError("pass x0 or the dimension n")
        x0 = np.zeros(n)
    x = np.asarray(x0, dtype=float).copy()
    x_prev = x.copy()
    y = x.copy()
    t = 1.0
    lip = config.lipschitz0
    obj_x = problem.objective(x)
    prox_evals = 0
    status = BUDGET_EXCEEDED
    outer = config.max_iters
    started = time.perf_counter()
    if float(problem.kkt_residual(x)) <= config.tol:
        status = CONVERGED
        outer = 0
    else:
        for k in range(1, config.max_iters + 1):
            f_y, g_y = problem.value_grad(y)
            # round-off slack keeps the majorization test from failing
            # spuriously near the optimum, which would inflate lip forever
            slack = 1e-12 * (1.0 + abs(f_y))
            while True:
                z = problem.prox(y - g_y / lip, 1.0 / lip)
                prox_evals += 1
                dz = z - y
                f_z = problem.value_grad(z)[0]
                if f_z <= f_y + g_y @ dz + 0.5 * lip * (dz @ dz) + slack:
                    break
                lip *= config.eta
            obj_z = f_z + problem.g_value(z)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            x_prev = x
            if obj_z <= obj_x:
                x = z
                obj_x = obj_z
            # stopping looks at the fresh prox candidate: the guarded
            # iterate can sit still while the candidate keeps improving
            if float(problem.kkt_residual(z)) <= config.tol:
                x = z
                status = CONVERGED
                outer = k
                break
            # accelerated point built from the prox candidate even when
            # the monotone guard keeps the previous iterate
            y = x + (t / t_next) * (z - x) + ((t - 1.0) / t_next) * (x - x_prev)
            t = t_next
    wall = time.perf_counter() - started
    record = RunRecord(outer, prox_evals, wall,
                       float(problem.kkt_residual(x)), problem.objective(x),
                       status)
    return FistaResult(x, status, record)
