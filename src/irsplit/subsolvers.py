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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (CGBreakdown, LineSearchFailure, ParameterError,
                     _check_budget)
from .hpp import _extrapolate
from .records import BUDGET_EXCEEDED, CONVERGED, ERROR, RunResult, run_result

__all__ = [
    "CGSession",
    "QuadraticFProcedure",
    "CurvatureMemory",
    "LBFGSSession",
    "LBFGSFProcedure",
    "soft_threshold",
    "FistaConfig",
    "fista_solve",
]


class CGSession:
    """Conjugate gradient on an SPD system H x = rhs, one step per ``next``.

    ``next()`` returns ``(x, y)`` with y = H x - rhs, carried by the usual
    residual recurrence with its sign flipped.  Each step makes both arrays
    afresh and emits them without a copy.  Once y is exactly zero the
    session keeps returning the current pair.  A nonpositive curvature d .
    H d along the search direction d raises ``CGBreakdown`` with its value
    and ||d||.  A caller that already knows ``H x0`` passes it as
    ``h_x0``, and the session starts without applying the operator.  ``x``
    is the current point: a private copy of ``x0`` before the first
    ``next()``, the array the latest ``next()`` returned after it.
    ``applied()`` is H at the current point, read off y.

    ``operator_apply`` must return a new array on every call, one that
    aliases neither its argument nor an earlier result: the session forms
    the next y inside it, and raises ``ValueError`` when the operator
    returns its argument or its previous result.  The search direction,
    which is never emitted, is updated in place.
    """

    def __init__(self, operator_apply: Callable[[np.ndarray], np.ndarray],
                 rhs: np.ndarray, x0: np.ndarray,
                 h_x0: Optional[np.ndarray] = None):
        self._apply = operator_apply
        self.x = np.asarray(x0, dtype=float).copy()
        self._rhs = np.asarray(rhs, dtype=float)
        if h_x0 is None:
            h_x0 = operator_apply(self.x)
        self._y = h_x0 - self._rhs
        self._direction = -self._y
        self._rs = float(self._y.dot(self._y))

    def applied(self) -> np.ndarray:
        """H x at the current point, as rhs plus the carried y."""
        return self._rhs + self._y

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rs != 0.0:
            h_d = self._apply(self._direction)
            if h_d is self._direction or h_d is self._y:
                raise ValueError("operator_apply must return a new array")
            curvature = float(self._direction.dot(h_d))
            if curvature <= 0.0:
                norm = math.sqrt(self._direction.dot(self._direction))
                raise CGBreakdown(f"curvature d . H d = {curvature!r} <= 0 "
                                  f"along a direction of norm {norm!r}")
            step = self._rs / curvature
            x = step * self._direction
            x += self.x
            self.x = x
            h_d *= step
            h_d += self._y
            self._y = y = h_d
            rs_new = float(y.dot(y))
            self._direction *= rs_new / self._rs
            self._direction -= y
            self._rs = rs_new
        return self.x, self._y


class QuadraticFProcedure:
    """F-procedure for a quadratic f, grad f(x) = Q x - r with Q symmetric
    positive semidefinite, backed by matrix-free CG.

    Sessions solve (Q + c I) x = r - p + c z warm started at x_bar, through
    one private product Q u that returns a fresh array, into which each step
    adds c u.  Here f(x) = (1/2)||A x - b||^2: Q u = A^T (A u) from the
    private ``design`` (whose products are fresh, as
    :class:`irsplit.problems.DesignMatrix`'s are) and r = A^T b, formed at
    construction; :class:`irsplit.operators.CGBProcedure` sets its own.

    A session starts from H x_bar, H = Q + c I, one Q product when computed
    afresh.  With ``anchor = (prev, alpha)``, prev the session that emitted
    x and x_bar = x + alpha (x - x_prev), the session carries its ``c`` and
    ``gram`` = G(x), G(u) = Q u, read off prev's certificate: G(x) =
    prev.applied() - prev.c x for any linear Q.  When prev carries G(x_prev)
    too, H x_bar = G(x) + alpha (G(x) - G(x_prev)) + c x_bar costs no
    product.  G does not depend on c, so a change of c cannot make it stale.
    It differs from a fresh product by the round-off the CG recurrence
    carries, which stays at that level because the weights (1 + alpha,
    -alpha) sum to one.
    """

    def __init__(self, design, b: np.ndarray):
        self._design = design
        self._r = design.apply_transpose(np.asarray(b, dtype=float))

    def _product(self, u: np.ndarray) -> np.ndarray:
        return self._design.apply_transpose(self._design.apply(u))

    def open_session(self, p, z, c, x_bar, anchor=None) -> CGSession:
        rhs = self._r - p
        rhs += c * z

        def operator(u):
            h_u = self._product(u)
            h_u += c * u
            return h_u

        prev, alpha = (None, 0.0) if anchor is None else anchor
        g_x = h_x_bar = None
        if prev is not None:
            g_x = prev.applied()
            g_x -= prev.c * prev.x
            if prev.gram is not None:
                h_x_bar = _extrapolate(g_x, prev.gram, alpha)
                h_x_bar += c * x_bar
        session = CGSession(operator, rhs, x_bar, h_x0=h_x_bar)
        session.c, session.gram = c, g_x
        return session


# the L-BFGS engine's one configuration
_MEMORY = 10
_ARMIJO = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 50

# the proximal-gradient baseline's backtracking: the first Lipschitz guess,
# and its growth factor on a failed majorization test (powers of two, so
# x / L is (1 / L) x bit for bit)
_LIPSCHITZ0 = 1.0
_GROWTH = 2.0


class CurvatureMemory:
    """The last 10 L-BFGS secant pairs, oldest first, as array rows.

    Pair ``i`` is row ``i`` of two ``(10, n)`` arrays ``S`` and ``Y``,
    with ``rho[i] = 1/<s_i, y_i>`` kept in a list.  ``add`` keeps a pair
    only when <y, y> is positive (it can underflow to 0 where <s, y> does
    not) and its curvature <s, y> is positive relative to ||s|| ||y||, and
    drops the oldest pair when the memory is full.  ``direction`` is the
    standard two-loop recursion with the <s, y>/<y, y> scaling of the
    newest pair, written in matrix form: the inner products it needs come
    from one Gram matrix ``S Y^T`` and a few matrix-vector products, and
    the two scalar recursions run on that m x m matrix instead of on
    n-vectors.
    """

    def __init__(self, n: int):
        self._s = np.empty((_MEMORY, n))
        self._y = np.empty((_MEMORY, n))
        self._rho: list[float] = []
        self._gamma = 1.0

    def __len__(self) -> int:
        return len(self._rho)

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        sy = float(s.dot(y))
        yy = float(y.dot(y))
        if not (yy > 0.0 and sy > 1e-12 * math.sqrt(float(s.dot(s)) * yy)):
            return
        k = len(self._rho)
        if k == _MEMORY:
            self._s[:-1] = self._s[1:]
            self._y[:-1] = self._y[1:]
            del self._rho[0]
            k -= 1
        self._s[k] = s
        self._y[k] = y
        self._rho.append(1.0 / sy)
        self._gamma = sy / yy

    def direction(self, g: np.ndarray) -> np.ndarray:
        """Return -H g, H the L-BFGS inverse-Hessian approximation."""
        k = len(self._rho)
        if k == 0:
            return -g
        S, Y, rho = self._s[:k], self._y[:k], self._rho
        gram = S.dot(Y.T).tolist()  # gram[i][j] = <s_i, y_j>
        alpha = S.dot(g).tolist()
        for i in range(k - 1, -1, -1):
            row = gram[i]
            a = alpha[i]
            for j in range(i + 1, k):
                a -= alpha[j] * row[j]
            alpha[i] = rho[i] * a
        # q = (g - alpha Y) gamma and -(q + coef S), in place in the fresh
        # products; np.array(l).dot is np.dot(l, .) without its dispatch
        q = np.array(alpha).dot(Y)
        np.subtract(g, q, out=q)
        q *= self._gamma
        coef = Y.dot(q).tolist()
        for i in range(k):
            b = coef[i]
            for j in range(i):
                b += coef[j] * gram[j][i]
            coef[i] = alpha[i] - rho[i] * b
        d = np.array(coef).dot(S)
        d += q
        return np.negative(d, out=d)


class LBFGSSession:
    """Limited-memory BFGS with Armijo backtracking, one step per ``next``.

    ``memory`` is the :class:`CurvatureMemory` the session reads and
    extends.  A trial step is accepted by the Armijo test on f with
    constant ``armijo = 1e-4``, over at most 50 steps, each half the last.
    Near the optimum the decrease that test asks for can fall below the
    round-off of f, so when f_new and f agree to within ``1e-12 (1 + |f|)``
    (the slack ``fista_solve`` uses) the step is also accepted on the
    gradient form of the Armijo test, ``<g_new, d> <= (2 armijo - 1) <g,
    d>`` (the approximate Wolfe test of Hager and Zhang).  Each step's
    point and gradient are fresh arrays, emitted without a copy; at a
    stationary point the session keeps returning them.
    """

    def __init__(self, value_and_grad, x0: np.ndarray,
                 memory: CurvatureMemory):
        self._fg = value_and_grad
        self.x = np.asarray(x0, dtype=float).copy()
        self.f, self.g = value_and_grad(self.x)
        self.memory = memory

    def next(self) -> tuple[np.ndarray, np.ndarray]:
        if not np.count_nonzero(self.g):  # g.any(), cheaper on short vectors
            return self.x, self.g
        d = self.memory.direction(self.g)
        slope = float(self.g.dot(d))
        if slope >= 0.0:
            d = -self.g
            slope = -float(self.g.dot(self.g))
        f = self.f
        slack = 1e-12 * (1.0 + abs(f))
        step = 1.0
        x_new = self.x + d  # step 1.0, and 1.0 * d is d exactly
        for _ in range(_MAX_BACKTRACKS):
            f_new, g_new = self._fg(x_new)
            if f_new <= f + _ARMIJO * step * slope:
                break
            if (abs(f_new - f) <= slack
                    and g_new.dot(d) <= (2.0 * _ARMIJO - 1.0) * slope):
                break
            step *= _BACKTRACK
            x_new = self.x + step * d
        else:
            raise LineSearchFailure("no Armijo step within the backtrack budget")
        self.memory.add(x_new - self.x, g_new - self.g)
        self.x, self.f, self.g = x_new, f_new, g_new
        return x_new, g_new


class LBFGSFProcedure:
    """F-procedure for a smooth f given by a value-and-gradient callable.

    Each session carries its ``c`` and the :class:`CurvatureMemory` it
    reads and extends as ``memory``.  A session whose anchor session has
    the same c continues that memory, so its first step already uses the
    curvature learned by the earlier sessions of the run.
    The augmented subobjective f + <p, .> + (c/2)||. - z||^2 has Hessian
    grad^2 f + c I whatever (p, z) are, so a stored pair stays a true
    secant pair while c is unchanged; any other session starts from an
    empty memory.  Every trial's gradient is still evaluated fresh, so the
    certificate is the same as with a memoryless session.  The line search
    and its round-off fallback are described on :class:`LBFGSSession`.
    The augmented gradient is a new array, and no array the callable
    returns is written, so it may return a cached one.
    """

    def __init__(self, value_and_grad):
        self._fg = value_and_grad

    def open_session(self, p, z, c, x_bar, anchor=None) -> LBFGSSession:
        prev = None if anchor is None else anchor[0]
        memory = (prev.memory if prev is not None and prev.c == c
                  else CurvatureMemory(x_bar.size))
        base = self._fg
        half_c = 0.5 * c

        def augmented(x):
            # g + p + c (x - z) in a new array, never in g
            f, g = base(x)
            dxz = x - z
            f = f + float(p.dot(x)) + half_c * float(dxz.dot(dxz))
            out = g + p
            dxz *= c
            out += dxz
            return f, out

        session = LBFGSSession(augmented, x_bar, memory)
        session.c = c
        return session


def _shrink(t: np.ndarray, kappa: float) -> np.ndarray:
    """t minus its clip to [-kappa, kappa]: sign(t) max(|t| - kappa, 0) in
    every bit but the sign of a zero, in one fresh array."""
    z = np.maximum(t, -kappa)
    np.minimum(z, kappa, out=z)
    return np.subtract(t, z, out=z)


def soft_threshold(t: np.ndarray, kappa: float) -> np.ndarray:
    """Componentwise shrink sign(t) max(|t| - kappa, 0), the prox of kappa*l1."""
    if not kappa >= 0.0:
        raise ParameterError("kappa >= 0 violated")
    return _shrink(np.asarray(t, dtype=float), kappa)


# ---------------------------------------------------------------------------
# Accelerated proximal-gradient baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FistaConfig:
    """Stop tolerance and iteration budget of the baseline, named and
    checked as in :class:`irsplit.admm.ADMMParams`."""

    epsilon: float = 1e-6
    max_outer: int = 100_000

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise ParameterError("epsilon >= 0 violated")
        _check_budget(self.max_outer, "max_outer", 0)


@np.errstate(all="ignore")
def fista_solve(problem, config: FistaConfig) -> RunResult:
    """Monotone accelerated proximal gradient with Lipschitz backtracking,
    on min F = f + g with f smooth, from the zero vector.

    ``problem`` is any object with the six members that
    :class:`irsplit.problems.LassoProblem` and ``LogisticProblem`` share,
    all but ``n`` from their base ``_L1Problem``:

    - ``n``, the dimension;
    - ``value_gradient(x)``, f and its gradient;
    - ``f_value(x)``, f alone;
    - ``objective(x)``, F;
    - ``prox_g``, the ADMM layer's g-subproblem solver: the step at y with
      Lipschitz guess L, the prox of g / L at y - grad f(y) / L, is
      ``prox_g.solve(-grad f(y), y, L)``;
    - ``kkt_dist_inf(x, floor, screen)``, the ``(value, screen)`` pair of
      :class:`irsplit.admm.AdmmProblem`'s ``kkt_residual``, whose screen
      the run passes back, starting from None.

    The accepted point never increases the objective (the accelerated
    candidate is kept only when it improves), so the objective decreases
    after every accepted backtracking step.  Stops when the KKT residual
    falls below ``config.epsilon``, tested each iteration with
    ``config.epsilon`` as the floor; returns status ``budget_exceeded``
    after ``config.max_outer`` iterations, or ``error``, with the last
    accepted point and a cause naming the backtracking, when L doubles to
    inf with no step passing the majorization test, as when f overflows.
    The residuals at the start and in the record are exact, the record
    counts prox evaluations as inner iterations, and numpy's warnings are
    off while the run lasts.
    """
    prox = problem.prox_g.solve
    x = np.zeros(problem.n)
    y = x.copy()
    t = 1.0
    lip = _LIPSCHITZ0
    obj_x = problem.objective(x)
    prox_evals = 0
    status, cause = BUDGET_EXCEEDED, ""
    outer, epsilon, screen = config.max_outer, config.epsilon, None
    started = time.perf_counter()
    if float(problem.kkt_dist_inf(x, math.inf, None)[0]) <= epsilon:
        status = CONVERGED
        outer = 0
    else:
        for k in range(1, config.max_outer + 1):
            f_y, g_y = problem.value_gradient(y)
            # round-off slack keeps the majorization test from failing
            # spuriously near the optimum, which would inflate lip forever
            slack = 1e-12 * (1.0 + abs(f_y))
            while lip < math.inf:  # the float range bounds the doublings
                z = prox(-g_y, y, lip)
                prox_evals += 1
                dz = z - y
                f_z = problem.f_value(z)
                if f_z <= f_y + g_y.dot(dz) + 0.5 * lip * dz.dot(dz) + slack:
                    break
                lip *= _GROWTH
            else:
                status, outer = ERROR, k - 1
                cause = ("Lipschitz backtracking: no step passed the "
                         "majorization test before L overflowed")
                break
            obj_z = problem.objective(z)
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            x_prev = x
            if obj_z <= obj_x:
                x = z
                obj_x = obj_z
            # stopping looks at the fresh prox candidate: the guarded
            # iterate can sit still while the candidate keeps improving
            kkt, screen = problem.kkt_dist_inf(z, epsilon, screen)
            if float(kkt) <= epsilon:
                x = z
                status = CONVERGED
                outer = k
                break
            # accelerated point built from the prox candidate even when
            # the monotone guard keeps the previous iterate
            y = x + (t / t_next) * (z - x) + ((t - 1.0) / t_next) * (x - x_prev)
            t = t_next
    wall = time.perf_counter() - started
    return run_result(x, status, outer, prox_evals, wall,
                      float(problem.kkt_dist_inf(x, math.inf, None)[0]),
                      problem.objective(x), cause)
