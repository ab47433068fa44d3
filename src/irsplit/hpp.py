"""Inertial-relaxed hybrid proximal-projection (HPP) engine.

Solves the monotone inclusion ``0 in T(z)`` given only an inexact resolvent
oracle for ``T``.  Each iteration extrapolates the two most recent iterates
(inertia), asks the oracle for an approximate resolvent pair passing a
relative-error test, and applies a relaxed orthogonal projection onto the
hyperplane that separates the extrapolated point from the solution set.
The proximal stepsize is 1: a stepsize lam is the method on lam T, whose
certificate (z_tilde, lam v) gives the same hyperplane as (z_tilde, v).

The admissible inertia and relaxation caps are mutually constrained: for an
inertia bound ``beta`` the relaxation cap is ``rho_bar_of_beta(beta)`` and
conversely ``beta_of_rho_bar`` recovers ``beta``.  An
:class:`InertiaRelaxParams` checks the full contract when it is built.

:func:`run_hpp` is the engine's one loop, and a single step is
``run_hpp(max_iters=1)`` with an observer.  It checks its inputs at entry
and runs on plain arrays, through the private kernels ``_extrapolate`` and
``_project``.  As in the splitting drivers, an optional observer sees each
completed iteration, and a spent budget, a rejected certificate or a
non-finite iterate is a status of the returned result.
:func:`fejer_check` and :func:`alvarez_attouch_check` read a trajectory as
``(w, z_tilde, z_next)`` tuples, which the events of all three layers map
to.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .errors import ParameterError, _check_budget
from .records import (BUDGET_EXCEEDED, CONVERGED, ERROR, SOLVED, RunResult,
                      run_result)

__all__ = [
    "rho_bar_of_beta",
    "beta_of_rho_bar",
    "q_eval",
    "InertiaRelaxParams",
    "ProxCertificate",
    "ResolventOracle",
    "error_criterion_holds",
    "error_ratio",
    "run_hpp",
    "fejer_check",
    "alvarez_attouch_check",
]

def _finite(x, name: str) -> np.ndarray:
    """``x`` as a float array, else ``ValueError`` on a non-finite entry."""
    v = np.asarray(x, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    return v


def _vec(x, name: str) -> np.ndarray:
    """``x`` as a finite 1-D float array, else ``ValueError`` naming it."""
    v = _finite(x, name)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    return v


def _same_shape(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# Scalar coupling between the inertia cap and the relaxation cap
# ---------------------------------------------------------------------------

def rho_bar_of_beta(beta: float) -> float:
    """Relaxation cap admissible for inertia bound ``beta``.

    Strictly decreasing from 2 (beta -> 0) to 0 (beta -> 1), with value 1
    at beta = 1/3.  Clamped below 2, where it would round to 2 (beta below
    about 1.1e-16), so it lies in the domain of :func:`beta_of_rho_bar`.
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError(f"beta must lie in (0, 1), got {beta}")
    t = 2.0 * (beta - 1.0) ** 2
    return min(t / (t + 3.0 * beta - 1.0), math.nextafter(2.0, 0.0))


def beta_of_rho_bar(rho_bar: float) -> float:
    """Inertia bound paired with relaxation cap ``rho_bar`` (inverse map),
    clamped below 1 (rho_bar below about 1.2e-32 would round to 1)."""
    if not 0.0 < rho_bar < 2.0:
        raise ParameterError(f"rho_bar must lie in (0, 2), got {rho_bar}")
    return min(2.0 * (2.0 - rho_bar) / (
        4.0 - rho_bar + math.sqrt(rho_bar * (16.0 - 7.0 * rho_bar))
    ), math.nextafter(1.0, 0.0))


def q_eval(nu: float, rho_bar: float) -> float:
    """Quadratic whose positive root is ``beta_of_rho_bar(rho_bar)``.

    q(nu) = 2(1/rho_bar - 1) nu^2 - (4/rho_bar - 1) nu + 2/rho_bar - 1.
    Positive on [0, beta) and decreasing on [0, beta].
    """
    if not 0.0 < rho_bar < 2.0:
        raise ParameterError(f"rho_bar must lie in (0, 2), got {rho_bar}")
    ri = 1.0 / rho_bar
    return 2.0 * (ri - 1.0) * nu * nu - (4.0 * ri - 1.0) * nu + (2.0 * ri - 1.0)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InertiaRelaxParams:
    """Inertia / relaxation / error-tolerance parameters of the engine.

    Contract: 0 <= alpha < beta < 1, 0 <= sigma < 1, 0 < rho_lo <= rho_hi
    < 2, and the coupling alpha < beta_of_rho_bar(rho_hi) -- i.e. some
    admissible inertia bound above alpha pairs with the requested
    relaxation cap.  There is no stepsize (see the module docstring).
    Construction, ``dataclasses.replace`` included, checks the contract
    and raises ``ParameterError`` naming the first violated inequality.
    """

    alpha: float
    beta: float
    sigma: float
    rho_lo: float
    rho_hi: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ParameterError("parameters must be finite")
        if self.alpha < 0.0:
            raise ParameterError("0 <= alpha violated")
        if not self.alpha < self.beta:
            raise ParameterError("alpha < beta violated")
        if not self.beta < 1.0:
            raise ParameterError("beta < 1 violated")
        if not 0.0 <= self.sigma < 1.0:
            raise ParameterError("0 <= sigma < 1 violated")
        if not self.rho_lo > 0.0:
            raise ParameterError("rho_lo > 0 violated")
        if not self.rho_lo <= self.rho_hi:
            raise ParameterError("rho_lo <= rho_hi violated")
        if not self.rho_hi < 2.0:
            raise ParameterError("rho_hi < 2 violated")
        if not self.alpha < beta_of_rho_bar(self.rho_hi):
            raise ParameterError(
                "coupling alpha < beta_of_rho_bar(rho_hi) violated")

    @classmethod
    def from_beta(cls, alpha: float, beta: float,
                  sigma: float = 0.99) -> "InertiaRelaxParams":
        """Pair ``beta`` with its maximal admissible relaxation."""
        rho = rho_bar_of_beta(beta)
        return cls(alpha=alpha, beta=beta, sigma=sigma, rho_lo=rho, rho_hi=rho)

    @classmethod
    def plain(cls, sigma: float = 0.0) -> "InertiaRelaxParams":
        """No inertia, unit relaxation: the classical projective setup."""
        return cls(alpha=0.0, beta=1.0 / 3.0, sigma=sigma,
                   rho_lo=1.0, rho_hi=1.0)


# ---------------------------------------------------------------------------
# Certificates and the oracle interface
# ---------------------------------------------------------------------------

@dataclass
class ProxCertificate:
    """Output of one inexact resolvent solve: ``v in T(z_tilde)``.

    The pair alone: :func:`run_hpp` tests every certificate, and an exact
    pair v = w - z_tilde passes at sigma = 0 (see :func:`_error_sides`).
    """

    z_tilde: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.z_tilde = _vec(self.z_tilde, "z_tilde")
        self.v = _vec(self.v, "v")
        _same_shape(self.z_tilde, self.v)


class ResolventOracle(Protocol):
    """Inexact resolvent capability for a maximal monotone operator T.

    ``solve(w, sigma)`` returns a certificate whose pair satisfies the
    producer contract v in T(z_tilde) and the relative-error acceptance
    test at tolerance sigma against ``w``, at unit stepsize.  A
    certificate with ``v @ v == 0`` (v = 0, or a v whose squared norm
    underflows) announces that z_tilde solves the inclusion.
    """

    def solve(self, w: np.ndarray, sigma: float) -> ProxCertificate:
        ...


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

# Private kernels of the loops of run_hpp and run_admm, and of the anchored
# CG start: float arrays of one shape in, nothing checked.  In-place
# operations on a fresh array are the formula's bit for bit, as a product
# or sum with its operands swapped rounds the same.  tests/reference.py states each formula once as a plain
# expression, and tests/test_kernels.py holds each kernel to it bit for bit.

def _extrapolate(cur: np.ndarray, prev: np.ndarray,
                 alpha_k: float) -> np.ndarray:
    """cur + alpha_k (cur - prev)."""
    out = cur - prev
    out *= alpha_k
    out += cur
    return out


def _project(w: np.ndarray, z_tilde: np.ndarray, v: np.ndarray, vv: float,
             rho_k: float) -> np.ndarray:
    """w - rho_k tau v with tau = <w - z_tilde, v> / vv and vv = v @ v."""
    tau = ((w - z_tilde) @ v) / vv
    return w - (rho_k * tau) * v


def _error_sides(w: np.ndarray, cert: ProxCertificate, sigma: float):
    """Both sides of the relative-error test, ||v + z_tilde - w||^2 and
    sigma^2 (||z_tilde - w||^2 + ||v||^2).  The left side is evaluated as
    v - (w - z_tilde): an exact pair v = w - z_tilde then cancels to 0.0
    exactly, which is how it passes at sigma = 0.  ``w`` and the
    certificate's point must share one shape, else ``ValueError``."""
    _same_shape(w, cert.z_tilde)
    resid = cert.v - (w - cert.z_tilde)
    dz = cert.z_tilde - w
    return resid @ resid, sigma * sigma * (dz @ dz + cert.v @ cert.v)


def error_criterion_holds(w: np.ndarray, cert: ProxCertificate, sigma: float) -> bool:
    """Relative-error acceptance test at unit stepsize.

    True iff ||v + z_tilde - w||^2 <= sigma^2 (||z_tilde - w||^2
    + ||v||^2).  A zero left side passes at any sigma, also where the
    right side is NaN (0 * inf).
    """
    lhs, rhs = _error_sides(w, cert, sigma)
    return lhs == 0.0 or lhs <= rhs


def error_ratio(w: np.ndarray, cert: ProxCertificate, sigma: float) -> float:
    """LHS / RHS of the acceptance test; <= 1 on accepted certificates, and
    0 when the left side is."""
    lhs, rhs = _error_sides(w, cert, sigma)
    if lhs == 0.0:
        return 0.0
    return math.inf if rhs == 0.0 else lhs / rhs


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _s_bound(z_next, w, z_tilde, params) -> float:
    """Fejer slack for the step producing ``z_next`` from hat point ``w``."""
    dzw = z_next - w
    dtw = z_tilde - w
    one_minus = (1.0 - params.sigma ** 2) ** 2
    return (2.0 - params.rho_hi) * max(
        (dzw @ dzw) / params.rho_hi,
        params.rho_lo * one_minus * (dtw @ dtw),
    )


@np.errstate(all="ignore")
def run_hpp(z0, oracle: ResolventOracle, params: InertiaRelaxParams,
            max_iters: int = 1000, v_tolerance: float = 0.0,
            observer: Optional[Callable[[dict], None]] = None) -> RunResult:
    """Drive the engine from ``z0`` until v = 0, ||v|| <= v_tolerance or budget.

    The schedule is constant: alpha_k = alpha and rho_k = rho_hi.  The
    result's ``x`` is the last iterate and ``record.final_kkt`` the last
    ||v|| (inf when ``max_iters`` is 0).  Stops with status ``solved`` when
    a certificate has ``v @ v == 0``, also by underflow (``x`` is then its
    point, ||v|| 0), ``converged`` when ||v|| <= ``v_tolerance``, or
    ``budget_exceeded`` after ``max_iters`` iterations.  Inputs are
    checked once, at entry, before any oracle call: a ``max_iters`` that
    is not a nonnegative integer and a negative or NaN ``v_tolerance`` raise
    ``ParameterError``, a ``z0`` that is not a finite 1-D array
    ``ValueError``.  After entry a certificate that fails the
    relative-error test or a non-finite projected iterate ends the run
    with status ``error``, the last completed iterate and its ||v||, and a
    ``record.cause`` that names the failure and the outer iteration.
    numpy's floating-point warnings are off while the run lasts, oracle
    and observer included: an overflowing projection ends it as
    ``error``, not as a warning.

    ``observer``, when given, is called once per completed iteration with a
    dict: ``k``, ``alpha_k``, ``rho_k``, the extrapolated ``w``, the
    accepted certificate ``cert`` and the next iterate ``z``.  The arrays
    are passed without a copy and are read-only for the observer.  An
    exception the observer raises ends the run.
    """
    _check_budget(max_iters, "max_iters", 0)
    if not v_tolerance >= 0.0:
        raise ParameterError("v_tolerance >= 0 violated")
    z = z_prev = _vec(z0, "z0")
    sigma, alpha, rho = params.sigma, params.alpha, params.rho_hi
    solve = oracle.solve
    started = time.perf_counter()
    status, v_norm, cause = BUDGET_EXCEEDED, math.inf, ""
    for k in range(max_iters):
        w = _extrapolate(z, z_prev, alpha)
        cert = solve(w, sigma)
        vv = cert.v @ cert.v
        if vv == 0.0:
            z, status, v_norm = cert.z_tilde, SOLVED, 0.0
            break
        if not error_criterion_holds(w, cert, sigma):
            status = ERROR
            cause = "OracleFailure: certificate fails the relative-error test"
            break
        z_next = _project(w, cert.z_tilde, cert.v, vv, rho)
        if not np.isfinite(z_next).all():
            status, cause = ERROR, "non-finite iterate in the projection"
            break
        if observer is not None:
            observer({"k": k, "alpha_k": alpha, "rho_k": rho, "w": w,
                      "cert": cert, "z": z_next})
        z_prev, z = z, z_next
        v_norm = math.sqrt(vv)
        if v_norm <= v_tolerance:
            status, k = CONVERGED, k + 1
            break
    else:
        k = max_iters
    return run_result(z, status, k, 0, time.perf_counter() - started, v_norm,
                      math.nan, cause)


# ---------------------------------------------------------------------------
# Trajectory diagnostics
# ---------------------------------------------------------------------------

def fejer_check(steps: Sequence, z_star, params: InertiaRelaxParams,
                rel_tol: float = 1e-9) -> Optional[int]:
    """First index violating the per-step Fejer-type inequality, else None.

    Each step is a tuple ``(w, z_tilde, z_next)``; the slack term is
    recomputed from the parameters.  The test is ||z_next - z*||^2 + s <=
    ||w - z*||^2 (1 + rel_tol).
    """
    z_star = _vec(z_star, "z_star")
    for idx, (w, z_tilde, z_next) in enumerate(steps):
        s = _s_bound(z_next, w, z_tilde, params)
        dzn = z_next - z_star
        dw = w - z_star
        lhs = dzn @ dzn + s
        rhs = dw @ dw
        if lhs > rhs * (1.0 + rel_tol):
            return idx
    return None


def alvarez_attouch_check(steps: Sequence, z0, z_star,
                          params: InertiaRelaxParams,
                          rel_tol: float = 1e-9) -> Optional[int]:
    """First index violating the inertial partial-sum bound, else None.

    Checks phi_k + sum_{j<=k} s_j <= phi_0 + (1 - alpha)^{-1} sum_{j<=k}
    delta_j along a trajectory from ``z0`` given as ``(w, z_tilde,
    z_next)`` tuples, as for :func:`fejer_check`, with phi_k = ||z^k -
    z*||^2.  The slack s_k is recomputed from the parameters, and delta_k =
    alpha (1 + alpha) ||z^k - z^{k-1}||^2 from consecutive iterates (z^{-1}
    = z^0 = z0).
    """
    z0 = _vec(z0, "z0")
    z_star = _vec(z_star, "z_star")
    phi0 = float((z0 - z_star) @ (z0 - z_star))
    s_sum = 0.0
    delta_sum = 0.0
    scale = 1.0 / (1.0 - params.alpha)
    coef = params.alpha * (1.0 + params.alpha)
    z_prev = z_cur = z0
    for idx, (w, z_tilde, z_next) in enumerate(steps):
        s_sum += float(_s_bound(z_next, w, z_tilde, params))
        inc = z_cur - z_prev
        delta_sum += coef * float(inc @ inc)
        dz = z_next - z_star
        if float(dz @ dz) + s_sum > (phi0 + scale * delta_sum) * (
                1.0 + rel_tol) + rel_tol:
            return idx
        z_prev, z_cur = z_cur, z_next
    return None
