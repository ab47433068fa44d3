"""Inertial-relaxed hybrid proximal-projection (HPP) engine.

Solves the monotone inclusion ``0 in T(z)`` given only an inexact resolvent
oracle for ``T``.  Each iteration extrapolates the two most recent iterates
(inertia), asks the oracle for an approximate resolvent pair passing a
relative-error test, and applies a relaxed orthogonal projection onto the
hyperplane that separates the extrapolated point from the solution set.

The admissible inertia and relaxation caps are mutually constrained: for an
inertia bound ``beta`` the relaxation cap is ``rho_bar_of_beta(beta)`` and
conversely ``beta_of_rho_bar`` recovers ``beta``.  ``validate_params``
enforces the full contract.

:func:`run_hpp` is the engine's one loop: it checks its inputs at entry and
runs on plain arrays, through the kernels of :func:`extrapolate` and
:func:`relaxed_projection`.  As in the splitting drivers, an optional
observer sees each completed iteration, and a spent budget, a rejected
certificate or a non-finite iterate is a returned status.
:func:`fejer_check` and :func:`alvarez_attouch_check` read a trajectory as
``(w, z_tilde, z_next)`` tuples, which the events of all three layers map
to.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .errors import OracleFailure, ParameterError, ZeroVectorError
from .records import BUDGET_EXCEEDED, CONVERGED, ERROR, RunRecord

__all__ = [
    "rho_bar_of_beta",
    "beta_of_rho_bar",
    "q_eval",
    "smallest_positive_root",
    "InertiaRelaxParams",
    "validate_params",
    "ProxCertificate",
    "ResolventOracle",
    "extrapolate",
    "error_criterion_holds",
    "error_ratio",
    "gauss_bounds_hold",
    "relaxed_projection",
    "HPPResult",
    "run_hpp",
    "fejer_check",
    "alvarez_attouch_check",
]

def _vec(x, name="vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = np.atleast_1d(v.ravel())
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
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


def smallest_positive_root(a: float, b: float, c: float) -> float:
    """Smallest positive root of ``a x^2 - b x + c`` with b, c > 0.

    Uses the rationalized form 2c / (b + sqrt(b^2 - 4ac)), which covers the
    affine case a = 0 and both signs of ``a`` without branching: for a > 0
    it is the smaller root, for a < 0 it is the unique positive (larger)
    root.
    """
    if b <= 0.0 or c <= 0.0:
        raise ParameterError("requires b > 0 and c > 0")
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise ParameterError("requires b^2 - 4ac > 0")
    return 2.0 * c / (b + math.sqrt(disc))


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InertiaRelaxParams:
    """Inertia / relaxation / error-tolerance parameters of the engine.

    Contract: 0 <= alpha < beta < 1, 0 <= sigma < 1, 0 < rho_lo <= rho_hi
    < 2, lam > 0, and the coupling alpha < beta_of_rho_bar(rho_hi) -- i.e.
    some admissible inertia bound above alpha pairs with the requested
    relaxation cap.  ``lam`` is the constant proximal stepsize; the
    splitting layers built on top require lam = 1 and reject any other.
    """

    alpha: float
    beta: float
    sigma: float
    rho_lo: float
    rho_hi: float
    lam: float = 1.0

    @classmethod
    def from_beta(cls, alpha: float, beta: float, sigma: float = 0.99,
                  lam: float = 1.0) -> "InertiaRelaxParams":
        """Pair ``beta`` with its maximal admissible relaxation."""
        rho = rho_bar_of_beta(beta)
        return cls(alpha=alpha, beta=beta, sigma=sigma,
                   rho_lo=rho, rho_hi=rho, lam=lam)

    @classmethod
    def plain(cls, sigma: float = 0.0, lam: float = 1.0) -> "InertiaRelaxParams":
        """No inertia, unit relaxation: the classical projective setup."""
        return cls(alpha=0.0, beta=1.0 / 3.0, sigma=sigma,
                   rho_lo=1.0, rho_hi=1.0, lam=lam)


def validate_params(p: InertiaRelaxParams) -> None:
    """Raise ``ParameterError`` naming the first violated inequality."""
    vals = (p.alpha, p.beta, p.sigma, p.rho_lo, p.rho_hi, p.lam)
    if not all(math.isfinite(v) for v in vals):
        raise ParameterError("parameters must be finite")
    if p.alpha < 0.0:
        raise ParameterError("0 <= alpha violated")
    if not p.alpha < p.beta:
        raise ParameterError("alpha < beta violated")
    if not p.beta < 1.0:
        raise ParameterError("beta < 1 violated")
    if not 0.0 <= p.sigma < 1.0:
        raise ParameterError("0 <= sigma < 1 violated")
    if not p.rho_lo > 0.0:
        raise ParameterError("rho_lo > 0 violated")
    if not p.rho_lo <= p.rho_hi:
        raise ParameterError("rho_lo <= rho_hi violated")
    if not p.rho_hi < 2.0:
        raise ParameterError("rho_hi < 2 violated")
    if not p.alpha < beta_of_rho_bar(p.rho_hi):
        raise ParameterError("coupling alpha < beta_of_rho_bar(rho_hi) violated")
    if not p.lam > 0.0:
        raise ParameterError("lam > 0 violated")


# ---------------------------------------------------------------------------
# Certificates and the oracle interface
# ---------------------------------------------------------------------------

@dataclass
class ProxCertificate:
    """Output of one inexact resolvent solve: ``v in T(z_tilde)``, stepsize lam.

    ``exact=True`` asserts that the producer solved the proximal equation
    exactly by construction (z_tilde = w - lam v), which makes the
    relative-error test vacuous; this is how a sigma = 0 run is realized in
    floating point.
    """

    z_tilde: np.ndarray
    v: np.ndarray
    lam: float
    exact: bool = False

    def __post_init__(self):
        self.z_tilde = _vec(self.z_tilde, "z_tilde")
        self.v = _vec(self.v, "v")
        _same_shape(self.z_tilde, self.v)
        if not self.lam > 0.0:
            raise ParameterError("certificate stepsize lam must be positive")


class ResolventOracle(Protocol):
    """Inexact resolvent capability for a maximal monotone operator.

    ``solve(w, lam, sigma)`` returns a certificate whose pair satisfies the
    producer contract v in T(z_tilde) and, unless ``exact``, the
    relative-error acceptance test at tolerance sigma against ``w``.
    A certificate with ``v @ v == 0`` (v = 0, or a v whose squared norm
    underflows) announces that z_tilde solves the inclusion.
    """

    def solve(self, w: np.ndarray, lam: float, sigma: float) -> ProxCertificate:
        ...


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

# Private kernels of the public steps and of the loops of run_hpp and
# run_admm: float arrays of one shape in, nothing checked.  In-place
# operations on a fresh array are the formula's bit for bit, as a product or
# sum with its operands swapped rounds the same.

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


def extrapolate(z_cur: np.ndarray, z_prev: np.ndarray, alpha_k: float) -> np.ndarray:
    """Inertial extrapolation w = z_cur + alpha_k (z_cur - z_prev)."""
    z_cur = np.asarray(z_cur, dtype=float)
    z_prev = np.asarray(z_prev, dtype=float)
    _same_shape(z_cur, z_prev)
    if alpha_k < 0.0:
        raise ParameterError("alpha_k must be nonnegative")
    return _extrapolate(z_cur, z_prev, alpha_k)


def error_criterion_holds(w: np.ndarray, cert: ProxCertificate, sigma: float) -> bool:
    """Relative-error acceptance test.

    True iff ||lam v + z_tilde - w||^2 <= sigma^2 (||z_tilde - w||^2
    + ||lam v||^2).  The left side is evaluated as lam*v - (w - z_tilde) so
    that an exactly constructed pair cancels cleanly.
    """
    _same_shape(w, cert.z_tilde)
    lv = cert.lam * cert.v
    resid = lv - (w - cert.z_tilde)
    dz = cert.z_tilde - w
    return resid @ resid <= sigma * sigma * (dz @ dz + lv @ lv)


def error_ratio(w: np.ndarray, cert: ProxCertificate, sigma: float) -> float:
    """LHS / RHS of the acceptance test; <= 1 on accepted certificates."""
    lv = cert.lam * cert.v
    resid = lv - (w - cert.z_tilde)
    dz = cert.z_tilde - w
    lhs = resid @ resid
    rhs = sigma * sigma * (dz @ dz + lv @ lv)
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


def gauss_bounds_hold(w: np.ndarray, cert: ProxCertificate, sigma: float) -> bool:
    """Two-sided bound tying ||lam v|| to ||z_tilde - w|| on accepted pairs.

    (1-s^2)/(1+sqrt(1-(1-s^2)^2)) ||z_tilde-w|| <= ||lam v||
    <= (1-s^2)/(1-sqrt(1-(1-s^2)^2)) ||z_tilde-w||, s = sigma.  At sigma = 0
    both coefficients equal 1 and the bound collapses to equality.  Allows a
    1e-12 relative round-off slack.
    """
    u = sigma * sigma
    root = math.sqrt(u * (2.0 - u))  # = sqrt(1 - (1 - sigma^2)^2)
    lo = (1.0 - u) / (1.0 + root)
    hi = (1.0 - u) / (1.0 - root)
    dz = float(np.linalg.norm(cert.z_tilde - w))
    lv = float(np.linalg.norm(cert.lam * cert.v))
    slack = 1e-12
    return (lo * dz <= lv * (1.0 + slack) + slack and
            lv <= hi * dz * (1.0 + slack) + slack)


def relaxed_projection(w: np.ndarray, cert: ProxCertificate, rho_k: float) -> np.ndarray:
    """Relaxed projection of ``w`` onto the separating hyperplane.

    Returns w - rho_k * (<w - z_tilde, v> / ||v||^2) v; with rho_k = 1 this
    is the orthogonal projection onto {z : <z, v> = <z_tilde, v>}.  Raises
    ``ZeroVectorError`` when ``v @ v == 0``.
    """
    _same_shape(w, cert.z_tilde)
    vv = cert.v @ cert.v
    if vv == 0.0:
        raise ZeroVectorError("v = 0: z_tilde already solves the inclusion")
    return _project(w, cert.z_tilde, cert.v, vv, rho_k)


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


@dataclass
class HPPResult:
    z: np.ndarray
    status: str
    v_norm: float
    record: RunRecord


def run_hpp(z0, oracle: ResolventOracle, params: InertiaRelaxParams,
            max_iters: int = 1000, v_tolerance: float = 0.0,
            observer: Optional[Callable[[dict], None]] = None) -> HPPResult:
    """Drive the engine from ``z0`` until v = 0, ||v|| <= v_tolerance or budget.

    The schedule is constant: alpha_k = alpha and rho_k = rho_hi.  Stops
    with status ``solved`` when a certificate has ``v @ v == 0``, also by
    underflow (``z`` is then its point, ``v_norm`` 0), ``converged`` when
    ||v|| <= ``v_tolerance``, or ``budget_exceeded`` with the last iterate
    and the last ||v|| (inf when ``max_iters`` is 0) after ``max_iters``
    iterations.  Inputs are checked once, at entry, before any oracle call:
    ``params``, a negative ``max_iters`` and a negative or NaN
    ``v_tolerance`` raise ``ParameterError``, a non-finite ``z0``
    ``ValueError``.  After entry a certificate that fails the relative-error
    test or a non-finite projected iterate ends the run with status
    ``error``, the last completed iterate and its ||v||, and a
    ``record.cause`` that names the failure and the outer iteration.

    ``observer``, when given, is called once per completed iteration with a
    dict: ``k``, ``alpha_k``, ``rho_k``, the extrapolated ``w``, the
    accepted certificate ``cert`` and the next iterate ``z``.  The arrays
    are passed without a copy and are read-only for the observer.  An
    exception the observer raises ends the run.
    """
    validate_params(params)
    if max_iters < 0:
        raise ParameterError("max_iters >= 0 violated")
    if not v_tolerance >= 0.0:
        raise ParameterError("v_tolerance >= 0 violated")
    z = z_prev = _vec(z0, "z0")
    lam, sigma = params.lam, params.sigma
    alpha, rho = params.alpha, params.rho_hi
    solve = oracle.solve
    started = time.perf_counter()
    status, v_norm, cause = BUDGET_EXCEEDED, math.inf, ""
    for k in range(max_iters):
        w = _extrapolate(z, z_prev, alpha)
        cert = solve(w, lam, sigma)
        vv = cert.v @ cert.v
        if vv == 0.0:
            z, status, v_norm = cert.z_tilde, "solved", 0.0
            break
        if not (cert.exact or error_criterion_holds(w, cert, sigma)):
            status, cause = ERROR, repr(OracleFailure(
                "certificate fails the relative-error test"))
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
    if cause:
        cause += f" at outer iteration {k}"
    rec = RunRecord(k, 0, time.perf_counter() - started, v_norm, math.nan,
                    CONVERGED if status == "solved" else status, cause)
    return HPPResult(z, status, v_norm, rec)


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
