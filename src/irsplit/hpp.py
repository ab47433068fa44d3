"""Inertial-relaxed hybrid proximal-projection (HPP) engine: its parameters
and its descent diagnostics.

The engine solves ``0 in T(z)`` given only an inexact resolvent of ``T``.
Each iteration extrapolates the two most recent iterates (inertia), takes
a pair (z_tilde, v), v in T(z_tilde), that passes the relative-error test
||v + z_tilde - w||^2 <= sigma^2 (||z_tilde - w||^2 + ||v||^2) at the
extrapolated point w, and relaxes the projection of w onto the hyperplane
that separates it from the solution set.  The stepsize is 1: a stepsize
lam is the method on lam T, whose pair (z_tilde, lam v) gives the same
hyperplane.

The engine is the base of the paper's theory, but its loop is written
once, in :mod:`irsplit.admm`: with A = 0 the splitting is the
proximal-point method on B, and :func:`irsplit.dr.run_hpp` runs it so.
This module keeps what the three layers share: the coupling of the
inertia bound ``beta`` and the relaxation cap ``rho_bar_of_beta(beta)``
(inverse ``beta_of_rho_bar``), :class:`InertiaRelaxParams`, which checks
its contract when built, the loop's kernels ``_vec`` and ``_extrapolate``,
and :func:`fejer_check` and :func:`alvarez_attouch_check`, which read a
trajectory as ``(w, z_tilde, z_next)`` tuples, the form the events of
all three layers map to.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "rho_bar_of_beta",
    "beta_of_rho_bar",
    "q_eval",
    "InertiaRelaxParams",
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
# Elementary operations
# ---------------------------------------------------------------------------

# A private kernel of the loop of run_admm and of the anchored CG start:
# float arrays of one shape in, nothing checked.  In-place operations on a
# fresh array are the formula's bit for bit, as a product or sum with its
# operands swapped rounds the same.  tests/reference.py states the formula
# once as a plain expression, and tests/test_kernels.py holds the kernel to
# it bit for bit.

def _extrapolate(cur: np.ndarray, prev: np.ndarray,
                 alpha_k: float) -> np.ndarray:
    """cur + alpha_k (cur - prev)."""
    out = cur - prev
    out *= alpha_k
    out += cur
    return out


# ---------------------------------------------------------------------------
# Trajectory diagnostics
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
