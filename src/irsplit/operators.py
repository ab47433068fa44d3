"""Catalog of monotone operators, resolvents and exact subproblem engines.

These small building blocks instantiate the abstract interfaces of the
solver layers for problems whose resolvents have closed forms: scaled
identities, monotone affine maps, l1 subdifferentials and quadratics.  They
double as independent references in tests and demos.  A resolvent is one
method, ``resolvent(step, point)``, which the engine's oracles and the
splitting layer (:class:`irsplit.dr.ResolventMap`) both call.  The B
half-step solvers of :func:`irsplit.dr.run_dr` are F-procedures for B.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
import numpy as np

from .errors import ParameterError
from .hpp import ProxCertificate, error_criterion_holds
from .subsolvers import QuadraticFProcedure, soft_threshold

__all__ = [
    "ScaledIdentityOperator",
    "AffineOperator",
    "ExactResolventOracle",
    "PerturbedResolventOracle",
    "L1Resolvent",
    "ExactBProcedure",
    "CGBProcedure",
]


# ---------------------------------------------------------------------------
# Monotone operators with closed-form resolvents
# ---------------------------------------------------------------------------

@dataclass
class ScaledIdentityOperator:
    """T(z) = mu z with mu >= 0 (maximal monotone)."""

    mu: float = 1.0

    def __post_init__(self):
        if not self.mu >= 0.0:
            raise ParameterError("mu >= 0 violated")

    def evaluate(self, z):
        return self.mu * np.asarray(z, dtype=float)

    def resolvent(self, step, w):
        return np.asarray(w, dtype=float) / (1.0 + step * self.mu)


def _affine_parts(mat, shift):
    """M and q of the affine map M x + q as float arrays: ``ValueError``
    unless M is square and q, zero when None, has shape (n,)."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"mat has shape {mat.shape}, expected square")
    n = mat.shape[0]
    shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
    if shift.shape != (n,):
        raise ValueError(f"shift has shape {shift.shape}, expected ({n},)")
    return mat, shift


class AffineOperator:
    """T(z) = M z + q, monotone when M + M^T is positive semidefinite."""

    def __init__(self, mat, shift=None):
        self.mat, self.shift = _affine_parts(mat, shift)
        sym = 0.5 * (self.mat + self.mat.T)
        if np.linalg.eigvalsh(sym).min() < -1e-12:
            raise ParameterError("M + M^T must be positive semidefinite")

    def evaluate(self, z):
        return self.mat @ z + self.shift

    def resolvent(self, step, w):
        return np.linalg.solve(np.eye(len(self.mat)) + step * self.mat,
                               w - step * self.shift)


@dataclass
class L1Resolvent:
    """Resolvent of the subdifferential of kappa * l1: the shrink."""

    kappa: float

    def resolvent(self, gamma, u):
        return soft_threshold(u, gamma * self.kappa)


# ---------------------------------------------------------------------------
# Resolvent oracles for the proximal-projection engine
# ---------------------------------------------------------------------------

class ExactResolventOracle:
    """Certificates built from a closed-form resolvent: z_tilde = J(w), v =
    w - z_tilde, exact by construction.  The operator needs only
    ``resolvent(step, w)``, the protocol ``run_dr`` takes as it is, and is
    called at step 1."""

    def __init__(self, operator):
        self.operator = operator

    def solve(self, w, sigma):
        z_tilde = self.operator.resolvent(1.0, w)
        return ProxCertificate(z_tilde, w - z_tilde, exact=True)


# PerturbedResolventOracle's first perturbation radius, as a fraction of the
# distance to the exact point, and its halvings before the exact pair
_SCALE = 0.5
_MAX_SHRINKS = 60


class PerturbedResolventOracle:
    """Genuinely inexact certificates: the exact resolvent point is
    perturbed, the operator re-evaluated there, and the perturbation shrunk
    until the relative-error test accepts.  Falls back to the exact pair
    when sigma leaves no room."""

    def __init__(self, operator, seed: int = 0):
        self.operator = operator
        self.rng = np.random.default_rng(seed)

    def solve(self, w, sigma):
        w = np.asarray(w, dtype=float)
        exact_point = self.operator.resolvent(1.0, w)
        radius = _SCALE * max(float(np.linalg.norm(w - exact_point)), 1e-12)
        noise = self.rng.standard_normal(w.shape[0])
        for _ in range(_MAX_SHRINKS):
            z_tilde = exact_point + radius * noise
            v = self.operator.evaluate(z_tilde)
            cert = ProxCertificate(z_tilde, v)
            if error_criterion_holds(w, cert, sigma):
                return cert
            radius *= 0.5
        return ProxCertificate(exact_point, w - exact_point, exact=True)


# ---------------------------------------------------------------------------
# F-procedures for an operator B: the B half-step solvers of run_dr
# ---------------------------------------------------------------------------

class ExactBProcedure:
    """One-trial F-procedure wrapping a closed-form resolvent of B: any
    object with ``resolvent(gamma, u)``, such as the operators above.

    The session for (p, z, c) emits x = J_{B/c}(z - p/c), which solves
    0 in B(x) + p + c (x - z), with y = 0, exactly by construction.
    """

    def __init__(self, resolvent_map):
        self.resolvent_map = resolvent_map

    def open_session(self, p, z, c, x_bar, anchor=None):
        x = self.resolvent_map.resolvent(1.0 / c, z - p / c)
        return SimpleNamespace(next=lambda: (x, np.zeros_like(x)), exact=True)


class CGBProcedure(QuadraticFProcedure):
    """CG F-procedure for an affine B(x) = Q x + q with Q SPD: the
    :class:`irsplit.subsolvers.QuadraticFProcedure` with Q u = ``mat @ u``
    and r = -q, both read when used, anchored start included.  A trial is
    one CG step on (Q + c I) x = -q - p + c z from x_bar; its certificate y
    = Q x + q + p + c (x - z) is CG's own residual."""

    _r = property(lambda self: -self.shift)

    def __init__(self, mat, shift=None):
        self.mat, self.shift = _affine_parts(mat, shift)
        self.reset()

    def _product(self, u):
        return self.mat @ u
