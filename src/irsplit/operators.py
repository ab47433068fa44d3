"""Catalog of monotone operators, resolvents and exact subproblem engines.

These small building blocks instantiate the abstract interfaces of the
solver layers for problems whose resolvents have closed forms: scaled
identities, monotone affine maps, l1 subdifferentials and quadratics.  They
double as independent references in tests and demos.  A resolvent is one
method, ``resolvent(step, point)``, which the engine's oracles and the
splitting layer (:class:`irsplit.dr.ResolventMap`) both call.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ParameterError
from .hpp import ProxCertificate, error_criterion_holds
from .subsolvers import CGSession, soft_threshold

__all__ = [
    "ScaledIdentityOperator",
    "AffineOperator",
    "ExactResolventOracle",
    "PerturbedResolventOracle",
    "L1Resolvent",
    "ExactBProcedure",
    "CGBProcedure",
    "ExactQuadraticFProcedure",
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

    def resolvent(self, lam, w):
        return np.asarray(w, dtype=float) / (1.0 + lam * self.mu)


class AffineOperator:
    """T(z) = M z + q, monotone when M + M^T is positive semidefinite."""

    def __init__(self, mat, shift=None):
        self.mat = np.asarray(mat, dtype=float)
        n = self.mat.shape[0]
        if self.mat.shape != (n, n):
            raise ValueError("mat must be square")
        self.shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
        sym = 0.5 * (self.mat + self.mat.T)
        if np.linalg.eigvalsh(sym).min() < -1e-12:
            raise ParameterError("M + M^T must be positive semidefinite")

    def evaluate(self, z):
        return self.mat @ z + self.shift

    def resolvent(self, lam, w):
        n = self.mat.shape[0]
        return np.linalg.solve(np.eye(n) + lam * self.mat, w - lam * self.shift)


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
    """Certificates built from a closed-form resolvent: z_tilde = J_lam(w),
    v = (w - z_tilde)/lam, exact by construction.  The operator needs only
    ``resolvent(lam, w)``, the protocol ``run_dr`` takes as it is."""

    def __init__(self, operator):
        self.operator = operator

    def solve(self, w, lam, sigma):
        z_tilde = self.operator.resolvent(lam, w)
        v = (w - z_tilde) / lam
        return ProxCertificate(z_tilde, v, lam, exact=True)


class PerturbedResolventOracle:
    """Genuinely inexact certificates: the exact resolvent point is
    perturbed, the operator re-evaluated there, and the perturbation shrunk
    until the relative-error test accepts.  Falls back to the exact pair
    when sigma leaves no room."""

    def __init__(self, operator, scale: float = 0.5, seed: int = 0,
                 max_shrinks: int = 60):
        self.operator = operator
        self.scale = scale
        self.rng = np.random.default_rng(seed)
        self.max_shrinks = max_shrinks

    def solve(self, w, lam, sigma):
        w = np.asarray(w, dtype=float)
        exact_point = self.operator.resolvent(lam, w)
        radius = self.scale * max(float(np.linalg.norm(w - exact_point)), 1e-12)
        noise = self.rng.standard_normal(w.shape[0])
        for _ in range(self.max_shrinks):
            z_tilde = exact_point + radius * noise
            v = self.operator.evaluate(z_tilde)
            cert = ProxCertificate(z_tilde, v, lam)
            if error_criterion_holds(w, cert, sigma):
                return cert
            radius *= 0.5
        v = (w - exact_point) / lam
        return ProxCertificate(exact_point, v, lam, exact=True)


# ---------------------------------------------------------------------------
# B-procedures
# ---------------------------------------------------------------------------

class _ExactBSession:
    exact = True

    def __init__(self, resolvent_map, r, b, gamma):
        self._resolvent = resolvent_map.resolvent
        self._r = r
        self._b = b
        self._gamma = gamma

    def next(self):
        s = self._resolvent(self._gamma, self._r + self._gamma * self._b)
        b_l = self._b + (self._r - s) / self._gamma
        return s, b_l


class ExactBProcedure:
    """One-trial B-procedure wrapping a closed-form resolvent of B: any
    object with ``resolvent(gamma, u)``, such as the operators above."""

    def __init__(self, resolvent_map):
        self.resolvent_map = resolvent_map

    def open_session(self, r, b, gamma, s_bar, b_bar):
        return _ExactBSession(self.resolvent_map, r, b, gamma)


class _CGBSession:
    def __init__(self, mat, shift, r, b, gamma, s_bar):
        rhs = r + gamma * b - gamma * shift
        self._mat = mat
        self._shift = shift
        self._cg = CGSession(lambda u: u + gamma * (mat @ u), rhs, s_bar)

    def next(self):
        s, _ = self._cg.next()
        return s, self._mat @ s + self._shift


class CGBProcedure:
    """Iterative B-procedure for an affine B(x) = Q x + q with Q SPD.

    Each trial is one CG step on (I + gamma Q) s = r + gamma b - gamma q;
    the emitted slope Q s + q lies in B(s) by construction.
    """

    def __init__(self, mat, shift=None):
        self.mat = np.asarray(mat, dtype=float)
        n = self.mat.shape[0]
        self.shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)

    def open_session(self, r, b, gamma, s_bar, b_bar):
        return _CGBSession(self.mat, self.shift, r, b, gamma, s_bar)


# ---------------------------------------------------------------------------
# Exact F-procedure for quadratic f (dense solve; tests and small demos)
# ---------------------------------------------------------------------------

class _ExactQuadraticFSession:
    exact = True

    def __init__(self, gram, rhs):
        self._x = np.linalg.solve(gram, rhs)

    def next(self):
        return self._x.copy(), np.zeros_like(self._x)


class ExactQuadraticFProcedure:
    """Exact minimizer of the augmented subproblem for f(x) = (1/2)||Ax-b||^2.

    Emits the dense solve of (A^T A + c I) x = A^T b - p + c z with a zero
    residual certificate; use for sigma = 0 configurations.
    """

    def __init__(self, a_dense, b):
        self.a = np.asarray(a_dense, dtype=float)
        self.gram0 = self.a.T @ self.a
        self.at_b = self.a.T @ np.asarray(b, dtype=float)

    def open_session(self, p, z, c, x_bar):
        n = self.gram0.shape[0]
        return _ExactQuadraticFSession(self.gram0 + c * np.eye(n),
                                       self.at_b - p + c * z)
