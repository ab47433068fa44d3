"""Catalog of monotone operators, resolvents and exact subproblem engines.

These small building blocks instantiate the abstract interfaces of the
solver layers for problems whose resolvents have closed forms: monotone
affine maps, l1 subdifferentials and quadratics.  They double as
independent references in tests and demos.  A resolvent is one method,
``resolvent(step, point)``, which the engine's oracles and the splitting
layer (:class:`irsplit.dr.ResolventMap`) both call.  The B half-step
solvers of :func:`irsplit.dr.run_dr` are F-procedures for B.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
import numpy as np

from .errors import ParameterError
from .hpp import ProxCertificate, _finite, error_criterion_holds
from .subsolvers import QuadraticFProcedure, soft_threshold

__all__ = [
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

class AffineOperator:
    """T(z) = M z + q, monotone: M and q are finite float arrays, M square
    with M + M^T positive semidefinite (else ``ParameterError``) and q,
    zero when None, of shape (n,); ``ValueError`` on bad data."""

    def __init__(self, mat, shift=None):
        mat = _finite(mat, "mat")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"mat has shape {mat.shape}, expected square")
        n = mat.shape[0]
        shift = np.zeros(n) if shift is None else _finite(shift, "shift")
        if shift.shape != (n,):
            raise ValueError(f"shift has shape {shift.shape}, expected ({n},)")
        if np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() < -1e-12:
            raise ParameterError("M + M^T must be positive semidefinite")
        self.mat, self.shift = mat, shift

    def evaluate(self, z):
        return self.mat @ z + self.shift

    def resolvent(self, step, w):
        return np.linalg.solve(np.eye(len(self.mat)) + step * self.mat,
                               w - step * self.shift)


@dataclass
class L1Resolvent:
    """Resolvent of the subdifferential of kappa * l1: the shrink."""

    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.kappa < np.inf:
            raise ParameterError("0 <= kappa < inf violated")

    def resolvent(self, gamma, u):
        return soft_threshold(u, gamma * self.kappa)


# ---------------------------------------------------------------------------
# Resolvent oracles for the proximal-projection engine
# ---------------------------------------------------------------------------

class ExactResolventOracle:
    """Certificates built from a closed-form resolvent: z_tilde = J(w), v =
    w - z_tilde, an exact pair, whose residual in the engine's test is
    exactly 0.0.  The operator needs only ``resolvent(step, w)``, the protocol
    ``run_dr`` takes as it is, and is called at step 1."""

    def __init__(self, operator):
        self.operator = operator

    def solve(self, w, sigma):
        z_tilde = self.operator.resolvent(1.0, w)
        return ProxCertificate(z_tilde, w - z_tilde)


# PerturbedResolventOracle's first perturbation radius, as a fraction of the
# distance to the exact point, and its halvings before the exact pair
_SCALE = 0.5
_MAX_SHRINKS = 60


class PerturbedResolventOracle:
    """Genuinely inexact certificates: the exact resolvent point is
    perturbed, the operator re-evaluated there, and the perturbation shrunk
    until the relative-error test accepts.  Falls back to the exact pair
    (z, w - z), whose residual is exactly 0.0, when sigma leaves no room.
    Each perturbation is drawn from ``seed`` and w, so a rerun repeats."""

    def __init__(self, operator, seed: int = 0):
        self.operator = operator
        self.seed = np.random.SeedSequence(seed).entropy  # refuses a bad seed

    def solve(self, w, sigma):
        w = np.asarray(w, dtype=float)
        exact_point = self.operator.resolvent(1.0, w)
        radius = _SCALE * max(float(np.linalg.norm(w - exact_point)), 1e-12)
        rng = np.random.default_rng([self.seed, *w.view(np.uint64).tolist()])
        noise = rng.standard_normal(w.shape[0])
        for _ in range(_MAX_SHRINKS):
            z_tilde = exact_point + radius * noise
            v = self.operator.evaluate(z_tilde)
            cert = ProxCertificate(z_tilde, v)
            if error_criterion_holds(w, cert, sigma):
                return cert
            radius *= 0.5
        return ProxCertificate(exact_point, w - exact_point)


# ---------------------------------------------------------------------------
# F-procedures for an operator B: the B half-step solvers of run_dr
# ---------------------------------------------------------------------------

class ExactBProcedure:
    """One-trial F-procedure wrapping a closed-form resolvent of B: any
    object with ``resolvent(gamma, u)``, such as the operators above.

    The session for (p, z, c) emits x = J_{B/c}(z - p/c), which solves
    0 in B(x) + p + c (x - z), with y = 0, which passes at any sigma.
    """

    def __init__(self, resolvent_map):
        self.resolvent_map = resolvent_map

    def open_session(self, p, z, c, x_bar, anchor=None):
        x = self.resolvent_map.resolvent(1.0 / c, z - p / c)
        return SimpleNamespace(next=lambda: (x, np.zeros_like(x)))


class CGBProcedure(QuadraticFProcedure):
    """CG F-procedure for an affine B(x) = Q x + q with Q symmetric positive
    semidefinite, which it checks by :class:`AffineOperator`'s checks and
    one for symmetry (``ParameterError``): the
    :class:`irsplit.subsolvers.QuadraticFProcedure` with Q u = ``mat @ u``
    and r = -q, both read when used, anchored start included.  A trial is
    one CG step on (Q + c I) x = -q - p + c z from x_bar; its certificate y
    = Q x + q + p + c (x - z) is CG's own residual."""

    _r = property(lambda self: -self.shift)

    def __init__(self, mat, shift=None):
        affine = AffineOperator(mat, shift)
        if not np.array_equal(affine.mat, affine.mat.T):
            raise ParameterError("mat must be symmetric for CG")
        self.mat, self.shift = affine.mat, affine.shift

    def _product(self, u):
        return self.mat @ u
