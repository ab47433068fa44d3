"""Catalog of monotone operators, resolvents and exact subproblem engines.

These small building blocks instantiate the abstract interfaces of the
solver layers for problems whose resolvents have closed forms: monotone
affine maps and quadratics (the l1 map is a problem's ``prox_g``).  They
double as independent references in tests and demos.  A resolvent is one
method, ``resolvent(step, point)``, which the F-procedures here and the
splitting layer (:class:`irsplit.dr.ResolventMap`) both call.  The
F-procedures for an operator B are the inexact resolvents of both
:func:`irsplit.dr.run_dr` (its B half-step) and :func:`irsplit.dr.run_hpp`
(the engine on B).
"""

from __future__ import annotations

from types import SimpleNamespace
import numpy as np

from .errors import ParameterError
from .hpp import _finite
from .subsolvers import QuadraticFProcedure

__all__ = [
    "AffineOperator",
    "ExactBProcedure",
    "PerturbedBProcedure",
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


# ---------------------------------------------------------------------------
# F-procedures for an operator B: the B half-step solvers of run_dr and
# the engine's inexact resolvents
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


# PerturbedBProcedure's first perturbation radius, as a fraction of the
# distance to the exact point, and its halvings before the exact pair
_SCALE = 0.5
_MAX_SHRINKS = 60


class PerturbedBProcedure:
    """Genuinely inexact F-procedure for an operator with ``evaluate(x)``
    and ``resolvent(step, w)``, such as :class:`AffineOperator`.

    The session for (p, z, c) perturbs the exact point J_{B/c}(w), w = z -
    p/c, along a noise direction drawn from ``seed`` and the bits of w, so
    a rerun repeats.  Its trials are the perturbed points x, the
    perturbation halved from trial to trial, each with y = B(x) + p + c (x
    - z).  After ``_MAX_SHRINKS`` trials it emits the exact pair
    (J_{B/c}(w), 0), which passes at any sigma.
    """

    def __init__(self, operator, seed: int = 0):
        self.operator = operator
        self.seed = np.random.SeedSequence(seed).entropy  # refuses a bad seed

    def _trials(self, p, z, c):
        w = z - p / c
        exact = self.operator.resolvent(1.0 / c, w)
        radius = _SCALE * max(float(np.linalg.norm(w - exact)), 1e-12)
        rng = np.random.default_rng([self.seed, *w.view(np.uint64).tolist()])
        noise = rng.standard_normal(w.shape[0])
        for _ in range(_MAX_SHRINKS):
            x = exact + radius * noise
            yield x, self.operator.evaluate(x) + p + c * (x - z)
            radius *= 0.5
        yield exact, np.zeros_like(exact)

    def open_session(self, p, z, c, x_bar, anchor=None):
        return SimpleNamespace(next=self._trials(p, z, c).__next__)


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
