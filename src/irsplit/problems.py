"""LASSO and l1-regularized logistic regression problem definitions.

Provides the design-matrix abstraction (dense or CSR, matrix-free
transpose products), KKT residuals in the sup-norm, subproblem-engine
builders for the ADMM layer, composite views for the proximal-gradient
baseline, synthetic instance generators, and dataset ingestion (LIBSVM
text and dense CSV).

The logistic variable is packed as x = (bias, weights) with the bias at
index 0; the bias is never regularized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .admm import AdmmProblem
from .errors import ParseError
from .subsolvers import (CompositeProblem, FistaConfig, LBFGSFProcedure,
                         QuadraticFProcedure, fista_solve, soft_threshold)

__all__ = [
    "DesignMatrix",
    "LassoProblem",
    "LogisticProblem",
    "l1_kkt_dist_inf",
    "L1ShiftedProx",
    "lasso_make_solvers",
    "logistic_make_solvers",
    "lasso_admm_problem",
    "logistic_admm_problem",
    "lasso_composite",
    "logistic_composite",
    "reference_minimizer",
    "synthetic_lasso",
    "synthetic_logistic",
    "load_libsvm",
    "load_dense_csv",
    "save_dense_csv",
    "save_libsvm",
]


class DesignMatrix:
    """m x n design matrix, dense ndarray or CSR, with matvec interface."""

    def __init__(self, data):
        if sp.issparse(data):
            self._mat = data.tocsr().astype(float)
            self.is_sparse = True
            if not np.all(np.isfinite(self._mat.data)):
                raise ValueError("matrix has non-finite entries")
        else:
            self._mat = np.asarray(data, dtype=float)
            self.is_sparse = False
            if self._mat.ndim != 2:
                raise ValueError("expected a 2-d array")
            if not np.all(np.isfinite(self._mat)):
                raise ValueError("matrix has non-finite entries")

    @property
    def shape(self):
        return self._mat.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: {x.shape[0]} vs {self.shape[1]}")
        return np.asarray(self._mat @ x).ravel()

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        if u.shape[0] != self.shape[0]:
            raise ValueError(f"dimension mismatch: {u.shape[0]} vs {self.shape[0]}")
        return np.asarray(self._mat.T @ u).ravel()

    def toarray(self) -> np.ndarray:
        return self._mat.toarray() if self.is_sparse else self._mat.copy()

    def tocsr(self) -> sp.csr_matrix:
        """A CSR copy, built without a dense intermediate when sparse."""
        return self._mat.copy() if self.is_sparse else sp.csr_matrix(self._mat)


def l1_kkt_dist_inf(grad: np.ndarray, x: np.ndarray, nu: float,
                    regularized: Optional[np.ndarray] = None) -> float:
    """Sup-norm distance from 0 to grad + nu * subdiff(l1) at x.

    Per component: |g_i + nu sign(x_i)| where x_i != 0, max(|g_i| - nu, 0)
    where x_i = 0.  Components flagged False in ``regularized`` contribute
    plain |g_i|.
    """
    grad = np.asarray(grad, dtype=float)
    x = np.asarray(x, dtype=float)
    r = np.where(x != 0.0,
                 np.abs(grad + nu * np.sign(x)),
                 np.maximum(np.abs(grad) - nu, 0.0))
    if regularized is not None:
        r = np.where(regularized, r, np.abs(grad))
    return float(r.max())


@dataclass
class LassoProblem:
    """min (1/2)||A x - b||^2 + nu ||x||_1."""

    A: DesignMatrix
    b: np.ndarray
    nu: float
    x_true: Optional[np.ndarray] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError("b length must match the row count of A")
        if not self.nu > 0.0:
            raise ValueError("nu > 0 violated")

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def f_value(self, x) -> float:
        r = self.A.apply(x) - self.b
        return 0.5 * float(r @ r)

    def f_gradient(self, x) -> np.ndarray:
        return self.A.apply_transpose(self.A.apply(x) - self.b)

    def objective(self, x) -> float:
        return self.f_value(x) + self.nu * float(np.abs(x).sum())

    def kkt_dist_inf(self, x) -> float:
        return l1_kkt_dist_inf(self.f_gradient(x), x, self.nu)


@dataclass
class LogisticProblem:
    """min sum_i log(1 + exp(-b_i (a_i^T w + v))) + nu ||w||_1, x = (v, w)."""

    features: DesignMatrix  # q x (n - 1), rows a_i
    labels: np.ndarray      # in {-1, +1}
    nu: float
    w_true: Optional[np.ndarray] = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=float)
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("label count must match the feature row count")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not self.nu > 0.0:
            raise ValueError("nu > 0 violated")

    @property
    def n(self) -> int:
        return self.features.shape[1] + 1

    def _margins(self, x) -> np.ndarray:
        return self.labels * (self.features.apply(x[1:]) + x[0])

    def value_gradient(self, x) -> tuple[float, np.ndarray]:
        """Smooth part and its gradient over the packed (bias, weights)."""
        t = self._margins(x)
        value = float(np.logaddexp(0.0, -t).sum())
        s = expit(-t)  # 1 / (1 + exp(t)), overflow safe
        coeff = -self.labels * s
        grad = np.empty_like(x)
        grad[0] = coeff.sum()
        grad[1:] = self.features.apply_transpose(coeff)
        return value, grad

    def objective(self, x) -> float:
        return self.value_gradient(x)[0] + self.nu * float(np.abs(x[1:]).sum())

    def kkt_dist_inf(self, x) -> float:
        grad = self.value_gradient(x)[1]
        mask = np.ones(x.shape[0], dtype=bool)
        mask[0] = False  # bias unregularized
        return l1_kkt_dist_inf(grad, x, self.nu, regularized=mask)


# ---------------------------------------------------------------------------
# Subproblem engines
# ---------------------------------------------------------------------------

@dataclass
class L1ShiftedProx:
    """Exact solver of min_z nu||z||_1 - <p, z> + (c/2)||x - z||^2.

    With ``skip_first`` the leading coordinate (the bias) is left
    unshrunk.
    """

    nu: float
    skip_first: bool = False

    def solve(self, p, x, c):
        t = x + p / c
        z = soft_threshold(t, self.nu / c)
        if self.skip_first:
            z[0] = t[0]
        return z


def lasso_make_solvers(prob: LassoProblem, c: float):
    """CG-backed F-procedure plus the shrink prox for a LASSO instance."""
    return QuadraticFProcedure(prob.A, prob.b, c), L1ShiftedProx(prob.nu)


def logistic_make_solvers(prob: LogisticProblem, c: float):
    """L-BFGS F-procedure plus the bias-skipping shrink prox."""
    return (LBFGSFProcedure(prob.value_gradient),
            L1ShiftedProx(prob.nu, skip_first=True))


def lasso_admm_problem(prob: LassoProblem, c: float) -> AdmmProblem:
    fproc, prox = lasso_make_solvers(prob, c)
    return AdmmProblem(fproc, prox, prob.kkt_dist_inf, prob.objective, prob.n)


def logistic_admm_problem(prob: LogisticProblem, c: float) -> AdmmProblem:
    fproc, prox = logistic_make_solvers(prob, c)
    return AdmmProblem(fproc, prox, prob.kkt_dist_inf, prob.objective, prob.n)


def lasso_composite(prob: LassoProblem) -> CompositeProblem:
    def value_grad(x):
        r = prob.A.apply(x) - prob.b
        return 0.5 * float(r @ r), prob.A.apply_transpose(r)

    return CompositeProblem(
        value_grad=value_grad,
        prox=lambda t, step: soft_threshold(t, step * prob.nu),
        g_value=lambda x: prob.nu * float(np.abs(x).sum()),
        kkt_residual=prob.kkt_dist_inf,
    )


def logistic_composite(prob: LogisticProblem) -> CompositeProblem:
    def prox(t, step):
        z = soft_threshold(t, step * prob.nu)
        z[0] = t[0]
        return z

    return CompositeProblem(
        value_grad=prob.value_gradient,
        prox=prox,
        g_value=lambda x: prob.nu * float(np.abs(x[1:]).sum()),
        kkt_residual=prob.kkt_dist_inf,
    )


def reference_minimizer(prob, tol: float = 1e-10,
                        max_iters: int = 500_000) -> np.ndarray:
    """High-accuracy minimizer via the proximal-gradient baseline."""
    if isinstance(prob, LassoProblem):
        composite = lasso_composite(prob)
    elif isinstance(prob, LogisticProblem):
        composite = logistic_composite(prob)
    else:
        raise TypeError(f"unsupported problem type {type(prob)!r}")
    result = fista_solve(composite, FistaConfig(tol=tol, max_iters=max_iters),
                         n=prob.n)
    if result.status != "converged":
        raise RuntimeError(f"reference solve stalled at kkt = "
                           f"{result.record.final_kkt:.3e}")
    return result.x


# ---------------------------------------------------------------------------
# Synthetic instances
# ---------------------------------------------------------------------------

def synthetic_lasso(m: int, n: int, density: float = 1.0, noise: float = 0.01,
                    nu_fraction: float = 0.1, seed: int = 0) -> LassoProblem:
    """Seeded random instance with the usual measurement-ensemble scaling.

    Gaussian A with entries of variance 1/(m density), so columns have
    roughly unit norm (sparse below density 1); sparse ground truth,
    b = A x_true + noise, nu = nu_fraction ||A^T b||_inf.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n >= 1 required")
    if not 0.0 < density <= 1.0:
        raise ValueError("density in (0, 1] required")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(m * density)
    if density < 1.0:
        mat = sp.random(m, n, density=density, format="csr",
                        random_state=rng, data_rvs=rng.standard_normal)
        mat = mat * scale
        design = DesignMatrix(mat)
    else:
        design = DesignMatrix(scale * rng.standard_normal((m, n)))
    x_true = np.zeros(n)
    support = rng.choice(n, size=max(1, round(0.1 * n)), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    b = design.apply(x_true) + noise * rng.standard_normal(m)
    nu = nu_fraction * float(np.abs(design.apply_transpose(b)).max())
    return LassoProblem(design, b, nu, x_true=x_true)


def synthetic_logistic(q: int, n: int, nu_fraction: float = 0.1,
                       seed: int = 0) -> LogisticProblem:
    """Seeded random classification instance with a sparse planted weight.

    nu defaults to nu_fraction times ||grad_w f(0)||_inf, the threshold
    above which the all-zero weight vector is stationary; the default
    fraction leaves roughly half the weights at zero in the optimum.
    """
    if q < 1 or n < 2:
        raise ValueError("q >= 1 and n >= 2 required")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((q, n - 1))
    w_true = np.zeros(n - 1)
    support = rng.choice(n - 1, size=max(1, (n - 1) // 2), replace=False)
    w_true[support] = 2.0 * rng.standard_normal(support.size)
    v_true = 0.5 * rng.standard_normal()
    margins = features @ w_true + v_true + rng.standard_normal(q)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    grad_w_at_zero = 0.5 * np.abs(features.T @ labels)
    nu = nu_fraction * float(grad_w_at_zero.max())
    return LogisticProblem(DesignMatrix(features), labels, nu, w_true=w_true)


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

def _map_labels(raw: np.ndarray) -> np.ndarray:
    values = set(np.unique(raw).tolist())
    if values <= {-1.0, 1.0}:
        return raw
    if values <= {0.0, 1.0}:
        return np.where(raw == 0.0, -1.0, 1.0)
    if values <= {1.0, 2.0}:
        return np.where(raw == 2.0, -1.0, 1.0)
    raise ParseError(f"unsupported label set {sorted(values)}; "
                     "expected {-1,+1}, {0,1} or {1,2}")


def load_libsvm(path, nu: float, n_features: Optional[int] = None) -> LogisticProblem:
    """Parse LIBSVM text: one 'label idx:val idx:val ...' line per sample.

    Indices are 1-based; absent indices are zero; an empty feature list is
    an all-zero row.  Labels {0,1} map to {-1,+1} and {1,2} map to
    {+1,-1}.  ``nu`` must be supplied by the caller.
    """
    raw_labels = []
    rows, cols, vals = [], [], []
    max_col = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                raw_labels.append(float(parts[0]))
            except ValueError:
                raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
            row = len(raw_labels) - 1
            for token in parts[1:]:
                idx_s, _, val_s = token.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: bad feature token {token!r}") from None
                if idx < 1:
                    raise ParseError(f"line {lineno}: index {idx} is not 1-based")
                rows.append(row)
                cols.append(idx - 1)
                vals.append(val)
                max_col = max(max_col, idx)
    if not raw_labels:
        raise ParseError("no samples found")
    n_feat = n_features if n_features is not None else max_col
    if n_feat < max_col:
        raise ParseError(f"n_features = {n_feat} below largest index {max_col}")
    mat = sp.coo_matrix((vals, (rows, cols)),
                        shape=(len(raw_labels), n_feat)).tocsr()
    labels = _map_labels(np.asarray(raw_labels, dtype=float))
    return LogisticProblem(DesignMatrix(mat), labels, nu)


def load_dense_csv(path_a, path_b, nu: float,
                   skip_header: bool = False) -> LassoProblem:
    """Dense CSV ingestion: numeric rows for A, a single column for b."""
    skip = 1 if skip_header else 0
    try:
        a = np.loadtxt(path_a, delimiter=",", skiprows=skip, ndmin=2)
        b = np.loadtxt(path_b, delimiter=",", skiprows=skip, ndmin=1)
    except ValueError as exc:
        raise ParseError(f"csv parse failure: {exc}") from None
    if b.ndim != 1:
        b = b.ravel()
    if a.shape[0] != b.shape[0]:
        raise ParseError(f"A has {a.shape[0]} rows but b has {b.shape[0]}")
    return LassoProblem(DesignMatrix(a), b, nu)


def save_dense_csv(prob: LassoProblem, path_a, path_b) -> None:
    np.savetxt(path_a, prob.A.toarray(), delimiter=",")
    np.savetxt(path_b, prob.b, delimiter=",")


def save_libsvm(prob: LogisticProblem, path) -> None:
    """Write LIBSVM text row by row from the CSR form, never densified;
    duplicate entries are summed and stored zeros skipped, so each line
    lists the nonzeros in column order, one per column."""
    mat = prob.features.tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    indptr, indices, data = mat.indptr, mat.indices, mat.data
    with open(path, "w", encoding="utf-8") as handle:
        for i, label in enumerate(prob.labels):
            cells = [f"{int(label):+d}"]
            for k in range(indptr[i], indptr[i + 1]):
                cells.append(f"{indices[k] + 1}:{data[k]:.17g}")
            handle.write(" ".join(cells) + "\n")
