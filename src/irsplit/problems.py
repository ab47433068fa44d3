"""LASSO and l1-regularized logistic regression problem definitions.

Provides the design-matrix abstraction (dense or CSR, matrix-free
transpose products), KKT residuals in the sup-norm, subproblem-engine
builders for the ADMM layer, synthetic instance generators, and dataset
ingestion (LIBSVM text and dense CSV).  Both problem classes have the
members the proximal-gradient baseline reads (see
:func:`irsplit.subsolvers.fista_solve`), so they go to it as they are.

The logistic variable is packed as x = (bias, weights) with the bias at
index 0; the bias is never regularized.
"""

from __future__ import annotations

import copy
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.special import expit

from .admm import AdmmProblem
from .errors import ParseError
from .hpp import _finite
from .subsolvers import (FistaConfig, LBFGSFProcedure, QuadraticFProcedure,
                         _shrink, fista_solve)

__all__ = [
    "DesignMatrix",
    "LassoProblem",
    "LogisticProblem",
    "L1ShiftedProx",
    "lasso_admm_problem",
    "logistic_admm_problem",
    "reference_minimizer",
    "synthetic_lasso",
    "synthetic_logistic",
    "load_libsvm",
    "load_dense_csv",
    "save_dense_csv",
    "save_libsvm",
]


class _CompiledProduct:
    """``A @ x``, or ``A.T @ x`` with ``transpose``, for a CSR matrix A and
    a 1-D x, by the compiled kernel scipy itself runs: ``csr_matvec`` on
    A's arrays, or ``csc_matvec`` on the same arrays, which are the CSC
    arrays of A.T.  This skips scipy's per-call dispatch and, for A.T,
    building the transpose object.  The kernel reads x without a bounds
    check: x must be an array of shape ``(cols,)``, as
    :class:`DesignMatrix` checks.  The method is named ``dot``, as on a
    dense array: :class:`DesignMatrix` calls either kind of matrix alike."""

    __slots__ = ("_kernel", "_rows", "_cols", "_indptr", "_indices", "_data")

    def __init__(self, csr, transpose: bool):
        self._rows, self._cols = csr.shape[::-1] if transpose else csr.shape
        self._kernel = (_sparsetools.csc_matvec if transpose
                        else _sparsetools.csr_matvec)
        self._indptr, self._indices, self._data = (csr.indptr, csr.indices,
                                                   csr.data)

    def dot(self, x: np.ndarray) -> np.ndarray:
        data = self._data
        y = np.zeros(self._rows, np.promote_types(data.dtype, x.dtype))
        self._kernel(self._rows, self._cols, self._indptr, self._indices,
                     data, x, y)
        return y


def _of_shape(x, shape: tuple) -> np.ndarray:
    """``x`` as an array of the 1-D ``shape``, else ``ValueError``."""
    x = np.asarray(x)
    if x.shape != shape:
        raise ValueError(f"expected shape {shape}, got shape {x.shape}")
    return x


class DesignMatrix:
    """m x n design matrix, dense ndarray or CSR, with matvec interface.

    The matrix is stored once, read-only, as ``stored_norm()`` and the KKT
    screens that runs on its problems carry keep values computed from it.
    A float64 input, a dense array or a CSR matrix or array, is taken
    over, not copied: its arrays (the CSR's ``data``, ``indices`` and
    ``indptr``) are marked read-only, so a later write through the
    caller's object raises ``ValueError``, and the matrix is held by an
    object of its own, so reshaping or resizing the caller's does not
    reach it.  Any other input (another dtype, a list, CSC or COO) is
    converted into new arrays, and the caller's object stays writable.
    Views of the same memory made before construction, such as the base of
    a view given, stay writable and must not be written.  Both products
    take 1-D vectors only, of the matching length, else raise
    ``ValueError``, and return a fresh array.

    Both products are bound once, at construction, as one ``.dot`` call
    each.  A sparse matrix calls scipy's compiled ``csr_matvec`` on the
    stored CSR arrays, and ``csc_matvec`` on the same arrays, read as the
    CSC arrays of A^T: the kernels, summation order and result dtype of
    scipy's ``@``, without its per-call Python dispatch.  A dense matrix
    calls ``A.dot(x)`` and ``A.T.dot(u)`` on the stored array and its
    ``.T`` view: the BLAS call of ``@`` without numpy's matmul dispatch,
    about 0.4 us of a 1.2 us product at 100 x 30.  That is ``@``'s bits
    on the library's own operands, float64 vectors of positive stride and
    a C- or F-contiguous matrix of more than one entry; on other inputs
    it is still a correctly rounded product, whose round-off, or sign of
    a zero on a 1x1 matrix, may differ from ``@``'s.
    """

    def __init__(self, data):
        # each kind keeps an object of its own over the read-only arrays,
        # so reshaping or resizing the caller's object cannot reach it
        self.is_sparse = sp.issparse(data)
        if self.is_sparse:
            mat = data.tocsr().astype(float, copy=False)
            _finite(mat.data, "matrix")
            for kept in (mat.data, mat.indices, mat.indptr):
                kept.setflags(write=False)
            mat = copy.copy(mat)
            self._op = _CompiledProduct(mat, transpose=False)
            self._op_t = _CompiledProduct(mat, transpose=True)
        else:
            mat = _finite(data, "matrix")
            if mat.ndim != 2:
                raise ValueError("expected a 2-d array")
            mat.setflags(write=False)
            mat = mat.view()
            self._op, self._op_t = mat, mat.T
        self._mat = mat
        self._x_shape, self._u_shape = mat.shape[1:], mat.shape[:1]
        self._norm: Optional[float] = None

    @property
    def shape(self):
        return self._mat.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._op.dot(_of_shape(x, self._x_shape))

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        return self._op_t.dot(_of_shape(u, self._u_shape))

    def column(self, j: int) -> np.ndarray:
        """Column j as the product A e_j, which is exact: every other term
        is a signed zero."""
        e = np.zeros(self.shape[1])
        e[j] = 1.0
        return self.apply(e)

    def stored_norm(self) -> float:
        """||A||_F over the stored entries, computed on the first call and
        kept, for the KKT screens' round-off bounds.  The bounds take each
        row product as a sum over distinct columns, so a CSR matrix that
        may hold duplicate entries gets inf, which turns its screens off."""
        if self._norm is None:
            mat = self._mat
            if self.is_sparse and not mat.has_canonical_format:
                self._norm = math.inf
            else:
                self._norm = float(np.linalg.norm(
                    mat.data if self.is_sparse else mat))
        return self._norm

    def toarray(self) -> np.ndarray:
        return self._mat.toarray() if self.is_sparse else self._mat.copy()

    def tocsr(self) -> sp.csr_matrix:
        """A CSR copy, built without a dense intermediate when sparse."""
        return self._mat.copy() if self.is_sparse else sp.csr_matrix(self._mat)


def _l1_components(grad: np.ndarray, x: np.ndarray, nu: float) -> np.ndarray:
    """Per component: |g_i + nu sign(x_i)|, or |g_i| - nu where x_i = 0;
    the residual is max(max_i r_i, 0), as max(., 0) commutes with the max."""
    s = np.sign(x)
    r = np.abs(grad + nu * s)
    r -= nu * (s == 0.0)
    return r


def _l1_component(g: float, xj: float, nu: float) -> float:
    """One component of :func:`_l1_components`, on Python floats."""
    if xj > 0.0:
        return abs(g + nu)
    if xj < 0.0:
        return abs(g - nu)
    return abs(g) - nu


# unit round-off of float64
_U = np.finfo(float).eps / 2.0


@dataclass(frozen=True)
class _Screen:
    """What the KKT screen keeps for component j: the vector whose dot
    product gives g_j (LASSO: the Gram row A^T a_j; logistic: the column
    a_j, None for the bias), the term a_j . b LASSO subtracts (0 for
    logistic), and the coefficients c1, c2 of the round-off bound S."""

    j: int
    vec: Optional[np.ndarray]
    shift: float
    c1: float
    c2: float


class _L1Problem:
    """min f(x) + nu ||x[first:]||_1, what :class:`LassoProblem` and
    :class:`LogisticProblem` share; ``first = 1`` leaves the logistic bias
    unregularized.  ``nu``, in (0, inf) else ``ValueError``, and
    ``prox_g``, its :class:`L1ShiftedProx`, are fixed at construction.  A
    subclass states f by three hooks on one inner vector u of x,
    ``_inner(x)``, ``_loss(u)`` and ``_gradient(x, u)``, and its KKT
    screen by ``_screened`` and ``_screen_for`` (see :meth:`kkt_dist_inf`).
    """

    nu = property(operator.attrgetter("_nu"))
    prox_g = property(operator.attrgetter("_prox_g"))

    def __init__(self, nu: float, first: int):
        if not 0.0 < nu < math.inf:
            raise ValueError("0 < nu < inf violated")
        self._nu, self._first = float(nu), first
        self._prox_g = L1ShiftedProx(self._nu, skip_first=first == 1)

    def value_gradient(self, x) -> tuple[float, np.ndarray]:
        """Smooth part and its float64 gradient, from one inner vector."""
        u = self._inner(x)
        return self._loss(u), self._gradient(x, u)

    def f_value(self, x) -> float:
        """The smooth part alone, by :meth:`value_gradient`'s operations."""
        return self._loss(self._inner(x))

    def objective(self, x) -> float:
        x = np.asarray(x, float)
        return self.f_value(x) + self._nu * float(
            np.abs(x[self._first:]).sum())

    def kkt_dist_inf(self, x, floor: float = math.inf,
                     screen: Optional[_Screen] = None) -> tuple:
        """``(value, screen)``: the sup-norm l1 KKT residual at x, from the
        gradient alone (an unregularized coordinate contributes |g_i|),
        and the screen to pass to the next call.

        With a finite ``floor``, a value above it may be a lower bound on
        the residual rather than the residual; a value at or below it is
        always the residual, bit for bit.  A full evaluation that exceeds
        ``floor`` returns the screen of its worst component j,
        ``_screen_for(j)``; any other call returns the ``screen`` given.
        Given a screen and a finite floor, a call first computes g_j alone,
        by ``_screened``, with the terms t1, t2 of a bound S = c1 t1 + c2
        t2 + 4 u (|g_j| + |r_j|) on r_j's distance from both the exact
        component and the one a full evaluation computes (each class
        states its S; u is the unit round-off).  It returns r_j - S when
        that exceeds ``floor``, else evaluates in full, reusing the inner
        vector if ``_screened`` formed it.  A NaN or inf in x makes S
        non-finite, so such an x is evaluated in full.  No screen is kept.
        An x of another dtype is read as float64.
        """
        x = np.asarray(x, float)
        u = None
        if floor < math.inf and screen is not None:
            g, t1, t2, u = self._screened(x, screen)
            r = (abs(g) if screen.j < self._first
                 else _l1_component(g, float(x[screen.j]), self._nu))
            lower = r - (screen.c1 * t1 + screen.c2 * t2
                         + 4.0 * _U * (abs(g) + abs(r)))
            if lower > floor:
                return lower, screen
        grad = self._gradient(x, self._inner(x) if u is None else u)
        r = _l1_components(grad, x, self._nu)
        r[:self._first] = np.abs(grad[:self._first])
        value = float(max(r.max(), 0.0))
        if value > floor:
            j = int(r.argmax())
            if screen is None or screen.j != j:
                screen = self._screen_for(j)
        return value, screen


class LassoProblem(_L1Problem):
    """min (1/2)||A x - b||^2 + nu ||x||_1, with ``A``, ``b``, ``nu``,
    ``prox_g`` and ``x_true`` fixed at construction (see :class:`_L1Problem`).
    ``b`` (one finite entry per row of A, else ``ValueError``) and the
    planted ``x_true`` (or None) are read-only copies; ``A``, which has at
    least one row and one column, else ``ValueError``, stores its matrix
    read-only (see :class:`DesignMatrix`).

    The KKT screen reads g_j = (A^T a_j) . x - a_j . b, with a_j = A e_j
    and both A^T a_j and a_j . b kept with j, as the data are fixed.
    Against the exact gradient, this and the full evaluation A^T (A x - b)
    are each off by at most gamma_(m+n+1) ||a_j|| (||A||_F ||x|| + ||b||),
    with gamma_k = k u / (1 - k u) (the dot-product error bound and
    Cauchy-Schwarz); S is 4 (m + n + 2) u ||a_j|| (||A||_F ||x|| + ||b||),
    over twice that, plus 4 u (|g_j| + |r_j|) for the last additions.
    """

    A = property(operator.attrgetter("_A"))
    b = property(operator.attrgetter("_b"))
    x_true = property(operator.attrgetter("_x_true"))

    def __init__(self, A: DesignMatrix, b, nu: float, x_true=None):
        if A.shape[0] == 0:
            raise ValueError("A must have at least one row")
        if A.shape[1] == 0:
            raise ValueError("A must have at least one column")
        b = _finite(np.array(b, dtype=float), "b")
        if b.shape != (A.shape[0],):
            raise ValueError("b length must match the row count of A")
        super().__init__(nu, 0)
        b.setflags(write=False)
        if x_true is not None:
            x_true = np.array(x_true, dtype=float)
            x_true.setflags(write=False)
        self._A, self._b, self._x_true = A, b, x_true

    @property
    def n(self) -> int:
        return self._A.shape[1]

    def _inner(self, x) -> np.ndarray:
        return self._A.apply(x) - self._b

    def _loss(self, u) -> float:
        return 0.5 * float(u.dot(u))

    def _gradient(self, x, u) -> np.ndarray:
        return self._A.apply_transpose(u)

    def _screened(self, x, screen: _Screen) -> tuple:
        return (float(screen.vec.dot(x)) - screen.shift, 1.0,
                math.sqrt(x.dot(x)), None)

    def _screen_for(self, j: int) -> _Screen:
        A, b = self._A, self._b
        col = A.column(j)
        k = 4.0 * (sum(A.shape) + 2) * _U * math.sqrt(col @ col)
        return _Screen(j, A.apply_transpose(col), float(col @ b),
                       k * math.sqrt(b @ b), k * A.stored_norm())


class LogisticProblem(_L1Problem):
    """min sum_i log(1 + exp(-b_i (a_i^T w + v))) + nu ||w||_1, x = (v, w).

    ``features`` (q x (n - 1), rows a_i, q at least 1), ``labels`` (one b_i
    in {-1, +1} per row, else ``ValueError``) and ``nu`` are fixed at
    construction, as for :class:`LassoProblem`.  ``labels`` is copied into a
    read-only array and checked once; its negation -b is formed once.
    ``prox_g`` leaves the bias unshrunk.

    The KKT screen reads g_j = a_j . c for a weight, or sum_i c_i for the
    bias (a_0 = 1), from fresh coefficients c_i = -b_i expit(u_i) and the
    cached column a_j = A e_j.  Against the exact gradient, this and the
    full evaluation are each off by at most (gamma_q + 9 u) ||a_j||_1 +
    gamma_(p+1)/4 (||a_j|| ||A||_F ||w|| + ||a_j||_1 |v|) for a q x p
    feature matrix, as expit is 1/4-Lipschitz and taken to be within 8 u
    relative; S is K (||a_j||_1 (1 + |v|) + ||a_j|| ||A||_F ||w||) with
    K = 4 (q + p + 20) u, over twice that, plus 4 u (|g_j| + |r_j|).
    """

    features = property(operator.attrgetter("_features"))
    labels = property(operator.attrgetter("_labels"))

    def __init__(self, features: DesignMatrix, labels, nu: float):
        if features.shape[0] == 0:
            raise ValueError("features must have at least one row")
        labels = np.array(labels, dtype=float)
        if labels.shape != (features.shape[0],):
            raise ValueError("label count must match the feature row count")
        if not np.all(np.abs(labels) == 1.0):  # np.isin at a third the cost
            raise ValueError("labels must be -1 or +1")
        super().__init__(nu, 1)
        labels.setflags(write=False)
        self._features, self._labels = features, labels
        self._neg = -labels

    @property
    def n(self) -> int:
        return self._features.shape[1] + 1

    # in place only in fresh arrays (a product, expit's output), in the
    # operand order of one expression; np.add.reduce is ndarray.sum's sum

    def _inner(self, x) -> np.ndarray:
        # negated margins (-b) (A w + v); (-b) m is -(b m) bit for bit
        m = self._features.apply(x[1:])
        m += x[0]
        m *= self._neg
        return m

    def _loss(self, u) -> float:
        return float(np.add.reduce(np.logaddexp(0.0, u)))

    def _gradient(self, x, u) -> np.ndarray:
        coeff = expit(u)  # 1/(1 + exp(-u)), overflow safe
        coeff *= self._neg
        grad = np.empty(len(x))  # float64 whatever x's dtype
        grad[0] = np.add.reduce(coeff)
        grad[1:] = self._features.apply_transpose(coeff)
        return grad

    def _screened(self, x, screen: _Screen) -> tuple:
        u = self._inner(x)
        coeff = expit(u)
        coeff *= self._neg
        vec = screen.vec
        g = np.add.reduce(coeff) if vec is None else vec.dot(coeff)
        w = x[1:]
        return float(g), 1.0 + abs(float(x[0])), math.sqrt(w.dot(w)), u

    def _screen_for(self, j: int) -> _Screen:
        features = self._features
        q, p = features.shape
        col = None if j == 0 else features.column(j - 1)
        a = np.ones(q) if col is None else col  # a_0 = 1: exact norms
        k = 4.0 * (q + p + 20) * _U
        return _Screen(j, col, 0.0, k * float(np.abs(a).sum()),
                       k * math.sqrt(a @ a) * features.stored_norm())


# ---------------------------------------------------------------------------
# Subproblem engines
# ---------------------------------------------------------------------------

class L1ShiftedProx:
    """Exact solver of min_z nu||z||_1 - <p, z> + (c/2)||x - z||^2.

    With ``skip_first`` the leading coordinate (the bias) is left
    unshrunk.  Both are fixed at construction and no call leaves state
    behind, so the one instance a problem builds serves its FISTA steps
    and every :class:`irsplit.admm.AdmmProblem` built from it.
    """

    nu = property(operator.attrgetter("_nu"))
    skip_first = property(operator.attrgetter("_skip_first"))

    def __init__(self, nu: float, skip_first: bool = False):
        self._nu, self._skip_first = nu, skip_first

    def solve(self, p, x, c):
        t = p / c
        t += x
        z = _shrink(t, self._nu / c)
        if self._skip_first:
            z[0] = t[0]
        return z


def lasso_admm_problem(prob: LassoProblem, c: float) -> AdmmProblem:
    """CG-backed F-procedure plus ``prob.prox_g`` for a LASSO instance.
    Neither depends on ``c``, which each session receives from the run."""
    return AdmmProblem(QuadraticFProcedure(prob.A, prob.b), prob.prox_g,
                       prob.kkt_dist_inf, prob.objective, prob.n)


def logistic_admm_problem(prob: LogisticProblem, c: float) -> AdmmProblem:
    """L-BFGS F-procedure plus ``prob.prox_g`` for a logistic instance.
    Neither depends on ``c``, which each session receives from the run."""
    return AdmmProblem(LBFGSFProcedure(prob.value_gradient), prob.prox_g,
                       prob.kkt_dist_inf, prob.objective, prob.n)


def reference_minimizer(prob, epsilon: float = 1e-10) -> np.ndarray:
    """Minimizer of a LASSO or logistic problem to KKT residual ``epsilon``
    by the proximal-gradient baseline, within 500,000 iterations."""
    result = fista_solve(prob, FistaConfig(epsilon=epsilon, max_outer=500_000))
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
    return LogisticProblem(DesignMatrix(features), labels, nu)


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

    Indices are 1-based, in any order, and each appears at most once per
    line, else ``ParseError``; absent indices are zero; an empty feature
    list is an all-zero row.  Labels {0,1} map to {-1,+1} and {1,2} map to
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
            row, seen = len(raw_labels) - 1, set()
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
                if idx in seen:
                    raise ParseError(f"line {lineno}: index {idx} repeats")
                seen.add(idx)
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
    """Dense CSV ingestion: numeric rows for A, a single column for b.
    An A or b file with no rows raises ``ParseError``, and numpy's warning
    on it is not shown."""
    skip = 1 if skip_header else 0
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            a = np.loadtxt(path_a, delimiter=",", skiprows=skip, ndmin=2)
            b = np.loadtxt(path_b, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ParseError(f"csv parse failure: {exc}") from None
    if a.shape[0] == 0:
        raise ParseError("no samples found in A")
    if b.shape[0] == 0:
        raise ParseError("no samples found in b")
    if b.shape[1] != 1:
        raise ParseError(f"b has {b.shape[1]} columns, expected 1")
    b = b[:, 0]
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
