"""Benchmark workloads: seeded raw instances, the program's set-up calls,
and a KKT check that does not use the program's own residual code.

The raw arrays are generated here with numpy/scipy, following the recipe
of ``irsplit.problems.synthetic_lasso`` / ``synthetic_logistic``, so an
edit to the library's generators cannot change what is measured.  The
program receives only arrays, through ``DesignMatrix``,
``LassoProblem``/``LogisticProblem`` and ``*_admm_problem``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from irsplit.admm import ADMMParams, Criterion
from irsplit.hpp import InertiaRelaxParams, rho_bar_of_beta
from irsplit.problems import (DesignMatrix, LassoProblem, LogisticProblem,
                              lasso_admm_problem, logistic_admm_problem)

ALPHA = 0.18966
BETA = 0.18976
SIGMA = 0.99
C = 1.0
EPSILON = 1e-6
MAX_OUTER = 20_000
INNER_BUDGET = 10_000


@dataclass(frozen=True)
class Workload:
    """One instance family; ``rows x cols`` is m x n for LASSO and q x n
    (n - 1 features plus the bias) for logistic."""

    name: str
    kind: str
    rows: int
    cols: int
    density: float
    instance_rate: float  # timed-run instances per second of --seconds
    trace_rate: float  # traced instances per second of --seconds
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("lasso_paper", "lasso", 100, 300, 1.0, 20.0, 8.0,
             "the paper's dense LASSO size: Python overhead in the outer "
             "loop dominates, products are about a fifth of the time"),
    Workload("lasso_sparse", "lasso", 1000, 5000, 0.02, 3.0, 1.0,
             "CSR LASSO at 100 nnz/row: design-matrix products dominate, "
             "and an n x n cache moved into set-up would show"),
    Workload("logistic", "logistic", 100, 31, 1.0, 5.0, 2.0,
             "l1-logistic: the L-BFGS / value-gradient path with no CG, "
             "and the known LineSearchFailure on a few percent of seeds"),
)}


def solver_params() -> ADMMParams:
    """The published inertial-relaxed setting, max-form acceptance."""
    rho = rho_bar_of_beta(BETA)
    if abs(rho - 1.4882) > 1e-4:
        raise RuntimeError(f"rho_bar_of_beta({BETA}) = {rho}, expected 1.4882")
    core = InertiaRelaxParams(ALPHA, BETA, SIGMA, rho, rho)
    return ADMMParams(c=C, core=core, criterion=Criterion.MAX_FORM,
                      epsilon=EPSILON, inner_budget=INNER_BUDGET,
                      max_outer=MAX_OUTER)


def instance_seed(workload_seed: int, index: int) -> int:
    """Seed of the ``index``-th instance of a run with ``workload_seed``."""
    state = np.random.SeedSequence([workload_seed, index]).generate_state(1)
    return int(state[0])


@dataclass
class Instance:
    """Raw arrays of one instance; ``target`` is b (LASSO) or the labels."""

    seed: int
    matrix: Union[np.ndarray, sp.csr_matrix]
    target: np.ndarray
    nu: float

    @property
    def nnz(self) -> int:
        mat = self.matrix
        return int(mat.nnz) if sp.issparse(mat) else int(mat.size)


def make_instance(w: Workload, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    if w.kind == "lasso":
        m, n = w.rows, w.cols
        scale = 1.0 / np.sqrt(m * w.density)
        if w.density < 1.0:
            mat = sp.random(m, n, density=w.density, format="csr",
                            random_state=rng, data_rvs=rng.standard_normal)
            mat = (mat * scale).tocsr()
        else:
            mat = scale * rng.standard_normal((m, n))
        x_true = np.zeros(n)
        support = rng.choice(n, size=max(1, round(0.1 * n)), replace=False)
        x_true[support] = rng.standard_normal(support.size)
        b = mat @ x_true + 0.01 * rng.standard_normal(m)
        nu = 0.1 * float(np.abs(mat.T @ b).max())
        return Instance(seed, mat, b, nu)
    q, n = w.rows, w.cols
    features = rng.standard_normal((q, n - 1))
    w_true = np.zeros(n - 1)
    support = rng.choice(n - 1, size=max(1, (n - 1) // 2), replace=False)
    w_true[support] = 2.0 * rng.standard_normal(support.size)
    v_true = 0.5 * rng.standard_normal()
    margins = features @ w_true + v_true + rng.standard_normal(q)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    nu = 0.1 * float((0.5 * np.abs(features.T @ labels)).max())
    return Instance(seed, features, labels, nu)


def build(w: Workload, inst: Instance, tracer=None):
    """Run the program's set-up calls on copies of the raw arrays.

    Returns ``(admm_problem, setup_seconds)``.  With a tracer, the
    instance-level design-matrix products and value-gradient are
    overridden before the ``AdmmProblem`` is built, and its fields are
    wrapped after; set-up seconds are then not comparable.
    """
    matrix = inst.matrix.copy()
    target = inst.target.copy()
    started = time.perf_counter()
    design = DesignMatrix(matrix)
    if tracer is not None:
        tracer.instrument_design(design)
    if w.kind == "lasso":
        problem = lasso_admm_problem(LassoProblem(design, target, inst.nu), C)
    else:
        prob = LogisticProblem(design, target, inst.nu)
        if tracer is not None:
            tracer.instrument_logistic(prob)
        problem = logistic_admm_problem(prob, C)
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.instrument_admm_problem(problem)
    return problem, setup_s


def _l1_residual(grad, x, nu, regularized: Optional[np.ndarray] = None):
    r = np.where(x != 0.0, np.abs(grad + nu * np.sign(x)),
                 np.maximum(np.abs(grad) - nu, 0.0))
    if regularized is not None:
        r = np.where(regularized, r, np.abs(grad))
    return r


def kkt_check(w: Workload, inst: Instance, x: np.ndarray) -> tuple[bool, float]:
    """Sup-norm l1-KKT residual of ``x`` recomputed from the raw arrays.

    Returns ``(ok, residual)``.  ``ok`` allows each component the
    worst-case round-off of two independent evaluations of the gradient,
    ``2 (m + n + 4) u |A|^T (...)``, on top of ``EPSILON``; that slack is
    orders of magnitude below ``EPSILON`` on these sizes.
    """
    x = np.asarray(x, dtype=float)
    mat = inst.matrix
    absmat = abs(mat)
    gamma = 2.0 * (mat.shape[0] + mat.shape[1] + 4) * np.finfo(float).eps
    if w.kind == "lasso":
        grad = mat.T @ (mat @ x - inst.target)
        r = _l1_residual(grad, x, inst.nu)
        slack = gamma * (absmat.T @ (absmat @ np.abs(x) + np.abs(inst.target)))
    else:
        labels = inst.target
        t = labels * (mat @ x[1:] + x[0])
        coeff = -labels * expit(-t)
        grad = np.concatenate(([coeff.sum()], mat.T @ coeff))
        mask = np.ones(x.shape[0], dtype=bool)
        mask[0] = False  # bias unregularized
        r = _l1_residual(grad, x, inst.nu, regularized=mask)
        # |d expit| <= |dt| / 4 and each |coeff_i| <= 1
        per_row = 1.0 + absmat @ np.abs(x[1:]) + abs(x[0])
        slack = gamma * np.concatenate(([per_row.sum()], absmat.T @ per_row))
    return bool(np.all(r <= EPSILON + slack)), float(r.max())
