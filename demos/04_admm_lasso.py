"""Inertial-relaxed inexact ADMM on a synthetic LASSO instance.

The smooth subproblem runs conjugate gradient one step at a time until the
max-form relative-error test accepts; the shrink step is exact.  The
inertial-relaxed configuration is compared against the plain one
(alpha = 0, rho = 1) at identical tolerance and penalty.
"""

import numpy as np

import irsplit as ir
from irsplit.admm import ADMMParams, run_admm

prob = ir.synthetic_lasso(100, 300, seed=0)
print(f"instance: m=100, n=300, nu = {prob.nu:.4f}")

inertial = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
plain = ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.99, 1.0, 1.0)

for name, core in (("inertial-relaxed", inertial), ("plain", plain)):
    params = ADMMParams(c=1.0, core=core, epsilon=1e-6, max_outer=5000)
    res = run_admm(ir.lasso_admm_problem(prob, 1.0), params)
    nnz = int(np.sum(res.x != 0.0))
    print(f"{name:<17} {res.status}: outer {res.outer_iters:>4}, "
          f"inner {res.inner_iters_total:>5}, kkt {res.record.final_kkt:.2e}, "
          f"objective {res.record.final_objective:.6f}, {nnz} nonzeros")

x_ref = ir.reference_minimizer(prob, epsilon=1e-10)
params = ADMMParams(c=1.0, core=inertial, epsilon=1e-6, max_outer=5000)
res = run_admm(ir.lasso_admm_problem(prob, 1.0), params)
print(f"distance to a 1e-10 reference minimizer: "
      f"{np.linalg.norm(res.x - x_ref):.2e}")
print(f"support recovered vs planted truth: "
      f"{int(np.sum((res.x != 0) & (prob.x_true != 0)))} of "
      f"{int(np.sum(prob.x_true != 0))}")
