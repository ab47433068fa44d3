"""Inertial-relaxed inexact ADMM on l1-regularized logistic regression.

The variable packs the unregularized bias at index 0 ahead of the weights.
The smooth subproblem runs L-BFGS with Armijo backtracking one step at a
time; the shrink step skips the bias coordinate.
"""

import numpy as np

import irsplit as ir
from irsplit.admm import ADMMParams, run_admm

prob = ir.synthetic_logistic(50, 31, seed=0)
print(f"instance: q=50 samples, 30 weights + bias, nu = {prob.nu:.4f}")

core = ir.InertiaRelaxParams(0.1, 0.1001, 0.99, 1.7606, 1.7606)
params = ADMMParams(c=1.0, core=core, epsilon=1e-6, max_outer=10_000)
res = run_admm(ir.logistic_admm_problem(prob, 1.0), params)

zeros = int(np.sum(res.x[1:] == 0.0))
print(f"{res.status}: outer {res.outer_iters}, "
      f"inner (L-BFGS steps) {res.inner_iters_total}, "
      f"kkt {res.record.final_kkt:.2e}")
print(f"bias {res.x[0]:+.4f}; {zeros} of 30 weights exactly zero")

# misclassification of the fitted model on the training sample
margins = prob.features.apply(res.x[1:]) + res.x[0]
errors = int(np.sum(np.sign(margins) != prob.labels))
print(f"training errors: {errors} of {prob.labels.size}")

x_ref = ir.reference_minimizer(prob, epsilon=1e-9)
print(f"objective gap to a 1e-9 reference: "
      f"{abs(prob.objective(res.x) - prob.objective(x_ref)):.2e}")
