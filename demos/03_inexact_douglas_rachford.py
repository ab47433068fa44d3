"""Partially inexact Douglas-Rachford on a quadratic / l1 pair.

The l1 resolvent (a shrink) is exact and cheap; the quadratic half-step is
solved by conjugate gradient one step at a time, until the relative-error
test accepts the trial.  With exact solves, no inertia and unit relaxation
the outer recursion is exactly the classical splitting iteration.
"""

import numpy as np

import irsplit as ir
from irsplit.dr import DRParams, SplitTriple, classical_dr_step, run_dr
from irsplit.operators import (AffineOperator, CGBProcedure, ExactBProcedure,
                               L1Resolvent)
from irsplit.subsolvers import soft_threshold

rng = np.random.default_rng(0)
n, nu = 12, 0.5
c0 = 2.0 * rng.standard_normal(n)
# 0 in subdiff(nu |.|)(x) + (x - c0): solution is the shrink of c0
x_star = soft_threshold(c0, nu)

res_a = L1Resolvent(nu)
res_b = AffineOperator(np.eye(n), -c0)
init = SplitTriple(np.zeros(n), np.zeros(n), np.zeros(n))

print("exact solves, alpha = 0, rho = 1: classical recursion recovered")
params = DRParams(gamma=1.0, core=ir.InertiaRelaxParams.plain(sigma=0.0))
# the observer sees each outer iteration in ADMM variables:
# (s, b, r) = (x, -p, z), so r + b of the next triple is z - p
events = []
res = run_dr(init, params, ExactBProcedure(res_b), res_a,
             max_outer=300, sr_tolerance=1e-12, observer=events.append)
z = init.r + init.b
worst = 0.0
for ev in events:
    z = classical_dr_step(z, 1.0, res_a, res_b)
    worst = max(worst, float(np.max(np.abs(z - (ev["z"] - ev["p"])))))
print(f"  {res.status} after {res.outer_iters} outer iterations; "
      f"max deviation from the classical trajectory: {worst:.2e}")
print(f"  distance to the closed-form solution: "
      f"{np.linalg.norm(res.x - x_star):.2e}")

print("CG-backed half-steps, inertia 0.18966, relaxation 1.4882, sigma 0.99")
core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)
events = []
res = run_dr(init, DRParams(gamma=1.0, core=core),
             CGBProcedure(np.eye(n), -c0), res_a,
             max_outer=3000, sr_tolerance=1e-9, observer=events.append)
print(f"  {res.status} after {res.outer_iters} outer iterations, "
      f"{res.inner_iters_total} CG trials total")
print(f"  distance to the closed-form solution: "
      f"{np.linalg.norm(res.x - x_star):.2e}")

z_star = x_star + (x_star - c0)  # solution of the driving inclusion, gamma = 1
steps = [(ev["z_hat"] - ev["p_hat"], ev["z"] - ev["p_l"], ev["z"] - ev["p"])
         for ev in events]
print(f"  Fejer-type descent along the embedded trajectory: "
      f"{ir.fejer_check(steps, z_star, core, rel_tol=1e-9) is None}")
