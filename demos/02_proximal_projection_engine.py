"""The inertial-relaxed proximal-projection engine on toy monotone operators.

Each iteration extrapolates with momentum, takes an inexact resolvent pair
that passes the relative-error test, and projects onto the hyperplane
separating the extrapolated point from the solution set.  The engine is
the splitting loop with A = 0: its inexact resolvent is an F-procedure for
the operator, whose trials the loop tests and retries.  The per-step
Fejer-type descent toward the solution, and the inertial partial-sum
bound, are checked along the trajectory an observer records.
"""

import numpy as np

import irsplit as ir
from irsplit.operators import (AffineOperator, ExactBProcedure,
                               PerturbedBProcedure)

# a rotation plus a small symmetric part: monotone, unique zero at the origin
operator = AffineOperator(np.array([[0.1, 1.0], [-1.0, 0.1]]))
z0 = np.array([3.0, -1.0])

print("exact pairs, no inertia, unit relaxation:")
plain = ir.InertiaRelaxParams.plain(sigma=0.0)
res = ir.run_hpp(z0, ExactBProcedure(operator), plain,
                 max_iters=5000, v_tolerance=1e-10)
print(f"  {res.status} after {res.record.outer_iters} iterations, "
      f"|z| = {np.linalg.norm(res.x):.2e}")

print("inexact pairs (sigma = 0.9) with inertia and overrelaxation:")
params = ir.InertiaRelaxParams.from_beta(alpha=0.18, beta=0.18976, sigma=0.9)
fproc = PerturbedBProcedure(operator, seed=1)
# the observer keeps each iteration's event, in the loop's variables: the
# engine's extrapolated point, accepted pair point and next iterate are
# z_hat - p_hat, z - p_l and z - p
events = []
res = ir.run_hpp(z0, fproc, params, max_iters=5000, v_tolerance=1e-10,
                 observer=events.append)
print(f"  {res.status} after {res.record.outer_iters} iterations, "
      f"{res.record.inner_iters_total} trials, "
      f"|z| = {np.linalg.norm(res.x):.2e}")

steps = [(ev["z_hat"] - ev["p_hat"], ev["z"] - ev["p_l"], ev["z"] - ev["p"])
         for ev in events]
violation = ir.fejer_check(steps, np.zeros(2), params, rel_tol=1e-9)
print(f"  Fejer-type descent holds at every step: {violation is None}")
violation = ir.alvarez_attouch_check(steps, z0, np.zeros(2), params)
print(f"  inertial partial-sum bound holds as well: {violation is None}")

print("a few recorded steps (distance to solution, trials to acceptance):")
for k in (0, 1, 2, len(events) // 2, len(events) - 1):
    ev = events[k]
    print(f"  k={k:<4d} |z-z*| = {np.linalg.norm(steps[k][2]):.3e}   "
          f"trials = {ev['trials']}")
