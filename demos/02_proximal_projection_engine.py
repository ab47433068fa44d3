"""The inertial-relaxed proximal-projection engine on toy monotone operators.

Each iteration extrapolates with momentum, asks an oracle for an inexact
resolvent certificate, and projects onto the hyperplane separating the
extrapolated point from the solution set.  The per-step Fejer-type descent
toward the solution, and the inertial partial-sum bound, are checked along
the trajectory an observer records.
"""

import numpy as np

import irsplit as ir
from irsplit.hpp import error_ratio
from irsplit.operators import (AffineOperator, ExactResolventOracle,
                               PerturbedResolventOracle)

# a rotation plus a small symmetric part: monotone, unique zero at the origin
operator = AffineOperator(np.array([[0.1, 1.0], [-1.0, 0.1]]))
z0 = np.array([3.0, -1.0])

print("exact certificates, no inertia, unit relaxation:")
plain = ir.InertiaRelaxParams.plain(sigma=0.0)
res = ir.run_hpp(z0, ExactResolventOracle(operator), plain,
                 max_iters=5000, v_tolerance=1e-10)
print(f"  {res.status} after {res.record.outer_iters} iterations, "
      f"|z| = {np.linalg.norm(res.x):.2e}")

print("inexact certificates (sigma = 0.9) with inertia and overrelaxation:")
params = ir.InertiaRelaxParams.from_beta(alpha=0.18, beta=0.18976, sigma=0.9)
oracle = PerturbedResolventOracle(operator, seed=1)
# the observer keeps each iteration's event: the extrapolated point w, the
# accepted certificate and the next iterate z
events = []
res = ir.run_hpp(z0, oracle, params, max_iters=5000, v_tolerance=1e-10,
                 observer=events.append)
print(f"  {res.status} after {res.record.outer_iters} iterations, "
      f"|z| = {np.linalg.norm(res.x):.2e}")

steps = [(ev["w"], ev["cert"].z_tilde, ev["z"]) for ev in events]
violation = ir.fejer_check(steps, np.zeros(2), params, rel_tol=1e-9)
print(f"  Fejer-type descent holds at every step: {violation is None}")
violation = ir.alvarez_attouch_check(steps, z0, np.zeros(2), params)
print(f"  inertial partial-sum bound holds as well: {violation is None}")

print("a few recorded steps (distance to solution, acceptance ratio):")
for k in (0, 1, 2, len(events) // 2, len(events) - 1):
    ev = events[k]
    print(f"  k={k:<4d} |z-z*| = {np.linalg.norm(ev['z']):.3e}   "
          f"error ratio = {error_ratio(ev['w'], ev['cert'], params.sigma):.3f}")
