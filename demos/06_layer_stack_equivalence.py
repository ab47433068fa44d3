"""The three solver layers are one algorithm in different variables.

Running the ADMM layer and the Douglas-Rachford layer side by side on the
same LASSO instance (mapped by s = x, b = -p, r = z with gamma = 1/c)
produces identical trajectories; mapping once more onto the
proximal-projection engine (z = r + gamma b) satisfies the engine's step
equations with unit proximal stepsize.
"""

import numpy as np

import irsplit as ir
from irsplit.admm import ADMMParams, Criterion, FToBAdapter, run_admm
from irsplit.dr import DRParams, SplitTriple, run_dr
from irsplit.errors import BudgetExceeded
from irsplit.operators import L1Resolvent
from irsplit.subsolvers import QuadraticFProcedure

prob = ir.synthetic_lasso(20, 50, seed=7)
c = 1.0
core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)

admm_res = run_admm(ir.lasso_admm_problem(prob, c),
                    ADMMParams(c=c, core=core,
                               criterion=Criterion.SUM_SQUARES,
                               epsilon=0.0, max_outer=100),
                    keep_trace=True)

bproc = FToBAdapter(QuadraticFProcedure(prob.A, prob.b))
try:
    dr_res = run_dr(SplitTriple(np.zeros(50), np.zeros(50), np.zeros(50)),
                    DRParams(gamma=1.0 / c, core=core), bproc,
                    L1Resolvent(prob.nu), max_outer=100, keep_trace=True)
except BudgetExceeded as exc:
    dr_res = exc.state

worst = 0.0
for a_step, d_step in zip(admm_res.trace, dr_res.trace):
    worst = max(worst,
                float(np.max(np.abs(d_step.next.s - a_step.next.x))),
                float(np.max(np.abs(d_step.next.b + a_step.next.p))),
                float(np.max(np.abs(d_step.next.r - a_step.next.z))))
print(f"parallel ADMM / splitting trajectories over 100 outer iterations:")
print(f"  max coordinate deviation: {worst:.2e}")
print(f"  inner trial counts equal every iteration: "
      f"{all(a.trials == d.inner.trials for a, d in zip(admm_res.trace, dr_res.trace))}")

worst_engine = 0.0
cur = prev = ir.PrimalDualTriple.zeros(50)
for step in admm_res.trace:
    z_cur = cur.z - cur.p / c
    z_prev = prev.z - prev.p / c
    w = step.hat.z - step.hat.p / c
    worst_engine = max(worst_engine, float(np.max(np.abs(
        w - (z_cur + step.alpha_k * (z_cur - z_prev))))))
    z_tilde = step.z_l - step.p_l / c
    v = step.x - step.z_l
    tau = ((w - z_tilde) @ v) / (v @ v)
    z_next = step.next.z - step.next.p / c
    worst_engine = max(worst_engine, float(np.max(np.abs(
        z_next - (w - step.rho_k * tau * v)))))
    prev, cur = cur, step.next
print(f"engine step equations on the mapped trajectory:")
print(f"  max residual: {worst_engine:.2e}")
