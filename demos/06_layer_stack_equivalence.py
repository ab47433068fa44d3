"""The three solver layers are one algorithm in different variables.

Running the ADMM layer and the Douglas-Rachford layer side by side on the
same LASSO instance (mapped by s = x, b = -p, r = z with gamma = 1/c)
produces identical trajectories; mapping once more onto the
proximal-projection engine (z = r + gamma b) satisfies the engine's step
equations with unit proximal stepsize.
"""

import numpy as np

import irsplit as ir
from irsplit.admm import ADMMParams, Criterion, run_admm
from irsplit.dr import DRParams, SplitTriple, run_dr
from irsplit.operators import L1Resolvent
from irsplit.subsolvers import QuadraticFProcedure

prob = ir.synthetic_lasso(20, 50, seed=7)
c = 1.0
core = ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)

# each run's observer keeps its events: dicts of the outer iteration's
# scalars and arrays, in ADMM variables for both runs
admm_events = []
run_admm(ir.lasso_admm_problem(prob, c),
         ADMMParams(c=c, core=core, criterion=Criterion.SUM_SQUARES,
                    epsilon=0.0, max_outer=100),
         observer=admm_events.append)

fproc = QuadraticFProcedure(prob.A, prob.b)
dr_events = []
run_dr(SplitTriple(np.zeros(50), np.zeros(50), np.zeros(50)),
       DRParams(gamma=1.0 / c, core=core), fproc, L1Resolvent(prob.nu),
       max_outer=100, observer=dr_events.append)

# the splitting triple of a splitting event is (s, b, r) = (x, -p, z)
worst = 0.0
for a_ev, d_ev in zip(admm_events, dr_events):
    worst = max(worst,
                float(np.max(np.abs(d_ev["x"] - a_ev["x"]))),
                float(np.max(np.abs(-d_ev["p"] + a_ev["p"]))),
                float(np.max(np.abs(d_ev["z"] - a_ev["z"]))))
print(f"parallel ADMM / splitting trajectories over 100 outer iterations:")
print(f"  max coordinate deviation: {worst:.2e}")
print(f"  inner trial counts equal every iteration: "
      f"{all(a['trials'] == d['trials'] for a, d in zip(admm_events, dr_events))}")

worst_engine = 0.0
cur = prev = {"z": np.zeros(50), "p": np.zeros(50)}
for ev in admm_events:
    z_cur = cur["z"] - cur["p"] / c
    z_prev = prev["z"] - prev["p"] / c
    w = ev["z_hat"] - ev["p_hat"] / c
    worst_engine = max(worst_engine, float(np.max(np.abs(
        w - (z_cur + ev["alpha_k"] * (z_cur - z_prev))))))
    z_tilde = ev["z"] - ev["p_l"] / c
    v = ev["x"] - ev["z"]
    tau = ((w - z_tilde) @ v) / (v @ v)
    z_next = ev["z"] - ev["p"] / c
    worst_engine = max(worst_engine, float(np.max(np.abs(
        z_next - (w - ev["rho_k"] * tau * v)))))
    prev, cur = cur, ev
print(f"engine step equations on the mapped trajectory:")
print(f"  max residual: {worst_engine:.2e}")
