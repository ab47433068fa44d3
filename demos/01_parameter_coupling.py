"""How much relaxation does a given amount of inertia allow?

The engine couples the inertia cap beta to the relaxation cap rho_bar
through a strictly decreasing scalar map: no inertia permits relaxation up
to 2, the classical inertia bound 1/3 permits exactly 1, and heavy inertia
leaves almost no relaxation.  The two published experiment settings sit on
this curve.
"""

import numpy as np

import irsplit as ir

print("beta    rho_bar(beta)")
for beta in (0.001, 0.05, 0.1001, 0.18976, 1 / 3, 0.5, 0.75, 0.95):
    print(f"{beta:<8.5f}{ir.rho_bar_of_beta(beta):.5f}")

print("\nround trips through the inverse map:")
for rho in (1.9, 1.4882, 1.0, 0.3):
    beta = ir.beta_of_rho_bar(rho)
    print(f"rho_bar {rho:<8} -> beta {beta:.6f} -> rho_bar "
          f"{ir.rho_bar_of_beta(beta):.6f}")

print("\nthe coupling quadratic vanishes exactly at the paired beta:")
for rho in (0.5, 1.0, 1.4882, 1.7606):
    beta = ir.beta_of_rho_bar(rho)
    print(f"rho_bar {rho:<8} beta {beta:.6f}  q(beta) = "
          f"{ir.q_eval(beta, rho):+.2e}")

print("\nparameters that violate the contract cannot be built; the error "
      "names the inequality:")
try:
    ir.InertiaRelaxParams(0.4, 1 / 3, 0.5, 1.0, 1.0)
except ir.ParameterError as exc:
    print("  ", exc)
try:
    # relaxation cap 1.9 pairs only with inertia below ~0.046
    ir.InertiaRelaxParams(0.1, 0.2, 0.5, 1.9, 1.9)
except ir.ParameterError as exc:
    print("  ", exc)
