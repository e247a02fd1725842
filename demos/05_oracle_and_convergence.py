#!/usr/bin/env python3
# Manufactured ground truth against the two solvers: the representation
# route sits at the linear-algebra floor on every level (its particular
# part is a chopped Chebyshev series, spectrally accurate, and n_x only
# caps its length), the direct finite-difference oracle converges at
# second order, and the gap between the two closes at the oracle's rate.

import numpy as np

import bitrans as bt

op = bt.build_dirichlet_laplacian_1d(3, 1.0)
geom = bt.CylinderGeometry(a=-0.7, gamma=0.0, b=0.9)
k_minus, k_plus = 1.0, 3.0

case = bt.manufactured_forced(op, geom, k_minus, k_plus, mode=2,
                              profile=[0.5, -1.2, 0.8, 0.3, -0.6],
                              psi1=0.3, psi2=-0.2)
print("manufactured forced case: mode 2, quartic profile, k+ != k-")

levels = [65, 129, 257]
for method in ("representation", "direct"):
    table = bt.convergence_study(case, method, levels)
    print(f"\n{method} route:")
    for row in table.to_csv_rows():
        print("  " + ", ".join(str(v) for v in row))
    print(f"  fitted rate: {table.fitted_rate:.3f}" if not table.floor
          else "  at linear-algebra floor")

print("\nrepresentation vs direct, sup gap under joint refinement:")
for n in levels:
    sol = bt.solve_transmission(op, geom, k_minus, k_plus, case.forcing(),
                                case.boundary_data(), bt.SolveOptions(n_x=n))
    oracle = bt.direct_solve(op, geom, k_minus, k_plus, case.forcing(),
                             case.boundary_data(), n_x=n)
    print(f"  n_x = {n:3d}: {bt.compare(sol, oracle).sup:.3e}")

# the exact homogeneous case: representation evaluation is exact in x,
# so its 'convergence study' sits at the floor by construction
exact = bt.manufactured_homogeneous(op, geom, [0, 1, 2],
                                    [0.8, -0.5, 0.3], [-0.4, 0.6, 0.2])
table = bt.convergence_study(exact, "representation", levels, k_minus, k_plus)
print("\nexact homogeneous case, representation route:",
      "floor" if table.floor else f"rate {table.fitted_rate:.2f}",
      "| errors:", ", ".join(f"{e:.2e}" for e in table.errors))
