#!/usr/bin/env python3
# Full transmission solve checked against an independent derivation. The
# representation inverts the interface system per mode through the scalar
# determinant symbol (the default route). On the "both" route every mode is
# also solved as the ODE (d^2 - m_j^2)^2 u = f_j it is: one 8 x 8 system in
# the fundamental system e^{m_j s}, s e^{m_j s} at each interval end, which
# uses none of the symbols. The two agree to rounding, the interface symbols
# read off that basis match the scalar ones, and the residual report
# quantifies every equation of the problem.

import numpy as np

import bitrans as bt

op = bt.build_dirichlet_laplacian_1d(8, 1.0)
geom = bt.CylinderGeometry(a=-0.7, gamma=0.0, b=1.3)
k_minus, k_plus = 1.0, 3.0

rng = np.random.default_rng(42)
boundary = bt.BoundaryData(*rng.normal(size=(4, 8)))
forcing = bt.ModalForcing.sine(op, geom, bt.SIDE_PLUS, mode=1, amplitude=1.5)

sol = bt.solve_transmission(op, geom, k_minus, k_plus, forcing, boundary,
                            bt.SolveOptions(route="both", n_x=129))
print("interface route:", sol.interface.route)
print("representation/fundamental-system route gap:", sol.route_gap)
print("per-mode determinant values -m_j f(-mu_j):")
print(np.array2string(sol.operators.det_modal_symbols, precision=4))
print("the same, formed from the fundamental system:")
print(np.array2string(sol.reference.det_modal, precision=4))
print("interface symbols f_1..3 and -u v against the fundamental system:",
      bt.spectral_mapping_gap(sol.operators, sol.reference))

print("\nresidual report:")
print(sol.report.to_json())

# leading-order interface formula: exact up to exponentially small terms
lead1, lead2 = bt.leading_order_interface(sol.operators, sol.sources)
gap = max(np.max(np.abs(sol.interface.psi1 - lead1)),
          np.max(np.abs(sol.interface.psi2 - lead2)))
print("leading-order interface gap (short intervals, so visible):", gap)
