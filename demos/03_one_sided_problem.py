#!/usr/bin/env python3
# Solve one interval problem by the representation formula: particular
# solution with homogeneous ends, source coefficients, and evaluation.
# The solve is exact in x for the homogeneous part, so the imposed data
# comes back at the ends to linear-algebra precision.

import numpy as np

import bitrans as bt

op = bt.build_dirichlet_laplacian_1d(4, 1.0)
geom = bt.CylinderGeometry(a=-0.8, gamma=0.0, b=1.2)
side = bt.SIDE_MINUS

# a sine forcing whose particular solution is known in closed form
forcing = bt.ModalForcing.sine(op, geom, side, mode=0, k_multiple=1, amplitude=0.7)
part = bt.solve_particular(op.eigenvalues, geom, side, forcing, n_x=129)
k = np.pi / geom.c
xs = np.linspace(geom.a, geom.gamma, 33)
print("particular solution (mode 0): F should be 0.7 sin(k (x - a))")
print("  solved modes:", part.active)  # f_modal has one row per solved mode
print("  route:", "layer-free: series P plus closed-form end layers" if part.layers.any()
      else "two Dirichlet stages")
print("  series coefficients used:", part.f_modal.shape[1], "of at most 129")
print("  max |F - exact| =", np.max(np.abs(
    part.terms(xs, op.eigenvalues)[0, 0] - 0.7 * np.sin(k * (xs - geom.a)))))
print("  F'(a) =", part.fprime_left[0], " exact:", 0.7 * k)
print("  F'''(a) =", part.f3_left[0], " exact:", -0.7 * k**3)
print("  error estimate (forcing tail or rounding):", part.error_estimate)

# impose boundary and interface data and check the round trip
rng = np.random.default_rng(1)
phi1, phi2, psi1, psi2 = rng.normal(size=(4, 4))
# the coefficient algebra is per mode, on eigenbasis coordinates
ops = bt.side_symbols(op, geom.c)
pt = bt.phi_tilde_minus(ops, op.to_modal(phi1), op.to_modal(phi2),
                        part.fprime_left, part.fprime_right)
al = bt.alphas_minus(ops, op.to_modal(psi1), op.to_modal(psi2), pt)
sol = bt.SubproblemSolution(side, geom, op, al, part)

print("\nround trip of the imposed data:")
print("  |u(a) - phi1|  =", np.max(np.abs(sol.evaluate(geom.a, 0) - phi1)))
print("  |u'(a) - phi2| =", np.max(np.abs(sol.evaluate(geom.a, 1) - phi2)))
print("  |u(g) - psi1|  =", np.max(np.abs(sol.evaluate(geom.gamma, 0) - psi1)))
print("  |u'(g) - psi2| =", np.max(np.abs(sol.evaluate(geom.gamma, 1) - psi2)))

xs = np.linspace(geom.a, geom.gamma, 5)
print("\nfield slice u(x) (first component):")
for x, val in zip(xs, sol.evaluate(xs, 0)[0]):
    print(f"  u({x:+.2f})[0] = {val:+.6f}")
