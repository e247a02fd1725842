#!/usr/bin/env python3
# Build the model section operator, read off its square-root generator, and
# watch the semigroup behave: contractive, monotone, exactly a semigroup.

import numpy as np

import bitrans as bt

m, length = 8, 1.0
op = bt.build_dirichlet_laplacian_1d(m, length)
print(f"section operator: {op.label}")
print("eigenvalues (nondecreasing):")
print(np.array2string(op.eigenvalues, precision=4))

# closed form for the tridiagonal stencil
h = length / (m + 1)
k = np.arange(1, m + 1)
closed = np.sort(-(4.0 / h**2) * np.sin(k * np.pi / (2 * (m + 1))) ** 2)
print("max relative gap to the closed form:",
      np.max(np.abs(op.eigenvalues - closed) / np.abs(closed)))

# the generator M = -sqrt(-A) shares the eigenbasis: the section operator
# carries its eigenvalues, and the dense matrices below are verification tools
print("\ngenerator eigenvalues m_j = -sqrt(-mu_j):")
print(np.array2string(op.generator_eigenvalues, precision=4))
mmat = bt.generator_matrix(op)
print("||M^2 + A|| / ||A|| =",
      np.linalg.norm(mmat @ mmat + op.matrix, 2) / np.linalg.norm(op.matrix, 2))

print("\nsemigroup norms (must decrease from 1):")
for t in (0.0, 0.05, 0.2, 1.0, 5.0):
    print(f"  ||exp({t:4.2f} M)||_2 = {np.linalg.norm(bt.semigroup(op, t), 2):.6e}")

law = np.linalg.norm(bt.semigroup(op, 0.3) @ bt.semigroup(op, 0.7) - bt.semigroup(op, 1.0), 2)
print("semigroup law gap |e^{0.3M} e^{0.7M} - e^M| =", law)

# arbitrary spectral functions commute because they share one eigenbasis
f = bt.apply_function(op, lambda mu: np.exp(-np.sqrt(-mu)))
g = bt.apply_function(op, lambda mu: 1.0 / mu)
comm = np.linalg.norm(f @ g - g @ f, 2)
print("commutator of two operator functions:", comm)
