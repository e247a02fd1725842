#!/usr/bin/env python3
# Build the model section operator, read off its square-root generator, and
# watch the semigroup behave: contractive, monotone, exactly a semigroup.
# Every function of A acts per mode: map a section vector into the eigenbasis
# with to_modal, scale mode j by the function's value there, map back with
# from_modal. No m x m matrix of a function is ever formed.

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


def apply(values, vec):
    """The function of A with per-mode values ``values``, applied to ``vec``."""
    return op.from_modal(values * op.to_modal(vec))


g = op.generator_eigenvalues
print("\ngenerator eigenvalues m_j = -sqrt(-mu_j):")
print(np.array2string(g, precision=4))
v = np.random.default_rng(1).standard_normal(m)
print("|M(M v) + A v| / |A v| =",
      np.linalg.norm(apply(g, apply(g, v)) + op.matrix @ v) / np.linalg.norm(op.matrix @ v))


def semigroup(t, vec):
    """e^{tM} vec: the semigroup scales mode j by exp(t m_j)."""
    return apply(np.exp(t * g), vec)


print("\nsemigroup norms |e^{tM} v| / |v| (must decrease from 1):")
for t in (0.0, 0.05, 0.2, 1.0, 5.0):
    print(f"  t = {t:4.2f}: {np.linalg.norm(semigroup(t, v)) / np.linalg.norm(v):.6e}")

law = np.linalg.norm(semigroup(0.3, semigroup(0.7, v)) - semigroup(1.0, v))
print("semigroup law gap |e^{0.3M} e^{0.7M} v - e^M v| =", law)

# functions of A compose mode by mode, so any two of them commute
f_vals, h_vals = np.exp(-np.sqrt(-op.eigenvalues)), 1.0 / op.eigenvalues
comm = np.linalg.norm(apply(f_vals, apply(h_vals, v)) - apply(h_vals, apply(f_vals, v)))
print("commutator of two operator functions on v:", comm)
