"""Deferred scipy entry points.

bitrans uses ``scipy.linalg`` and no other scipy subpackage: banded LU
for the particular problem, the finite-difference oracle and the
spline slopes, and dense LU for the verification route. Importing it
costs more than a small solve, so each function here imports its scipy
name on its first call and forwards the arguments; ``import bitrans``
loads no scipy module and a run that never calls one of them never
loads scipy. The modules that use them bind these names at import time,
exactly as they would bind the scipy names, so a test can still replace
one per module.
"""


def solve_banded(*args, **kwargs):
    from scipy.linalg import solve_banded
    return solve_banded(*args, **kwargs)


def lu_factor(*args, **kwargs):
    from scipy.linalg import lu_factor
    return lu_factor(*args, **kwargs)


def lu_solve(*args, **kwargs):
    from scipy.linalg import lu_solve
    return lu_solve(*args, **kwargs)

