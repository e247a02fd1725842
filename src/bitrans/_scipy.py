"""Deferred scipy entry points.

Importing scipy's linalg, interpolate and sparse subpackages costs more
than a small solve. Each function here imports its scipy name on its
first call and forwards the arguments, so ``import bitrans`` loads no
scipy module and a run that never calls one of them never loads scipy.
The modules that use them bind these names at import time, exactly as
they would bind the scipy names, so a test can still replace one per
module.
"""


def CubicSpline(*args, **kwargs):
    from scipy.interpolate import CubicSpline
    return CubicSpline(*args, **kwargs)


def solve_banded(*args, **kwargs):
    from scipy.linalg import solve_banded
    return solve_banded(*args, **kwargs)


def lu_factor(*args, **kwargs):
    from scipy.linalg import lu_factor
    return lu_factor(*args, **kwargs)


def lu_solve(*args, **kwargs):
    from scipy.linalg import lu_solve
    return lu_solve(*args, **kwargs)


def csr_matrix(*args, **kwargs):
    from scipy.sparse import csr_matrix
    return csr_matrix(*args, **kwargs)


def spsolve(*args, **kwargs):
    from scipy.sparse.linalg import spsolve
    return spsolve(*args, **kwargs)
