"""Deferred scipy entry point.

bitrans uses ``scipy.linalg.solve_banded`` and no other scipy name:
banded LU for the stage route of the particular problem (its layer-free
route needs no scipy), the finite-difference oracle and the spline
slopes. Importing scipy costs more than a small solve, so
``solve_banded`` here imports its scipy name on its first call and
forwards the arguments; ``import bitrans`` loads no scipy module and a
run that never calls it never loads scipy. The modules that use it bind
this name at import time, exactly as they would bind the scipy name, so
a test can still replace it per module.
"""


def solve_banded(*args, **kwargs):
    from scipy.linalg import solve_banded
    return solve_banded(*args, **kwargs)
