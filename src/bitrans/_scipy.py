"""Deferred scipy entry point.

bitrans uses ``scipy.linalg.solve_banded`` and no other scipy name, in
one place: the stage route of the particular problem
(``subproblem``), one stacked tridiagonal call per stage. Its layer-free
route, the finite-difference oracle and the spline are numpy only.
Importing scipy costs more than a small solve, so ``solve_banded`` here
imports its scipy name on its first call and forwards the arguments;
``import bitrans`` loads no scipy module and a run that never calls it
never loads scipy. ``subproblem`` binds this name at import time,
exactly as it would bind the scipy name, so a test can still replace it
there.
"""


def solve_banded(*args, **kwargs):
    from scipy.linalg import solve_banded
    return solve_banded(*args, **kwargs)
