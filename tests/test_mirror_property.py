"""Property test of the reflection symmetry x -> -x of the whole solve.

The mirror of a problem on (a, gamma, b) lives on (-b, -gamma, -a): the
diffusivities swap, the outer data swap sides with their slopes negated,
and the forcing moves to the other side with f~(y) = f(-y). Its solution
is u~(y) = u(-y), so the x-derivative of order n picks up (-1)^n. The
solver writes the two sides through one end map and one flux form, so
a sign slip on either side breaks this symmetry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bitrans import (
    BoundaryData,
    CylinderGeometry,
    ModalForcing,
    SIDE_MINUS,
    SIDE_PLUS,
    build_dirichlet_laplacian_1d,
    solve_transmission,
)

OTHER = {SIDE_MINUS: SIDE_PLUS, SIDE_PLUS: SIDE_MINUS}


@settings(max_examples=25)
@given(m=st.integers(1, 64), c=st.floats(0.1, 2.0), d=st.floats(0.1, 2.0),
       k_minus=st.floats(0.1, 10.0), k_plus=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_mirrored_problem_has_the_mirrored_solution(m, c, d, k_minus, k_plus, seed):
    rng = np.random.default_rng(seed)
    op = build_dirichlet_laplacian_1d(m, 1.0)
    gamma = rng.uniform(-1.0, 1.0)
    geom = CylinderGeometry(gamma - c, gamma, gamma + d)
    mirror = CylinderGeometry(-geom.b, -gamma, -geom.a)
    phi1_m, phi2_m, phi1_p, phi2_p = rng.normal(size=(4, m))
    side = (SIDE_MINUS, SIDE_PLUS)[rng.integers(2)]
    mode, k_multiple = int(rng.integers(m)), int(rng.integers(1, 3))
    amplitude = rng.normal()
    sol = solve_transmission(
        op, geom, k_minus, k_plus,
        ModalForcing.sine(op, geom, side, mode, k_multiple, amplitude),
        BoundaryData(phi1_m, phi2_m, phi1_p, phi2_p))
    # sin(k (L - s)) = (-1)^(n+1) sin(k s) for k = n pi / L.
    sol_mirror = solve_transmission(
        op, mirror, k_plus, k_minus,
        ModalForcing.sine(op, mirror, OTHER[side], mode, k_multiple,
                          (-1.0) ** (k_multiple + 1) * amplitude),
        BoundaryData(phi1_p, -phi2_p, phi1_m, -phi2_m))
    for here in (SIDE_MINUS, SIDE_PLUS):
        xs = geom.grid(here, 17)
        table = sol.side(here).modal_fields(xs)
        reflected = sol_mirror.side(OTHER[here]).modal_fields(-xs)
        for order in range(4):
            scale = 1.0 + np.max(np.abs(table[order]))
            gap = np.max(np.abs(table[order] - (-1.0) ** order * reflected[order]))
            assert gap <= 1e-12 * scale, (here, order, gap / scale)
