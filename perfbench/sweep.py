"""Scaling sweep of the per-layer times over section modes m and grid n_x.

Each point builds the operator, solves with both interface routes, runs
the finite-difference oracle and compares the two, all under the tracer,
on seeded random closed-form boundary data. The solve is checked against
the closed form. `m_exponents` fits log t = e log m + c(n_x) per layer.
"""

from __future__ import annotations

import numpy as np

import bitrans as bt
from inprocess import (GEOMETRY, K_PAIR, SECTION_LENGTH, ModalSweep, ScaledExponentialCase,
                       relative_field_error)
from spans import TIMED

SWEEP_M = (8, 64, 256, 512)
SWEEP_NX = (129, 513)

# Layers the sweep exercises; each gets a "<metric>.m_exp" exponent.
SWEPT = tuple(name for name in TIMED if name not in ("config.load_s", "cli.self_s"))


def run_sweep(tracer, seed: int, ms=SWEEP_M, nxs=SWEEP_NX):
    """Trace one point per (m, n_x); return ({(m, n_x): per-layer row}, failures)."""
    rng = np.random.default_rng(seed)
    geometry = bt.CylinderGeometry(*GEOMETRY)
    failures = 0
    for m in ms:
        for n_x in nxs:
            request = ("sweep", m, n_x)
            tracer.begin(request)
            operator = bt.build_dirichlet_laplacian_1d(m, SECTION_LENGTH)
            tracer.end()
            case = ScaledExponentialCase.draw(operator, geometry, rng)
            boundary = case.boundary_data()
            tracer.begin(request)
            solution = bt.solve_transmission(operator, geometry, *K_PAIR, None, boundary,
                                             bt.SolveOptions(route="both", n_x=n_x))
            oracle = bt.direct_solve(operator, geometry, *K_PAIR, None, boundary, n_x=n_x)
            bt.compare(solution, oracle)
            tracer.end()
            failures += not relative_field_error(solution, case) <= ModalSweep.tolerance
    rows = tracer.per_request()
    return {(m, n_x): rows[("sweep", m, n_x)] for m in ms for n_x in nxs}, failures


def m_exponents(points: dict) -> dict:
    """Least-squares exponent in m per swept layer, one intercept per n_x.

    A layer that did not run at every point reports 0.
    """
    keys = sorted(points)
    nxs = sorted({n_x for _, n_x in keys})
    design = np.array([[np.log(m)] + [float(n_x == level) for level in nxs]
                       for m, n_x in keys])
    out = {}
    for metric in SWEPT:
        times = np.array([points[key][metric] for key in keys])
        if np.all(times > 0):
            out[f"{metric}.m_exp"] = float(np.linalg.lstsq(design, np.log(times), rcond=None)[0][0])
        else:
            out[f"{metric}.m_exp"] = 0.0
    return out
