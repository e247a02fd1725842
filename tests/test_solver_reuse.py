"""A TransmissionSolver is built once per operator, geometry, k pair and options.

``solve_transmission`` reuses the last solver kept on the operator object
when the other inputs compare equal, and a new solver on that operator and
an equal geometry keeps the last one's interval symbols and their stack; a
reused solve must give the bytes of a first solve.
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bitrans import (
    AnomalyError,
    BoundaryData,
    CylinderGeometry,
    ModalForcing,
    SIDES,
    SolveOptions,
    SubproblemSolution,
    TransmissionSolver,
    build_dirichlet_laplacian_1d,
    convergence_study,
    manufactured_forced,
    solve_transmission,
)
from bitrans import subproblem, transmission
from bitrans.cli import main

GEOM = CylinderGeometry(-0.7, 0.0, 1.3)


def _spy(monkeypatch, names):
    """Count calls of each named function through its binding in bitrans.transmission."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(transmission, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(transmission, name, spy)
    return calls


def _count_interval_symbols(monkeypatch):
    """Record the evaluations of the interval symbols (``subproblem.interval_symbols``)."""
    calls = []
    real = subproblem.interval_symbols
    monkeypatch.setattr(subproblem, "interval_symbols",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def _count_stacks(monkeypatch):
    """Record the formations of stacked symbols (``stack_symbols``), by the ids of their rows.

    A solver's operators form ``both`` (minus, plus) and each interval its
    ``ends`` (its symbols twice) on first read.
    """
    calls = []
    real = subproblem.stack_symbols

    def spy(*rows):
        calls.append(tuple(map(id, rows)))
        return real(*rows)

    monkeypatch.setattr(subproblem, "stack_symbols", spy)
    monkeypatch.setattr(transmission, "stack_symbols", spy)
    return calls


def _boundary(rng, m):
    return BoundaryData(*rng.standard_normal((4, m)))


def test_repeated_solves_assemble_once_and_run_the_data_pipeline_each_time(monkeypatch):
    per_solve = ("residual_report", "assemble_sources", "solve_interface_calculus",
                 "phi_tilde_minus", "alphas_plus")
    calls = _spy(monkeypatch, ("assemble_transmission_operators",) + per_solve)
    op = build_dirichlet_laplacian_1d(16, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        solve_transmission(op, GEOM, 1.0, 3.0, None, _boundary(rng, 16))
    assert calls == {"assemble_transmission_operators": 1, **dict.fromkeys(per_solve, 5)}


@pytest.mark.parametrize("change", [
    "operator", "geometry", "k_minus", "k_plus", "route", "n_x", "probe_points"])
def test_a_changed_input_rebuilds_the_solver(monkeypatch, change):
    # A rebuild on the same operator object and an equal geometry keeps
    # the interval symbols of the last solver and their stacks: it
    # evaluates and forms none of them.
    calls = _spy(monkeypatch, ("assemble_transmission_operators",))
    symbols = _count_interval_symbols(monkeypatch)
    stacks = _count_stacks(monkeypatch)
    args = {"operator": build_dirichlet_laplacian_1d(8, 1.0), "geometry": GEOM,
            "k_minus": 1.0, "k_plus": 3.0, "options": SolveOptions()}
    solve_transmission(**args)
    solve_transmission(**args)
    assert calls["assemble_transmission_operators"] == 1 and len(symbols) == 2
    tops = args["operator"]._solver.operators
    minus, plus = id(tops.minus), id(tops.plus)
    assert stacks == [(minus, plus), (minus, minus), (plus, plus)]
    if change == "operator":  # the same spectrum, but another object
        args["operator"] = build_dirichlet_laplacian_1d(8, 1.0)
    elif change == "geometry":
        args["geometry"] = CylinderGeometry(-0.7, 0.0, 1.4)
    elif change in ("k_minus", "k_plus"):
        args[change] = 2.0
    else:
        value = {"route": "both", "n_x": 65, "probe_points": 17}[change]
        args["options"] = SolveOptions(**{change: value})
    solve_transmission(**args)
    solve_transmission(**args)
    assert calls["assemble_transmission_operators"] == 2
    assert len(symbols) == (4 if change in ("operator", "geometry") else 2)
    kept = change not in ("operator", "geometry")
    new = args["operator"]._solver.operators
    assert (new.minus is tops.minus and new.plus is tops.plus and new.both is tops.both) == kept
    minus, plus = id(new.minus), id(new.plus)
    assert stacks[3:] == ([] if kept else [(minus, plus), (minus, minus), (plus, plus)])


def _forcing(kind, op, geom, km, kp, rng):
    m = op.m
    if kind == "zero":
        return None, _boundary(rng, m)
    if kind == "sine":
        side = SIDES[int(rng.integers(2))]
        forcing = ModalForcing.sine(op, geom, side, int(rng.integers(m)), 1, rng.normal())
        return forcing, _boundary(rng, m)
    case = manufactured_forced(op, geom, km, kp, int(rng.integers(min(m, 4))),
                               rng.normal(size=3), float(rng.normal()), float(rng.normal()))
    return case.forcing(), case.boundary_data()


def _fingerprint(sol):
    """The report, the order-0..3 field tables and every trace, as bytes."""
    geom = sol.geometry
    parts = [sol.report.to_json().encode(), sol.interface.psi1.tobytes(),
             sol.interface.psi2.tobytes()]
    for side in SIDES:
        sub = sol.side(side)
        parts.append(sub.modal_fields(geom.grid(side, 17)).tobytes())
        part = sub.particular
        parts += [getattr(part, name).tobytes()
                  for name in ("fprime_left", "fprime_right", "f3_left", "f3_right")]
    return parts


def test_reused_solves_match_first_solves_byte_for_byte():
    rng = np.random.default_rng(2024)
    for trial in range(12):
        m = int(rng.integers(1, 65))
        geom = CylinderGeometry(-float(rng.uniform(0.3, 2.0)), 0.0, float(rng.uniform(0.3, 2.0)))
        km, kp = (float(k) for k in np.exp(rng.uniform(-2.0, 2.0, 2)))
        kind = ("zero", "sine", "manufactured")[trial % 3]
        options = SolveOptions(route=("calculus", "both")[(trial // 3) % 2])
        op = build_dirichlet_laplacian_1d(m, 1.0)
        solve_transmission(op, geom, km, kp, *_forcing(kind, op, geom, km, kp, rng), options)
        for _ in range(2):
            data = _forcing(kind, op, geom, km, kp, rng)
            reused = solve_transmission(op, geom, km, kp, *data, options)
            fresh = solve_transmission(build_dirichlet_laplacian_1d(m, 1.0), geom, km, kp,
                                       *data, options)
            assert _fingerprint(reused) == _fingerprint(fresh), (trial, m, kind)


def test_solver_solve_is_solve_transmission():
    op = build_dirichlet_laplacian_1d(12, 1.0)
    rng = np.random.default_rng(5)
    forcing, boundary = _forcing("sine", op, GEOM, 0.5, 2.0, rng)
    options = SolveOptions(route="both")
    direct = TransmissionSolver(op, GEOM, 0.5, 2.0, options).solve(forcing, boundary)
    wrapped = solve_transmission(build_dirichlet_laplacian_1d(12, 1.0), GEOM, 0.5, 2.0,
                                 forcing, boundary, options)
    assert _fingerprint(direct) == _fingerprint(wrapped)


def test_the_kept_solver_goes_with_its_operator():
    op = build_dirichlet_laplacian_1d(32, 1.0)
    sol = solve_transmission(op, GEOM, 1.0, 3.0, None, _boundary(np.random.default_rng(0), 32))
    ref = weakref.ref(op)
    del op, sol
    gc.collect()
    assert ref() is None


def test_the_report_forms_no_probe_factors(monkeypatch):
    # The report reads closed-form end values, so no solve and no report
    # evaluates a field table (the semigroup factors on a grid), and the
    # solver keeps no probe grid.
    calls = []
    real = SubproblemSolution.modal_fields
    monkeypatch.setattr(SubproblemSolution, "modal_fields",
                        lambda *args: calls.append(args) or real(*args))
    rng = np.random.default_rng(9)
    for kind in ("zero", "sine", "manufactured"):
        op = build_dirichlet_laplacian_1d(8, 1.0)
        for _ in range(2):  # a first and a reused solve
            sol = solve_transmission(op, GEOM, 1.0, 3.0, *_forcing(kind, op, GEOM, 1.0, 3.0, rng))
        transmission.residual_report(sol)
        assert not hasattr(op._solver, "probes")
    assert calls == []


def test_a_failing_determinant_gap_refuses_the_solver_not_its_solve(monkeypatch):
    # The determinant gates depend on the operators alone: they run once,
    # when the operators are built, and a solve runs none of them.
    op = build_dirichlet_laplacian_1d(6, 1.0)
    real = transmission.determinant
    with monkeypatch.context() as patch:
        patch.setattr(transmission, "determinant", lambda *args: real(*args) * (1.0 + 1e-6))
        with pytest.raises(AnomalyError, match="cross-check"):
            TransmissionSolver(op, GEOM, 1.0, 3.0)
    solver = TransmissionSolver(op, GEOM, 1.0, 3.0)
    object.__setattr__(solver.operators, "det_gap", np.inf)
    assert solver.solve().report.det_gap == np.inf


def _outputs(sol):
    """The interface pair, the sources, and each side's alphas and particular traces."""
    parts = [sol.interface.psi1, sol.interface.psi2, sol.sources.s1, sol.sources.s2]
    for side in SIDES:
        sub = sol.side(side)
        part = sub.particular
        parts += [*sub.alphas, part.fprime_left, part.fprime_right, part.f3_left, part.f3_right]
    return parts


@pytest.mark.parametrize("m", [1, 32, 256])
@pytest.mark.parametrize("geometry", [GEOM, CylinderGeometry(-1e-3, 0.0, 1.0)])
@pytest.mark.parametrize("kind", ["zero", "manufactured"])
def test_a_solver_on_kept_symbols_gives_the_bytes_of_a_cold_one(m, geometry, kind):
    op = build_dirichlet_laplacian_1d(m, 1.0)
    rng = np.random.default_rng(m)
    previous = TransmissionSolver(op, geometry, 2.0, 0.5, SolveOptions(route="both", n_x=65))
    for km, kp in ((1e-4, 1.0), (1.0, 1e4), (0.25, 4.0)):
        if kind == "zero":
            data = None, _boundary(rng, m)
        else:
            case = manufactured_forced(op, geometry, km, kp, int(rng.integers(min(m, 4))),
                                       rng.normal(size=3), float(rng.normal()),
                                       float(rng.normal()))
            data = case.forcing(), case.boundary_data()
        kept = TransmissionSolver(op, geometry, km, kp, previous=previous)
        cold = TransmissionSolver(op, geometry, km, kp)
        assert kept.operators.minus is previous.operators.minus
        assert cold.operators.minus is not previous.operators.minus
        reused, fresh = kept.solve(*data), cold.solve(*data)
        for got, want in zip(_outputs(reused), _outputs(fresh), strict=True):
            assert np.array_equal(got, want), (km, kp)
        assert reused.report.to_dict() == fresh.report.to_dict()
        previous = kept


@pytest.mark.parametrize("m", [1, 32, 256])
def test_a_both_rebuild_forms_its_own_fundamental_system_with_a_cold_builds_bytes(m):
    # A "both" solver rebuilt at an equal geometry takes the interval symbols
    # from the previous one and forms its fundamental system from them, as a
    # cold build does: same bytes, no table shared with the previous system.
    op = build_dirichlet_laplacian_1d(m, 1.0)
    rng = np.random.default_rng(m)
    both = SolveOptions(route="both")
    previous = TransmissionSolver(op, GEOM, 2.0, 0.5, both)
    for km, kp in ((1e-4, 1.0), (1.0, 1e4)):
        kept = TransmissionSolver(op, GEOM, km, kp, both, previous)
        cold = TransmissionSolver(op, GEOM, km, kp, both)
        assert kept.operators.minus is previous.operators.minus
        assert kept.operators.plus is previous.operators.plus
        for name in ("end_rows", "minus", "plus"):
            assert getattr(kept.system, name) is not getattr(previous.system, name)
        for got, want in zip((*kept.system[:2], *kept.system[2], *kept.system[3:]),
                             (*cold.system[:2], *cold.system[2], *cold.system[3:]),
                             strict=True):
            assert got.tobytes() == want.tobytes()
        data = _forcing("sine", op, GEOM, km, kp, rng)
        reused, fresh = kept.solve(*data), cold.solve(*data)
        for got, want in zip(_outputs(reused), _outputs(fresh), strict=True):
            assert got.tobytes() == want.tobytes(), (km, kp)
        assert reused.route_gap == fresh.route_gap
        assert reused.reference is kept.system
        assert reused.report.to_dict() == fresh.report.to_dict()
        previous = kept


def test_a_convergence_study_evaluates_the_interval_symbols_once(monkeypatch):
    # Each level changes only n_x, so the levels share one pair of interval symbols.
    op = build_dirichlet_laplacian_1d(8, 1.0)
    case = manufactured_forced(op, GEOM, 1.0, 2.0, 1, [0.3, -1.0, 0.5])
    calls = _count_interval_symbols(monkeypatch)
    convergence_study(case, "representation", (17, 33, 65, 129), 1.0, 2.0)
    assert len(calls) == 2


def test_verify_levels_reuse_the_symbols_of_the_verify_solve(monkeypatch, tmp_path):
    calls = _count_interval_symbols(monkeypatch)
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "forced_convergence.yaml"
    assert main(["verify", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2
