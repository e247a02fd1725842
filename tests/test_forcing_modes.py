"""The forcing's declared modes, and the typed and NaN-proof gates around them.

A forcing declares the rows that may be nonzero (``ModalForcing.modes``);
the particular solve samples and solves only those, and must give the
bytes that the same forcing over all m rows gives. A side without a
resampler is zero: it is never sampled, and it must give the bytes that
a resampler of zeros gives.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitrans.oracle as oracle
import bitrans.problem as problem
import bitrans.subproblem as subproblem
from bitrans import (
    AnomalyError,
    BoundaryData,
    CylinderGeometry,
    DimensionMismatchError,
    InterfaceData,
    InvalidGeometryError,
    ModalForcing,
    SIDE_MINUS,
    SIDE_PLUS,
    SIDES,
    SolveOptions,
    assemble_transmission_operators,
    build_dirichlet_laplacian_1d,
    direct_solve,
    manufactured_forced,
    solve_particular,
    solve_transmission,
)

GEOM = CylinderGeometry(-0.7, 0.0, 1.3)
TRACES = ("fprime_left", "fprime_right", "f3_left", "f3_right")


def _rows_func(coeffs, sign):
    """Smooth per-row forcing with one row per line of ``coeffs``."""
    def func(xs):
        xs = np.asarray(xs)
        return sign * (coeffs[:, :1] + coeffs[:, 1:2] * xs + coeffs[:, 2:3] * np.cos(3.0 * xs)
                       + coeffs[:, 3:4] * np.sin(7.0 * xs))
    return func


def _declared_and_full(m, modes, forced_sides, seed):
    """The same forcing twice: declaring ``modes``, and over all m rows."""
    coeffs = np.random.default_rng(seed).normal(size=(len(modes), 4))
    full_coeffs = np.zeros((m, 4))
    full_coeffs[list(modes)] = coeffs
    funcs, full_funcs = [], []
    for side in SIDES:
        sign = 1.0 if side in forced_sides else 0.0
        funcs.append(_rows_func(coeffs, sign))
        full_funcs.append(_rows_func(full_coeffs, sign))
    return (ModalForcing.from_functions(GEOM, m, *funcs, modes=modes),
            ModalForcing.from_functions(GEOM, m, *full_funcs))


def _sol_bytes(sol, xs_by_side):
    out = [sol.report.to_json().encode()]
    for side in SIDES:
        part = sol.side(side).particular
        out += [getattr(part, name).tobytes() for name in TRACES]
        out.append(part.terms(xs_by_side[side], sol.operator.eigenvalues).tobytes())
        out += [sol.field(side, xs_by_side[side], order).tobytes() for order in range(4)]
    return out


@settings(max_examples=30)
@given(m=st.integers(1, 40), n_x=st.sampled_from([17, 33, 65]),
       side=st.sampled_from(SIDES + ("both",)), data=st.data())
def test_declared_modes_give_the_bytes_of_all_rows(m, n_x, side, data):
    modes = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m), label="modes"))
    seed = data.draw(st.integers(0, 2**16), label="seed")
    declared, full = _declared_and_full(m, modes, SIDES if side == "both" else (side,), seed)
    assert np.array_equal(declared.modes, modes) and full.modes.size == m
    bc = BoundaryData(*np.random.default_rng(seed).standard_normal((4, m)))
    options = SolveOptions(n_x=n_x)
    sols = [solve_transmission(build_dirichlet_laplacian_1d(m, 1.0), GEOM, 1.0, 3.0, f, bc,
                               options) for f in (declared, full)]
    rng = np.random.default_rng(seed + 1)
    xs = {s: np.concatenate([[lo], np.sort(rng.uniform(lo, hi, 7)), [hi]])
          for s in SIDES for lo, hi in [GEOM.interval(s)]}
    assert _sol_bytes(sols[0], xs) == _sol_bytes(sols[1], xs)
    for s in SIDES:
        parts = [sol.side(s).particular for sol in sols]
        assert np.array_equal(parts[0].active, parts[1].active)
        assert parts[0].f_modal.tobytes() == parts[1].f_modal.tobytes()
        assert parts[0].f_modal.shape[0] == parts[0].active.size
        assert parts[0].f_modal.shape[1] <= n_x  # the longest chopped series
        np.testing.assert_array_equal(declared.sample(s, xs[s]), full.sample(s, xs[s]))


@pytest.mark.parametrize("m", [5, 32, 64])
def test_a_mode_rounds_the_same_alone_or_among_all(m):
    op = build_dirichlet_laplacian_1d(m, 1.0)
    coeffs = np.random.default_rng(m).normal(size=(m, 4))
    every = _rows_func(coeffs, 1.0)
    together = ModalForcing.from_functions(GEOM, m, every, every)
    for side in SIDES:
        full = solve_particular(op.eigenvalues, GEOM, side, together, n_x=65)
        assert np.array_equal(full.active, np.arange(m))
        for j in range(m):
            one = _rows_func(coeffs[j:j + 1], 1.0)
            alone = solve_particular(op.eigenvalues, GEOM, side,
                                     ModalForcing.from_functions(GEOM, m, one, one, modes=[j]),
                                     n_x=65)
            assert np.array_equal(alone.active, [j])
            for name in TRACES:
                assert getattr(alone, name)[j].tobytes() == getattr(full, name)[j].tobytes(), name
                assert not np.any(np.delete(getattr(alone, name), j))
            # The mode's own series; among all, its row is zero past its length.
            length = alone.f_modal.shape[1]
            for name in ("f_modal", "w_modal"):
                row = getattr(full, name)[j]
                assert getattr(alone, name)[0].tobytes() == row[:length].tobytes(), name
                assert not np.any(row[length:])


def test_a_resampler_never_returns_more_than_its_modes():
    m, modes = 16, (2, 5, 11)
    op = build_dirichlet_laplacian_1d(m, 1.0)
    coeffs = np.random.default_rng(4).normal(size=(len(modes), 4))
    rows_seen = []

    def spied(func):
        def wrapper(xs):
            vals = func(xs)
            rows_seen.append(vals.shape[0])
            return vals
        return wrapper

    forcing = ModalForcing.from_functions(GEOM, m, spied(_rows_func(coeffs, 1.0)),
                                          spied(_rows_func(coeffs, -1.0)), modes=modes)
    rows_seen.clear()
    bc = BoundaryData(*np.random.default_rng(1).standard_normal((4, m)))
    sol = solve_transmission(op, GEOM, 1.0, 3.0, forcing, bc, SolveOptions(route="both"))
    assert rows_seen and max(rows_seen) == len(modes)
    for side in SIDES:
        assert np.array_equal(sol.side(side).particular.active, modes)


def test_declared_modes_of_the_built_in_forcings():
    m = 8
    op = build_dirichlet_laplacian_1d(m, 1.0)
    assert ModalForcing.sine(op, GEOM, SIDE_PLUS, 3).modes.tolist() == [3]
    case = manufactured_forced(op, GEOM, 1.0, 2.0, 2, [1.0, 0.5, -0.3])
    assert case.forcing().modes.tolist() == [2]
    assert ModalForcing.zero(m, GEOM).modes.size == 0
    rows = [(x, j, float(j in (1, 6)) * (1.0 + x), side) for side in SIDES
            for x in GEOM.grid(side, 9) for j in range(m)]
    csv = ModalForcing.from_csv_rows(GEOM, m, rows)
    assert csv.modes.tolist() == [1, 6]
    xs = GEOM.grid(SIDE_MINUS, 21)
    assert csv.sample_modes(SIDE_MINUS, xs).shape == (2, xs.size)
    full = csv.sample(SIDE_MINUS, xs)
    assert full.shape == (m, xs.size) and not np.any(np.delete(full, [1, 6], axis=0))
    np.testing.assert_allclose(full[[1, 6]], np.tile(1.0 + xs, (2, 1)), rtol=1e-14, atol=1e-14)
    funcs = (lambda xs: np.ones((m, np.size(xs))),) * 2
    assert ModalForcing.from_functions(GEOM, m, *funcs).modes.tolist() == list(range(m))


def test_bad_mode_declarations_are_rejected():
    m = 4
    one = lambda xs: np.ones((1, np.size(xs)))  # noqa: E731
    for modes in ([4], [-1], [[0, 1]], [0.5], [1, 1]):
        with pytest.raises(DimensionMismatchError):
            ModalForcing.from_functions(GEOM, m, one, one, modes=modes)
    with pytest.raises(DimensionMismatchError, match="returned shape"):
        ModalForcing.from_functions(GEOM, m, one, one, modes=[0, 2])


def test_non_finite_resampled_forcing_is_a_typed_error():
    # Finite on the stored 33-point grid, NaN on any solve grid.
    m = 4
    op = build_dirichlet_laplacian_1d(m, 1.0)

    def func(xs):
        vals = np.ones((m, np.size(xs)))
        return vals if np.size(xs) == 33 else vals * np.nan

    forcing = ModalForcing.from_functions(GEOM, m, func, func)
    with pytest.raises(DimensionMismatchError, match="forcing samples must be finite"):
        solve_transmission(op, GEOM, 1.0, 3.0, forcing)
    with pytest.raises(DimensionMismatchError, match="forcing samples must be finite"):
        direct_solve(op, GEOM, 1.0, 3.0, forcing, n_x=65)


def test_interface_residual_norm_does_not_overflow():
    # A constant plus-side forcing of 1e200: unscaled squares overflow to NaN.
    m = 4
    op = build_dirichlet_laplacian_1d(m, 1.0)
    zero = lambda xs: np.zeros((m, np.size(xs)))  # noqa: E731
    for amp in (1e160, 1e200):
        const = lambda xs, a=amp: np.full((m, np.size(xs)), a)  # noqa: E731
        sol = solve_transmission(op, GEOM, 1.0, 3.0,
                                 ModalForcing.from_functions(GEOM, m, zero, const))
        assert np.isfinite(sol.interface.psi1_hat).all()
        assert 0.0 < sol.interface.residual <= 1e-15


def test_nan_fails_every_gate(monkeypatch):
    m = 4
    op = build_dirichlet_laplacian_1d(m, 1.0)
    sol = solve_transmission(op, GEOM, 1.0, 3.0,
                             boundary=BoundaryData(*np.random.default_rng(0).normal(size=(4, m))))
    iface = sol.interface
    with pytest.raises(AnomalyError, match="residual"):
        InterfaceData(iface.operator, iface.psi1_hat, iface.psi2_hat, iface.route, np.nan)
    tops = assemble_transmission_operators(op, GEOM, 1.0, 3.0)
    blocks = tops.det_modal_blocks.copy()
    blocks[1] = np.nan
    with pytest.raises(AnomalyError, match="cross-check"):
        replace(tops, det_modal_blocks=blocks)
    monkeypatch.setattr(oracle, "solve_banded", lambda lu, b: np.full(np.shape(b), np.nan))
    with pytest.raises(AnomalyError, match="backward error"):
        direct_solve(op, GEOM, 1.0, 3.0, n_x=65)


def _spy(monkeypatch, owner, name):
    """Wrap ``owner.name`` so each call appends 1 to the returned list."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(1) or real(*args, **kw))
    return calls


def test_side_without_resampler_is_not_sampled_solved_or_interpolated(monkeypatch):
    m, modes = 8, [1, 5]
    op = build_dirichlet_laplacian_1d(m, 1.0)
    coeffs = np.random.default_rng(4).normal(size=(len(modes), 4))
    forcing = ModalForcing.from_functions(GEOM, m, None, _rows_func(coeffs, 1.0), modes=modes)
    assert forcing.vanishes(SIDE_MINUS) and not forcing.vanishes(SIDE_PLUS)
    sampled = _spy(monkeypatch, ModalForcing, "sample_modes")
    banded = _spy(monkeypatch, subproblem, "solve_banded")
    table_splines = _spy(monkeypatch, problem, "CubicSpline")
    part = solve_particular(op.eigenvalues, GEOM, SIDE_MINUS, forcing, n_x=65)
    assert part.active.size == 0 and not (sampled or banded)
    part = solve_particular(op.eigenvalues, GEOM, SIDE_PLUS, forcing, n_x=65)
    assert part.active.tolist() == modes
    # Both forcing rows start at 17 points and chop at 33, one sampling per
    # length. Both rows are stiff enough for the layer-free route (lam = 121
    # and 34), so no banded call runs.
    assert (len(sampled), len(banded)) == (2, 0)
    assert np.all(part.layers != 0.0)
    assert not table_splines


@pytest.mark.parametrize("route", ["calculus", "both"])
def test_missing_resampler_solves_like_a_resampler_of_zeros(route):
    m, modes = 6, [1, 3]
    op = build_dirichlet_laplacian_1d(m, 1.0)
    rng = np.random.default_rng(8)
    func = _rows_func(rng.normal(size=(len(modes), 4)), 1.0)
    zeros = lambda xs: np.zeros((len(modes), np.size(xs)))  # noqa: E731
    bc = BoundaryData(*rng.normal(size=(4, m)))
    xs = {side: GEOM.grid(side, 41) for side in SIDES}
    for unforced in SIDES:
        pair = [(None, func), (zeros, func)] if unforced == SIDE_MINUS else [(func, None),
                                                                            (func, zeros)]
        sols = [solve_transmission(op, GEOM, 1.0, 3.0,
                                   ModalForcing.from_functions(GEOM, m, *funcs, modes=modes),
                                   bc, SolveOptions(route=route)) for funcs in pair]
        assert sols[0].side(unforced).particular.active.size == 0
        # The solve and the report are byte-identical: the report maps its
        # end values alone and each side's equation rows alone, so the
        # zero rows of the resampler side add no column to another product.
        assert _sol_bytes(sols[0], xs) == _sol_bytes(sols[1], xs)


def _csv(m, minus_x, plus_x, value=lambda x, j: np.cos(x) * (j == 1)):
    return [(x, j, value(x, j), side) for side, grid in ((SIDE_MINUS, minus_x), (SIDE_PLUS, plus_x))
            for x in grid for j in range(m)]


def test_csv_gates_keep_their_error_classes():
    m = 3
    grids = GEOM.grid(SIDE_MINUS, 9), GEOM.grid(SIDE_PLUS, 9)
    forcing = ModalForcing.from_csv_rows(GEOM, m, _csv(m, *grids))
    assert forcing.modes.tolist() == [1]
    rows = _csv(m, *grids)
    with pytest.raises(DimensionMismatchError, match="incomplete"):
        ModalForcing.from_csv_rows(GEOM, m, rows[:4] + rows[5:])
    for bad in (np.inf, -np.inf):
        with pytest.raises(DimensionMismatchError, match="finite"):
            ModalForcing.from_csv_rows(GEOM, m, rows[:4] + [rows[4][:2] + (bad,) + rows[4][3:]]
                                       + rows[5:])
    with pytest.raises(DimensionMismatchError, match="counts differ"):
        ModalForcing.from_csv_rows(GEOM, m, _csv(m, grids[0], GEOM.grid(SIDE_PLUS, 11)))
    with pytest.raises(InvalidGeometryError, match="cover"):
        ModalForcing.from_csv_rows(GEOM, m, _csv(m, grids[0], grids[1] * 0.9))
    with pytest.raises(InvalidGeometryError, match="no forcing rows"):
        ModalForcing.from_csv_rows(GEOM, m, _csv(m, grids[0], ()))
    with pytest.raises(DimensionMismatchError, match="outside"):
        ModalForcing.from_csv_rows(GEOM, m, rows + [(0.1, m, 1.0, SIDE_PLUS)])


def test_forcing_on_another_geometry_is_rejected():
    m = 4
    op = build_dirichlet_laplacian_1d(m, 1.0)
    other = CylinderGeometry(-2.0, 0.0, 3.0)
    forcing = ModalForcing.sine(op, GEOM, SIDE_PLUS, 1, 1, 1.5)
    with pytest.raises(InvalidGeometryError, match="forcing built on"):
        solve_transmission(op, other, 1.0, 3.0, forcing)
    with pytest.raises(InvalidGeometryError, match="forcing built on"):
        direct_solve(op, other, 1.0, 3.0, forcing, n_x=65)
    solve_transmission(op, CylinderGeometry(-0.7, 0.0, 1.3), 1.0, 3.0, forcing)


@pytest.mark.parametrize("value", [lambda v: v, lambda v: v + 1.0], ids=["identical", "conflicting"])
def test_csv_rows_reject_a_repeated_triple(value):
    # A second row for one (side, x, mode) used to override the first silently.
    m = 3
    rows = _csv(m, GEOM.grid(SIDE_MINUS, 9), GEOM.grid(SIDE_PLUS, 9))
    x, mode, v, side = rows[-1]
    with pytest.raises(DimensionMismatchError, match="repeated"):
        ModalForcing.from_csv_rows(GEOM, m, rows + [(x, mode, value(v), side)])


def test_forcing_csv_reader_checks_the_header_and_the_field_count(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("side,value,x,mode_index\nplus, 2.5,0.25,1\n\nminus,0,0.0,0\n")
    assert problem.read_forcing_csv(path) == [(0.25, 1, 2.5, "plus"), (0.0, 0, 0.0, "minus")]
    for text, message in [("x,mode,value,side\n", "header"),
                          ("x,mode_index,value,side,note\n", "header"),
                          ("x,mode_index,value,side\n0.0,0,1.0\n", "row 2"),
                          ("x,mode_index,value,side\n0.0,0,1.0,plus,9\n", "row 2"),
                          ("x,mode_index,value,side\n0.0,zero,1.0,plus\n", "zero")]:
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            problem.read_forcing_csv(path)
