"""One gate per input decision: mode indices, axial grid sizes, convergence settings.

Each entry point that takes such an input calls its one gate, so a bad
value raises the same error class from every one of them, and the
command line maps it to exit code 2 without a traceback.
"""

import numpy as np
import pytest

from bitrans import (
    CylinderGeometry,
    DimensionMismatchError,
    ModalForcing,
    ResolutionError,
    SIDE_PLUS,
    SIDES,
    SolveOptions,
    build_dirichlet_laplacian_1d,
    convergence_study,
    direct_solve,
    manufactured_forced,
    manufactured_homogeneous,
    solve_particular,
    solve_transmission,
)
from bitrans import oracle
from bitrans.cli import main

M = 4
GEOM = CylinderGeometry(-0.7, 0.0, 1.3)
OP = build_dirichlet_laplacian_1d(M, 1.0)


def _csv_rows(modes):
    """Every mode at each of 9 points per side, plus one row per entry of ``modes`` at x = 0."""
    rows = [(float(x), j, 0.0, side) for side in SIDES for x in GEOM.grid(side, 9)
            for j in range(M)]
    return rows + [(0.0, j, 1.0, SIDE_PLUS) for j in modes]


MODE_ENTRIES = {
    "ModalForcing": lambda modes: ModalForcing(GEOM, M, modes),
    "sine": lambda modes: ModalForcing.sine(OP, GEOM, SIDE_PLUS, *modes),
    "from_csv_rows": lambda modes: ModalForcing.from_csv_rows(GEOM, M, _csv_rows(modes)),
    "manufactured_homogeneous": lambda modes: manufactured_homogeneous(
        OP, GEOM, modes, np.ones(len(modes)), np.ones(len(modes))),
    "manufactured_forced": lambda modes: manufactured_forced(OP, GEOM, 1.0, 3.0, *modes, [1.0]),
}
BAD_MODES = {"float": [1.5], "bool": [True], "negative": [-1], "m": [M], "repeated": [1, 1]}
ONE_MODE_ENTRIES = ("sine", "manufactured_forced")


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in MODE_ENTRIES for bad in BAD_MODES
    if not (bad == "repeated" and entry in ONE_MODE_ENTRIES)])
def test_every_mode_entry_point_rejects_a_bad_mode_at_the_one_gate(entry, bad):
    # 1.5, True and [0, 0] used to pass manufactured_homogeneous silently (a
    # repeat kept its last coefficient), and sine and manufactured_forced
    # ended in an IndexError on 1.5 or a TypeError on True.
    with pytest.raises(DimensionMismatchError):
        MODE_ENTRIES[entry](BAD_MODES[bad])


def test_a_bool_among_integer_modes_is_rejected():
    # np.asarray([0, True]) is an integer array, so the gate looks at the items.
    with pytest.raises(DimensionMismatchError, match="integer mode indices"):
        ModalForcing(GEOM, M, [0, True])


def test_declared_modes_keep_the_order_of_the_resampler_rows():
    # Modes were stored sorted, so a resampler of the rows [3, 0] fed mode 3's
    # values to mode 0 and mode 0's to mode 3.
    rows = {0: 0.5, 3: 3.0}

    def forcing(modes):
        return ModalForcing.from_functions(
            GEOM, M, None, lambda xs: np.array([np.full(xs.size, rows[j]) for j in modes]),
            modes=modes)

    swapped, ordered = forcing([3, 0]), forcing([0, 3])
    assert swapped.sample(SIDE_PLUS, np.array([0.5]))[:, 0].tolist() == [0.5, 0.0, 0.0, 3.0]
    sols = [solve_transmission(OP, GEOM, 1.0, 3.0, f) for f in (swapped, ordered)]
    assert np.array_equal(sols[0].interface.psi1_hat, sols[1].interface.psi1_hat)
    assert sols[0].report.to_dict() == sols[1].report.to_dict()


def test_homogeneous_modes_keep_their_coefficients():
    case = manufactured_homogeneous(OP, GEOM, (3, 0), [1.0, 2.0], [0.0, 0.5])
    assert case.modes.tolist() == [3, 0]
    assert case.coeffs.tolist() == [[[1.0, 2.0], [0.0, 0.5]]] * 2
    assert case.modal_field(SIDE_PLUS, GEOM.gamma)[:, 0].tolist() == [2.5, 0.0, 0.0, 1.0]


FORCING = ModalForcing.sine(OP, GEOM, SIDE_PLUS, 1)
GRID_ENTRIES = {
    "SolveOptions": (17, lambda n_x: SolveOptions(n_x=n_x)),
    "solve_particular": (17, lambda n_x: solve_particular(OP.eigenvalues, GEOM, SIDE_PLUS,
                                                          FORCING, n_x=n_x)),
    "direct_solve": (33, lambda n_x: direct_solve(OP, GEOM, 1.0, 3.0, FORCING, n_x=n_x)),
}


@pytest.mark.parametrize("entry", sorted(GRID_ENTRIES))
def test_every_grid_entry_point_checks_n_x_at_the_one_gate(entry):
    # solve_particular(n_x=129.0) used to end in a TypeError inside numpy.
    least, build = GRID_ENTRIES[entry]
    for bad in (129.0, True, np.float64(129)):
        with pytest.raises(ValueError, match="n_x must be an integer"):
            build(bad)
    with pytest.raises(ResolutionError, match=f"n_x >= {least} needed, got {least - 1}"):
        build(least - 1)
    build(np.int64(least))


@pytest.mark.parametrize("levels", [(33.7, 65, 129), (True, 65, 129)], ids=["float", "bool"])
def test_convergence_levels_must_be_integers(levels):
    # These used to become [33, 65, 129] and [1, 65, 129].
    case = manufactured_forced(OP, GEOM, 1.0, 3.0, 1, [1.0])
    for method in oracle.CONVERGENCE_MIN_N_X:
        with pytest.raises(ValueError, match="levels must be an integer"):
            oracle.check_levels(levels, method)
        with pytest.raises(ValueError, match="levels must be an integer"):
            convergence_study(case, method, levels)


def test_each_convergence_method_has_its_own_grid_minimum():
    case = manufactured_forced(OP, GEOM, 1.0, 3.0, 1, [1.0])
    assert oracle.check_levels((17, 33, 65), "representation") == [17, 33, 65]
    with pytest.raises(ResolutionError, match="levels >= 17 needed, got 16"):
        convergence_study(case, "representation", (16, 33, 65))
    with pytest.raises(ResolutionError, match="levels >= 33 needed, got 17"):
        convergence_study(case, "direct", (17, 33, 65))
    for method in ("fd", ["direct"]):
        with pytest.raises(ValueError, match="method must be representation"):
            convergence_study(case, method, (33, 65, 129))


BASE = """
section: {{kind: laplacian-1d, m: 3, length: 1.0}}
geometry: {{a: -0.7, gamma: 0.0, b: 0.9}}
diffusivities: {{k_minus: 1.0, k_plus: 2.5}}
forcing: {{kind: manufactured, case: {case}}}
boundary: {{kind: from-exact-case}}
convergence: {convergence}
"""
FORCED = "forced, mode: 2, profile: [0.5, -1.2, 0.8]"
HOMOG = "homogeneous, modes: {modes}, a1: [0.8, -0.5], a2: [-0.4, 0.6]"


@pytest.mark.parametrize("command, case, convergence, shown", [
    ("solve", HOMOG.format(modes="[0, 0]"), "{}",
     "config error: bad forcing: modes must be distinct"),
    ("solve", FORCED.replace("mode: 2", "mode: 9"), "{}",
     "config error: bad forcing: mode span 9..9, outside 0..2"),
    ("convergence", FORCED, "{method: direct, levels: [17, 33, 65]}",
     "config error: convergence.levels >= 33 needed, got 17"),
    ("solve", FORCED, "{method: representation, levels: [9, 33, 65]}",
     "config error: convergence.levels >= 17 needed, got 9"),
    ("solve", FORCED, "{method: [direct], levels: [33, 65, 129]}",
     "config error: convergence.method must be representation|direct, got ['direct']"),
], ids=["repeated-homogeneous-mode", "mode-out-of-range", "direct-level-17",
        "representation-level-9", "unhashable-method"])
def test_cli_gate_errors_exit_2_without_traceback(tmp_path, capsys, command, case, convergence,
                                                  shown):
    # [0, 0] used to exit 0 with the second coefficient in place of the first,
    # and a direct study from 17 used to fail mid-run, after the config was read.
    path = tmp_path / "run.yaml"
    path.write_text(BASE.format(case=case, convergence=convergence))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(shown) and "Traceback" not in err
