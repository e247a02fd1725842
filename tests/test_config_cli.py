import csv
import json
from pathlib import Path

import numpy as np
import pytest

import bitrans.transmission as transmission
from bitrans import ConfigError, SolveOptions, solve_transmission
from bitrans.cli import main
from bitrans.config import build_case, build_section, load_config
from bitrans.oracle import FLOOR
from dense_reference import fd_particular

BASE = """
section: {{kind: laplacian-1d, m: {m}, length: 1.0}}
geometry: {{a: -0.7, gamma: 0.0, b: 0.9}}
diffusivities: {{k_minus: 1.0, k_plus: 2.5}}
{extra}
"""

HOMOG = """
forcing:
  kind: manufactured
  case: homogeneous
  modes: [0, 1, 2]
  a1: [0.8, -0.5, 0.3]
  a2: [-0.4, 0.6, 0.2]
boundary: {kind: from-exact-case}
solver: {route: both, n_x: 65, probe_points: 17}
"""

FORCED = """
forcing:
  kind: manufactured
  case: forced
  mode: 2
  profile: [0.5, -1.2, 0.8, 0.3, -0.6]
  psi1: 0.3
  psi2: -0.2
boundary: {kind: from-exact-case}
solver: {n_x: 65, probe_points: 17}
convergence: {method: representation, levels: [33, 65, 129]}
"""


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_basic(tmp_path):
    path = write_config(tmp_path, BASE.format(m=3, extra=HOMOG))
    config = load_config(path)
    assert config.solver.route == "both"
    assert config.geometry.c == pytest.approx(0.7, rel=1e-6, abs=0.0)
    op = build_section(config)
    assert op.m == 3
    forcing, boundary, case = build_case(config, op)
    assert case is not None
    assert boundary.m == 3


def test_load_config_missing_section(tmp_path):
    path = write_config(tmp_path, "geometry: {a: -1.0, gamma: 0.0, b: 1.0}\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_bad_values(tmp_path):
    bad_geom = BASE.format(m=3, extra="").replace("-0.7", "0.9")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad_geom))
    bad_route = BASE.format(m=3, extra="solver: {route: magic}\n")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad_route))
    bad_k = BASE.format(m=3, extra="").replace("k_minus: 1.0", "k_minus: -1.0")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, bad_k))


def test_explicit_boundary_length_check(tmp_path):
    extra = """
boundary:
  kind: explicit
  phi1_minus: [1.0, 2.0]
  phi2_minus: [0.0, 0.0]
  phi1_plus: [0.0, 0.0]
  phi2_plus: [0.0, 0.0]
"""
    path = write_config(tmp_path, BASE.format(m=3, extra=extra))
    config = load_config(path)
    op = build_section(config)
    with pytest.raises(ConfigError):
        build_case(config, op)


def test_forcing_csv_roundtrip(tmp_path):
    rows = [("x", "mode_index", "value", "side")]
    for side, lo, hi in (("minus", -0.7, 0.0), ("plus", 0.0, 0.9)):
        for x in np.linspace(lo, hi, 21):
            for j in range(2):
                rows.append((repr(float(x)), j, repr(float(np.sin(x) + j)), side))
    csv_path = tmp_path / "forcing.csv"
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    extra = f"forcing: {{kind: csv, path: {csv_path}}}\n"
    config = load_config(write_config(tmp_path, BASE.format(m=2, extra=extra)))
    op = build_section(config)
    forcing, _, _ = build_case(config, op)
    xs = np.array([-0.35, -0.1])
    vals = forcing.sample("minus", xs)
    assert np.max(np.abs(vals[1] - (np.sin(xs) + 1.0))) < 1e-4


def test_cli_solve_writes_outputs(tmp_path):
    path = write_config(tmp_path, BASE.format(m=3, extra=HOMOG))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["side", "x", "mode_index", "order", "value"]
    # 2 sides x 17 probe points x 3 modes x 4 orders data rows
    assert len(rows) == 1 + 2 * 17 * 3 * 4


def test_cli_solve_deterministic(tmp_path):
    path = write_config(tmp_path, BASE.format(m=3, extra=HOMOG))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", path, "--out", str(out_a)]) == 0
    assert main(["solve", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "solution.csv").read_bytes() == (out_b / "solution.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_cli_zero_config_solves_to_zero(tmp_path):
    path = write_config(tmp_path, BASE.format(m=2, extra=""))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    with open(out / "solution.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(float(row[4]) == 0.0 for row in rows[1:])


def test_cli_config_error_exit_2(tmp_path):
    path = write_config(tmp_path, "section: {kind: magic}\n")
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path)]) == 2


def test_cli_hypothesis_violation_exit_3(tmp_path):
    mat = tmp_path / "pos.txt"
    mat.write_text("2\n1.0 0.0\n0.0 1.0\n")
    extra = ""
    text = BASE.format(m=2, extra=extra).replace(
        "{kind: laplacian-1d, m: 2, length: 1.0}",
        f"{{kind: matrix-file, path: {mat}}}")
    path = write_config(tmp_path, text)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 3


def test_cli_corrupt_matrix_exit_2(tmp_path):
    mat = tmp_path / "corrupt.txt"
    mat.write_text("3\n1.0 2.0\n")
    text = BASE.format(m=2, extra="").replace(
        "{kind: laplacian-1d, m: 2, length: 1.0}",
        f"{{kind: matrix-file, path: {mat}}}")
    path = write_config(tmp_path, text)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2


def test_cli_verify_default_case(tmp_path):
    path = write_config(tmp_path, BASE.format(m=3, extra=HOMOG))
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"] is True
    assert payload["checks"]["route_gap"]["value"] <= 1e-10
    assert payload["checks"]["spectral_mapping"]["passed"] is True


def test_cli_verify_forced_records_rate(tmp_path):
    path = write_config(tmp_path, BASE.format(m=3, extra=FORCED))
    out = tmp_path / "out"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["checks"]["representation_rate"]["value"] >= 1.8


def test_cli_scan_symbols(tmp_path):
    extra = "scan: {start: 1.0e-6, stop: 1.0e6, points: 121}\n"
    path = write_config(tmp_path, BASE.format(m=2, extra=extra))
    out = tmp_path / "out"
    assert main(["scan-symbols", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "scan.json").read_text())
    assert payload["all_positive"] is True
    assert payload["grid_size"] == 121


def test_cli_scan_symbols_empty_grid_exit_2(tmp_path):
    extra = "scan: {start: 1.0e-6, stop: 1.0e6, points: 0}\n"
    path = write_config(tmp_path, BASE.format(m=2, extra=extra))
    assert main(["scan-symbols", "--config", path, "--out", str(tmp_path)]) == 2


def test_cli_convergence_writes_rates(tmp_path):
    path = write_config(tmp_path, BASE.format(m=3, extra=FORCED))
    out = tmp_path / "out"
    assert main(["convergence", "--config", path, "--out", str(out)]) == 0
    with open(out / "rates.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n_x", "error", "rate"]
    assert len(rows) == 4
    # The representation is at the linear-algebra floor on every level.
    assert [row[2] for row in rows[1:]] == ["floor"] * 3
    assert all(float(row[1]) <= FLOOR for row in rows[1:])


def test_cli_convergence_two_levels_exit_2(tmp_path):
    text = BASE.format(m=3, extra=FORCED).replace("[33, 65, 129]", "[33, 65]")
    path = write_config(tmp_path, text)
    assert main(["convergence", "--config", path, "--out", str(tmp_path)]) == 2


def test_cli_convergence_requires_manufactured(tmp_path):
    extra = "convergence: {method: direct, levels: [33, 65, 129]}\n"
    path = write_config(tmp_path, BASE.format(m=2, extra=extra))
    assert main(["convergence", "--config", path, "--out", str(tmp_path)]) == 2


def test_cli_route_and_nx_overrides(tmp_path):
    path = write_config(tmp_path, BASE.format(m=3, extra=HOMOG))
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out),
                 "--route", "calculus", "--nx", "33"]) == 0
    assert main(["solve", "--config", path, "--out", str(out), "--nx", "5"]) == 2


@pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
def test_load_config_rejects_non_finite_diffusivity(tmp_path, bad):
    for key in ("k_minus: 1.0", "k_plus: 2.5"):
        name = key.split(":")[0]
        text = BASE.format(m=3, extra="").replace(key, f"{name}: {bad}")
        with pytest.raises(ConfigError, match="finite"):
            load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("content", [None, b"\x80\xff 2"], ids=["missing", "not-utf8"])
def test_cli_unreadable_matrix_file_exit_2_without_traceback(tmp_path, capsys, content):
    mat = tmp_path / "nope.txt"
    if content is not None:
        mat.write_bytes(content)
    text = BASE.format(m=2, extra="").replace(
        "{kind: laplacian-1d, m: 2, length: 1.0}", f"{{kind: matrix-file, path: {mat}}}")
    path = write_config(tmp_path, text)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "section.path" in err and "Traceback" not in err


def test_cli_short_forcing_csv_row_exit_2_without_traceback(tmp_path, capsys):
    # csv.DictReader fills the missing side of row 3 with None.
    csv_path = tmp_path / "forcing.csv"
    csv_path.write_text("x,mode_index,value,side\n0.0,0,1.0,plus\n0.0,0,1.0\n")
    extra = f"forcing: {{kind: csv, path: {csv_path}}}\n"
    path = write_config(tmp_path, BASE.format(m=2, extra=extra))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "row 3" in err and "Traceback" not in err


def test_cli_nan_diffusivity_exit_2_without_traceback(tmp_path, capsys):
    text = BASE.format(m=3, extra="").replace("k_minus: 1.0", "k_minus: .nan")
    path = write_config(tmp_path, text)
    for command in ("solve", "verify"):
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err


def test_cli_vanishing_symbol_exit_2_without_traceback(tmp_path, capsys):
    mat = tmp_path / "tiny.txt"
    mat.write_text("2\n-1e-250 0.0\n0.0 -1e-251\n")  # u_delta underflows on both modes
    text = (BASE.format(m=2, extra="")
            .replace("{kind: laplacian-1d, m: 2, length: 1.0}", f"{{kind: matrix-file, path: {mat}}}")
            .replace("{a: -0.7, gamma: 0.0, b: 0.9}", "{a: -1.0e-8, gamma: 0.0, b: 1.0}"))
    path = write_config(tmp_path, text)
    for route in ("calculus", "both"):
        assert main(["solve", "--config", path, "--out", str(tmp_path), "--route", route]) == 2
        err = capsys.readouterr().err
        assert "vanishes at mode 0" in err and "Traceback" not in err
    # The dense LU is no longer a route of its own.
    block = write_config(tmp_path, text + "solver: {route: block}\n", name="block.yaml")
    assert main(["solve", "--config", block, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "calculus|both" in err and "Traceback" not in err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", path, "--out", str(tmp_path), "--route", "block"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'block'" in err and "Traceback" not in err


@pytest.mark.parametrize("command, text", [
    ("scan-symbols", BASE.format(m=2, extra="scan: {start: abc}\n")),
    ("verify", BASE.format(m=3, extra=FORCED).replace("[33, 65, 129]", "[65, 129]")),
    ("convergence", BASE.format(m=3, extra=FORCED).replace("[33, 65, 129]", "[65, x, 129]")),
], ids=["scan-start-not-a-number", "verify-two-levels", "convergence-non-integer-level"])
def test_cli_bad_scan_or_convergence_exit_2_without_traceback(tmp_path, capsys, command, text):
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


RANDOM_BC = "boundary: {kind: random}\n"
HOMOG_ZERO = """
forcing: {kind: manufactured, case: homogeneous, modes: [0], a1: [0], a2: [0]}
boundary: {kind: from-exact-case}
"""


@pytest.mark.parametrize("argv, extra", [
    (["--seed", "-1"], RANDOM_BC),
    ([], RANDOM_BC + "seed: -3\n"),
    ([], "forcing: {kind: sine, side: left, mode: 1}\n"),
    ([], FORCED.replace("[0.5, -1.2, 0.8, 0.3, -0.6]", "[1, 2, 3, 4, 5, 6, 7, 8]")),
    ([], FORCED.replace("[0.5, -1.2, 0.8, 0.3, -0.6]", "[a, 1]")),
    ([], HOMOG_ZERO),
    ([], "output: {solution_csv: 5}\n"),
], ids=["cli-seed-negative", "seed-negative", "sine-side-left", "profile-8-coefficients",
        "profile-not-numbers", "homogeneous-zero-coefficients", "output-name-not-a-string"])
def test_cli_gate_rejects_bad_input_exit_2_without_traceback(tmp_path, capsys, argv, extra):
    path = write_config(tmp_path, BASE.format(m=3, extra=extra))
    assert main(["solve", "--config", path, "--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
REPORT_KEYS = ("bc_1", "bc_2", "bc_3", "bc_4", "tc1_u", "tc1_du", "tc2_flux2", "tc2_flux3")
# The boundary and interface entries of each demo config's solve as the
# earlier report formed them, from the end columns of an order-0..3 field
# table per side on the probe grid, mapped back with about 200 columns,
# with the finite-difference particular part (dense_reference.fd_particular).
FIELD_TABLE_ENTRIES = {
    "forced_convergence": (2.469200703907507e-16, 5.185460939851216e-16,
                           1.8039326106481326e-16, 8.171779264423112e-17,
                           6.47657356148721e-17, 7.909464401103373e-16,
                           1.9048416085846547e-15, 1.0627928865928693e-15),
    "homogeneous_exact": (2.4634661098160533e-16, 1.474996336763635e-16,
                          2.609572331895845e-16, 2.8174478607913953e-16,
                          1.7397167199188476e-14, 1.550411448664099e-14,
                          3.628252504376829e-14, 2.2126020296091186e-13),
    "random_verify": (1.5048590798154503e-16, 8.35051913051318e-16,
                      1.4985858827096325e-16, 7.067775674888204e-16,
                      9.343366279779586e-17, 1.313564460492108e-15,
                      2.5842427806146487e-15, 7.292473848340385e-16),
}


@pytest.mark.parametrize("name", sorted(FIELD_TABLE_ENTRIES))
def test_demo_entries_match_the_field_table_report_to_rounding(name, monkeypatch):
    # The closed-form end values equal the table's end columns bit for bit;
    # only the basis change's column count differs, which moves an entry by
    # rounding at most (scaled entries: a few eps). The table was formed
    # with the finite-difference particular part, so that part stands in.
    monkeypatch.setattr(transmission, "solve_particular", fd_particular)
    config = load_config(DEMO_CONFIGS / f"{name}.yaml")
    op = build_section(config)
    forcing, boundary, _ = build_case(config, op)
    report = solve_transmission(op, config.geometry, config.k_minus, config.k_plus,
                                forcing, boundary, config.solver).report
    for key, expected in zip(REPORT_KEYS, FIELD_TABLE_ENTRIES[name]):
        assert abs(getattr(report, key) - expected) <= 4 * np.finfo(float).eps, key


def test_config_without_a_solver_section_gives_the_default_options(tmp_path):
    config = load_config(write_config(tmp_path, BASE.format(m=3, extra="")))
    assert config.solver == SolveOptions()


@pytest.mark.parametrize("argv, extra, shown", [
    ([], "solver: {route: magic}\n", "'magic'"),
    ([], "solver: {n_x: 5}\n", "got 5"),
    ([], "solver: {n_x: '12'}\n", "'12'"),
    ([], "solver: {probe_points: 3}\n", "got 3"),
    (["--nx", "5"], "", "got 5"),
], ids=["route-magic", "n_x-5", "n_x-string", "probe_points-3", "cli-nx-5"])
def test_cli_bad_solver_setting_exit_2_without_traceback(tmp_path, capsys, argv, extra, shown):
    # SolveOptions is the one gate of these settings, for the config and --nx alike.
    path = write_config(tmp_path, BASE.format(m=3, extra=extra))
    assert main(["solve", "--config", path, "--out", str(tmp_path), *argv]) == 2
    err = capsys.readouterr().err
    assert shown in err and "Traceback" not in err
    if not argv:
        assert err.startswith("config error: bad solver:")


def _forcing_csv(tmp_path, extra_rows=(), long_row=None):
    """A two-sided m = 2 forcing CSV; ``long_row`` gets a fifth field."""
    lines = ["x,mode_index,value,side"]
    for side, lo, hi in (("minus", -0.7, 0.0), ("plus", 0.0, 0.9)):
        for x in np.linspace(lo, hi, 9):
            lines += [f"{float(x)!r},{j},{float(np.cos(x) * j)!r},{side}" for j in range(2)]
    if long_row is not None:
        lines[long_row - 1] += ",9.0"
    path = tmp_path / "forcing.csv"
    path.write_text("\n".join(lines + list(extra_rows)) + "\n")
    return BASE.format(m=2, extra=f"forcing: {{kind: csv, path: {path}}}\n")


def test_cli_long_forcing_csv_row_exit_2_without_traceback(tmp_path, capsys):
    # csv.DictReader files the extra field under the key None; it used to be dropped.
    path = write_config(tmp_path, _forcing_csv(tmp_path, long_row=5))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad forcing csv") and "row 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1.0", "7.0"], ids=["identical", "conflicting"])
def test_cli_repeated_forcing_csv_row_exit_2_without_traceback(tmp_path, capsys, value):
    # The last of two rows for one (side, x, mode) used to win without a word.
    path = write_config(tmp_path, _forcing_csv(tmp_path, [f"0.0,1,{value},plus"]))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: inconsistent forcing csv") and "repeated" in err
    assert "Traceback" not in err


def test_cli_forcing_csv_row_on_an_unknown_side_exit_2_without_traceback(tmp_path, capsys):
    path = write_config(tmp_path, _forcing_csv(tmp_path, ["0.0,1,1.0,left"]))
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad forcing csv") and "'left'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("levels", ["[65, 65, 65]", "[129, 65, 33]"],
                         ids=["repeated", "decreasing"])
def test_cli_levels_must_strictly_increase_exit_2_without_traceback(tmp_path, capsys, levels):
    # [65, 65, 65] used to exit 0 with nan rates and a numpy RankWarning.
    text = BASE.format(m=3, extra=FORCED).replace("[33, 65, 129]", levels)
    path = write_config(tmp_path, text)
    assert main(["convergence", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: convergence.levels") and "Traceback" not in err
