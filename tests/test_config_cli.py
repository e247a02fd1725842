import csv
import json

import numpy as np
import pytest

from bitrans import ConfigError
from bitrans.cli import main
from bitrans.config import build_case, build_section, load_config

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
    assert config.geometry.c == pytest.approx(0.7)
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
    assert float(rows[-1][2]) > 1.8


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


def test_cli_nan_diffusivity_exit_2_without_traceback(tmp_path, capsys):
    text = BASE.format(m=3, extra="").replace("k_minus: 1.0", "k_minus: .nan")
    path = write_config(tmp_path, text)
    for command in ("solve", "verify"):
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err


def test_cli_vanishing_symbol_exit_2_without_traceback(tmp_path, capsys):
    mat = tmp_path / "tiny.txt"
    mat.write_text("2\n-1.0 0.0\n0.0 -1e-11\n")
    text = (BASE.format(m=2, extra="")
            .replace("{kind: laplacian-1d, m: 2, length: 1.0}", f"{{kind: matrix-file, path: {mat}}}")
            .replace("{a: -0.7, gamma: 0.0, b: 0.9}", "{a: -1.0e-8, gamma: 0.0, b: 1.0}"))
    path = write_config(tmp_path, text)
    for route in ("calculus", "block"):
        assert main(["solve", "--config", path, "--out", str(tmp_path), "--route", route]) == 2
        err = capsys.readouterr().err
        assert "vanishes at mode 0" in err and "Traceback" not in err


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
