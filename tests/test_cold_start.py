"""Cold-start guards: what a fresh interpreter loads for each entry point.

Each case runs in its own interpreter, because this test process has
long since imported scipy. The assertions are on ``sys.modules`` and the
outputs, never on timing.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_COMMON = """\
geometry: {a: -0.7, gamma: 0.0, b: 1.3}
diffusivities: {k_minus: 1.0, k_plus: 3.0}
boundary: {kind: random, scale: 1.0}
solver: {n_x: 129, probe_points: 33}
"""

_REPORT_SCIPY = """
import json, sys
{body}
print(json.dumps({{"exit": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""


def _run_fresh(body: str, *argv) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _REPORT_SCIPY.format(body=body), *argv],
                          env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli(command: str, config: Path, out: Path, *extra) -> dict:
    return _run_fresh("from bitrans.cli import main\n"
                      "code = main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3],"
                      " *sys.argv[4:]])",
                      command, str(config), str(out), *extra)


def test_import_bitrans_loads_no_scipy():
    result = _run_fresh("import bitrans\ncode = 0")
    assert result["scipy"] == []


def test_cold_solve_loads_no_scipy(tmp_path):
    config = tmp_path / "solve.yaml"
    config.write_text("section: {kind: laplacian-1d, m: 8, length: 1.0}\n" + _COMMON)
    result = _cli("solve", config, tmp_path / "out")
    assert result["scipy"] == []
    assert result["exit"] == 0
    assert (tmp_path / "out" / "solution.csv").is_file()
    assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True


def test_cold_solve_on_both_routes_loads_no_scipy(tmp_path):
    # The fundamental-system reference is numpy only; with no forcing there
    # is no particular solve either.
    config = tmp_path / "solve.yaml"
    config.write_text("section: {kind: laplacian-1d, m: 8, length: 1.0}\n" + _COMMON)
    result = _cli("solve", config, tmp_path / "out", "--route", "both")
    assert result["scipy"] == []
    assert result["exit"] == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["passed"] is True and 0.0 < report["route_gap"] <= 1e-10


def test_cold_verify_sine_forced_m64_passes(tmp_path):
    config = tmp_path / "verify.yaml"
    config.write_text("section: {kind: laplacian-1d, m: 64, length: 1.0}\n"
                      "forcing: {kind: sine, side: plus, mode: 1, k_multiple: 1, amplitude: 1.5}\n"
                      + _COMMON)
    # The oracle's solve and splines are numpy only, and the sine row
    # takes the layer-free particular route, so verify loads no scipy.
    result = _cli("verify", config, tmp_path / "out")
    assert result["exit"] == 0
    assert result["scipy"] == []
    verify = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert verify["passed"] is True


def test_cold_verify_of_the_random_demo_config_loads_no_scipy(tmp_path):
    config = Path(__file__).resolve().parent.parent / "demos" / "configs" / "random_verify.yaml"
    result = _cli("verify", config, tmp_path / "out")
    assert result["exit"] == 0
    assert result["scipy"] == []
    verify = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert verify["passed"] is True and "route_gap" in verify["checks"]


def _forcing_csv(path: Path, m: int) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("x", "mode_index", "value", "side"))
        for side, lo, hi in (("minus", -0.7, 0.0), ("plus", 0.0, 1.3)):
            for i in range(21):
                x = lo + (hi - lo) * i / 20
                for j in range(m):
                    writer.writerow((repr(x), j, repr((j + 1) * x * (x - lo) * (hi - x)), side))


def _forced_solve_config(tmp_path: Path, kind: str) -> Path:
    forcing = "{kind: sine, side: plus, mode: 1, k_multiple: 1, amplitude: 1.5}"
    if kind == "csv":
        _forcing_csv(tmp_path / "forcing.csv", 8)
        forcing = "{kind: csv, path: %s}" % (tmp_path / "forcing.csv")
    config = tmp_path / "solve.yaml"
    config.write_text("section: {kind: laplacian-1d, m: 8, length: 1.0}\n"
                      f"forcing: {forcing}\n" + _COMMON)
    return config


@pytest.mark.parametrize("kind", ["sine", "csv"])
def test_cold_forced_solve_loads_no_scipy(tmp_path, kind):
    # The sine row (mode 1 of m = 8, lam about 121) takes the layer-free
    # particular route. The table forces every mode, and its low modes take
    # the stage route; the spline and the stages are numpy only as well.
    result = _cli("solve", _forced_solve_config(tmp_path, kind), tmp_path / "out")
    assert result["exit"] == 0
    assert result["scipy"] == []
    assert (tmp_path / "out" / "solution.csv").is_file()
