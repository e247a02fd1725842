"""Cold-start guards: what a fresh interpreter loads for each entry point.

Each case runs in its own interpreter, because this test process has
long since imported scipy. The assertions are on ``sys.modules`` and the
outputs, never on timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def _cli(command: str, config: Path, out: Path) -> dict:
    return _run_fresh("from bitrans.cli import main\n"
                      "code = main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])",
                      command, str(config), str(out))


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


def test_cold_verify_sine_forced_m64_passes(tmp_path):
    config = tmp_path / "verify.yaml"
    config.write_text("section: {kind: laplacian-1d, m: 64, length: 1.0}\n"
                      "forcing: {kind: sine, side: plus, mode: 1, k_multiple: 1, amplitude: 1.5}\n"
                      + _COMMON)
    result = _cli("verify", config, tmp_path / "out")
    assert result["exit"] == 0
    verify = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert verify["passed"] is True
