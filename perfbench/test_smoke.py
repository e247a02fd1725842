"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that each workload's correctness check rejects a perturbed answer,
and that one seed always generates the same inputs.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from cli_cold import CliCold  # noqa: E402
from inprocess import AxialForced, ModalSweep  # noqa: E402
from run import WORKLOADS  # noqa: E402

TINY = {ModalSweep: {"m": 8, "n_x": 33}, AxialForced: {"m": 6, "n_x": 257}}
TINY_CLI = {"solve_m": 2, "verify_m": 4}


@pytest.fixture
def work_dir():
    path = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:  # a benchmark run still uses it
        pass


def _declared(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in bench[section]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")


@pytest.mark.parametrize("cls", (ModalSweep, AxialForced))
def test_check_rejects_a_perturbed_solution(cls):
    workload = cls(5, **TINY[cls])
    req = workload.next_request()
    solution = workload.call(req)
    assert workload.check(req, solution)[0]
    a1, *rest = solution.plus.alphas
    perturbed = replace(solution, plus=replace(solution.plus, alphas=(a1 * (1 + 1e-6), *rest)))
    assert not workload.check(req, perturbed)[0]


def test_cli_check_rejects_bad_outputs(work_dir):
    workload = CliCold(5, work_dir, in_process=True, **TINY_CLI)
    req = workload.next_request()
    codes = workload.call(req)
    assert workload.check(req, codes)[0]

    verify_json = workload.out_dir(req, "verify") / "verify.json"
    payload = json.loads(verify_json.read_text())
    payload["checks"]["route_gap"]["passed"] = False
    verify_json.write_text(json.dumps(payload))
    assert not workload.check(req, codes)[0]

    workload.call(req)
    assert workload.check(req, codes)[0]
    csv_path = workload.out_dir(req, "solve") / "solution.csv"
    csv_path.write_text("\n".join(csv_path.read_text().splitlines()[:-1]) + "\n")
    assert not workload.check(req, codes)[0]
    assert not workload.check(req, {"solve": 2, "verify": 0})[0]


def _inputs(req) -> list:
    geom = req.reference.geometry
    boundary = [getattr(req.boundary, name) for name in
                ("phi1_minus", "phi2_minus", "phi1_plus", "phi2_plus")]
    forcing = [] if req.forcing is None else [
        req.forcing.sample(side, geom.grid(side, 17)) for side in ("minus", "plus")]
    return [np.array([req.k_minus, req.k_plus]), *boundary, *forcing]


@pytest.mark.parametrize("cls", (ModalSweep, AxialForced))
def test_same_seed_same_inputs(cls):
    first, again, other = (cls(seed, **TINY[cls]) for seed in (7, 7, 8))
    for _ in range(3):
        a, b, c = (_inputs(w.next_request()) for w in (first, again, other))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_same_seed_same_cli_inputs(work_dir):
    first, again, other = (CliCold(seed, work_dir / str(i), **TINY_CLI)
                           for i, seed in enumerate((7, 7, 8)))
    assert first.configs["verify"].read_text() == again.configs["verify"].read_text()
    for _ in range(3):
        a, b, c = (w.next_request() for w in (first, again, other))
        assert a == b and a != c
