"""Cold command-line workload: `bitrans solve` and `bitrans verify` runs.

A request is one `solve` run on an m = 8 random-boundary config followed
by one `verify` run on an m = 64 random-boundary, sine-forced config,
each in a fresh interpreter with PYTHONPATH=src, so start-up, config
parsing, the oracle, the calculus route and output writing are all in
the timed path. Each run gets its own `--seed`, drawn from the workload
seed, so each sees fresh boundary data.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 60.0
ACCEPTED_EXITS = (0, 4)  # 4: a residual budget failed, which the report ratio counts
PROBE_POINTS = 33

SOLVE_M = 8
VERIFY_M = 64
_COMMON = """\
geometry: {a: -0.7, gamma: 0.0, b: 1.3}
diffusivities: {k_minus: 1.0, k_plus: 3.0}
boundary: {kind: random, scale: 1.0}
solver: {n_x: 129, probe_points: %d}
""" % PROBE_POINTS
SOLVE_CONFIG = "section: {kind: laplacian-1d, m: %d, length: 1.0}\n" + _COMMON
VERIFY_CONFIG = ("section: {kind: laplacian-1d, m: %d, length: 1.0}\n"
                 "forcing: {kind: sine, side: plus, mode: 1, k_multiple: 1, amplitude: 1.5}\n"
                 + _COMMON)


def child_env() -> dict:
    """Environment of every child interpreter: the package source and the thread pin."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


@dataclass(frozen=True)
class Request:
    rid: int
    solve_seed: int
    verify_seed: int

    def argv(self, command: str, config: Path, out: Path) -> list:
        seed = self.solve_seed if command == "solve" else self.verify_seed
        return [command, "--config", str(config), "--out", str(out), "--seed", str(seed)]


class CliCold:
    """Alternating cold `solve` and `verify` runs, one pair per request."""

    name = "cli-cold"

    def __init__(self, seed: int, work_dir: Path, in_process: bool = False,
                 solve_m: int = SOLVE_M, verify_m: int = VERIFY_M):
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.in_process = in_process
        self.solve_m = solve_m
        self.verify_m = verify_m
        self.kind_times = {"solve": [], "verify": []}
        self._next_id = 0
        work_dir.mkdir(parents=True, exist_ok=True)
        self.configs = {"solve": work_dir / "solve.yaml", "verify": work_dir / "verify.yaml"}
        self.configs["solve"].write_text(SOLVE_CONFIG % solve_m)
        self.configs["verify"].write_text(VERIFY_CONFIG % verify_m)

    def next_request(self) -> Request:
        rid = self._next_id
        self._next_id += 1
        solve_seed, verify_seed = (int(v) for v in self.rng.integers(0, 2**31, 2))
        return Request(rid, solve_seed, verify_seed)

    def out_dir(self, req: Request, command: str) -> Path:
        return self.work_dir / f"{command}-{req.rid}"

    def _run(self, argv: list) -> int:
        if self.in_process:
            from bitrans.cli import main
            return main(argv)
        proc = subprocess.run([sys.executable, "-m", "bitrans.cli", *argv], cwd=ROOT,
                              env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode not in ACCEPTED_EXITS:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode

    def call(self, req: Request) -> dict:
        """Run the pair; return {command: exit code}."""
        codes = {}
        for command in ("solve", "verify"):
            start = time.perf_counter()
            codes[command] = self._run(req.argv(command, self.configs[command],
                                                self.out_dir(req, command)))
            self.kind_times[command].append(time.perf_counter() - start)
        return codes

    def check(self, req: Request, codes: dict) -> tuple[bool, list[bool]]:
        """(outputs complete and verify checks pass, residual-report pass flags)."""
        try:
            ok = all(code in ACCEPTED_EXITS for code in codes.values())
            solve_out = self.out_dir(req, "solve")
            with open(solve_out / "solution.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            expected = 1 + 2 * 4 * PROBE_POINTS * self.solve_m
            ok &= len(rows) == expected and all(len(row) == 5 for row in rows)
            ok &= all(np.isfinite(float(row[4])) for row in rows[1:])
            report = json.loads((solve_out / "report.json").read_text())
            verify = json.loads((self.out_dir(req, "verify") / "verify.json").read_text())
            ok &= all(entry["passed"] for name, entry in verify["checks"].items()
                      if name != "residual_budgets")
            passed = [bool(report["passed"]), bool(verify["report"]["passed"])]
        except (OSError, ValueError, KeyError, IndexError):
            return False, []
        return bool(ok), passed
