"""Command-line front end: solve | verify | scan-symbols | convergence.

Exit codes: 0 success, 2 configuration/schema errors, 3 hypothesis
violations (an inadmissible section operator), 4 check or residual
budget failures. Identical configurations produce bit-identical outputs:
the eigendecomposition is ordering- and sign-fixed, floats are written
with repr, and files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, build_case, build_section, check_seed, load_config
from .errors import (
    AnomalyError,
    ConfigError,
    HypothesisViolationError,
    SolverError,
    SymmetryError,
)
from .oracle import compare, convergence_study, direct_solve
from .problem import SIDES
from .symbols import SymbolContext, positivity_scan
from .transmission import BLOCK_RESIDUAL_TOL, DET_CROSSCHECK_TOL, ROUTE_BOTH, solve_transmission
from .verification import spectral_mapping_gap

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_BUDGET = 4

SPECTRAL_MAP_TOL = 1e-11


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(rows) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows(rows)
    return buf.getvalue()


def _solution_csv_rows(solution):
    """Modal solution slices: side, x, mode_index, order, value."""
    rows = [("side", "x", "mode_index", "order", "value")]
    for side in SIDES:
        xs = solution.geometry.grid(side, solution.options.probe_points)
        table = solution.side(side).modal_fields(xs)
        for order, modal in enumerate(table):
            for i, x in enumerate(xs):
                for j in range(solution.m):
                    rows.append((side, repr(float(x)), j, order, repr(float(modal[j, i]))))
    return rows


def _verify_checks(config: RunConfig, operator, forcing, boundary, case):
    """Run the invariant suite and oracle comparison; return (checks, all_ok)."""
    options = replace(config.solver, route=ROUTE_BOTH)
    solution = solve_transmission(operator, config.geometry, config.k_minus,
                                  config.k_plus, forcing, boundary, options)
    report = solution.report
    checks = {}

    def record(name, value, budget):
        checks[name] = {"value": float(value), "budget": float(budget),
                        "passed": bool(value <= budget)}

    record("route_gap", solution.route_gap, BLOCK_RESIDUAL_TOL)
    record("det_gap", report.det_gap, DET_CROSSCHECK_TOL)
    record("spectral_mapping", spectral_mapping_gap(solution.operators, solution.reference),
           SPECTRAL_MAP_TOL)
    record("residual_budgets", 0.0 if report.passed else 1.0, 0.5)

    oracle = direct_solve(operator, config.geometry, config.k_minus, config.k_plus,
                          forcing, boundary, n_x=max(config.solver.n_x, 65))
    fine = direct_solve(operator, config.geometry, config.k_minus, config.k_plus,
                        forcing, boundary, n_x=2 * max(config.solver.n_x, 65) - 1)
    oracle_est = compare(oracle, fine, config.solver.probe_points).sup
    gap = compare(solution, oracle, config.solver.probe_points).sup
    record("oracle_gap", gap, 5.0 * oracle_est + 1e-8)

    if case is not None:
        exact_gap = compare(solution, case, config.solver.probe_points).sup
        record("exact_gap", exact_gap, max(10.0 * oracle_est, 1e-8))
        table = convergence_study(case, "representation", config.convergence["levels"],
                                  config.k_minus, config.k_plus)
        rate = 99.0 if table.floor else table.fitted_rate
        checks["representation_rate"] = {
            "value": float(rate), "budget": 1.8,
            "passed": bool(table.floor or table.fitted_rate >= 1.8),
        }
    all_ok = all(entry["passed"] for entry in checks.values())
    return solution, checks, all_ok


def _out_path(args, config: RunConfig, key: str, default: str) -> Path:
    name = config.output.get(key, default)
    return Path(args.out) / name


def cmd_solve(args, config: RunConfig) -> int:
    operator = build_section(config)
    forcing, boundary, _ = build_case(config, operator)
    solution = solve_transmission(operator, config.geometry, config.k_minus,
                                  config.k_plus, forcing, boundary, config.solver)
    _atomic_write(_out_path(args, config, "solution_csv", "solution.csv"),
                  _csv_text(_solution_csv_rows(solution)))
    _atomic_write(_out_path(args, config, "report_json", "report.json"),
                  solution.report.to_json() + "\n")
    return EXIT_OK if solution.report.passed else EXIT_BUDGET


def cmd_verify(args, config: RunConfig) -> int:
    operator = build_section(config)
    forcing, boundary, case = build_case(config, operator)
    solution, checks, all_ok = _verify_checks(config, operator, forcing, boundary, case)
    payload = {
        "checks": checks,
        "passed": all_ok,
        "conditions": {k: float(v) for k, v in solution.operators.conditions.items()},
        "report": solution.report.to_dict(),
    }
    _atomic_write(_out_path(args, config, "verify_json", "verify.json"),
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all_ok else EXIT_BUDGET


def cmd_scan_symbols(args, config: RunConfig) -> int:
    scan = config.scan
    ctx = SymbolContext(config.geometry.c, config.geometry.d,
                        config.k_minus, config.k_plus)
    grid = np.logspace(np.log10(scan["start"]), np.log10(scan["stop"]), scan["points"])
    result = positivity_scan(ctx, grid)
    payload = result.to_dict()
    payload["context"] = {"c": ctx.c, "d": ctx.d,
                          "k_minus": ctx.k_minus, "k_plus": ctx.k_plus}
    _atomic_write(_out_path(args, config, "scan_json", "scan.json"),
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if result.all_positive else EXIT_BUDGET


def cmd_convergence(args, config: RunConfig) -> int:
    operator = build_section(config)
    _, _, case = build_case(config, operator)
    if case is None:
        raise ConfigError("convergence study requires a manufactured forcing case")
    conv = config.convergence
    table = convergence_study(case, conv["method"], conv["levels"],
                              config.k_minus, config.k_plus)
    _atomic_write(_out_path(args, config, "rates_csv", "rates.csv"),
                  _csv_text(table.to_csv_rows()))
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "scan-symbols": cmd_scan_symbols,
    "convergence": cmd_convergence,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitrans",
        description="Biharmonic transmission solver: solve, verify, scan, converge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--route", choices=["calculus", "both"],
                         help="override solver.route")
        cmd.add_argument("--nx", type=int, help="override solver.n_x")
        cmd.add_argument("--seed", type=int, help="override the RNG seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.route is not None:
            config = replace(config, solver=replace(config.solver, route=args.route))
        if args.nx is not None:
            config = replace(config, solver=replace(config.solver, n_x=args.nx))
        if args.seed is not None:
            config = replace(config, seed=check_seed(args.seed, "--seed"))
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (HypothesisViolationError, SymmetryError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except AnomalyError as exc:
        print(f"anomaly: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
