"""Comparison-mutation audit: do the given tests notice a flipped comparison in a module?

Each operator of each ``ast.Compare`` in MODULE is one mutant, swapped
as ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``, ``in`` <->
``not in`` and ``is`` <-> ``is not``. The audit copies ``src/`` to a
temporary directory and writes every mutant there, never under
``src/``. It first runs ``pytest -x -q -p no:cacheprovider TEST...``
against the ``ast.unparse``d unmutated module, which must pass; then it
runs the mutants one at a time, never in parallel, each with a timeout
of 5 times the baseline run, at least 60 s.
It prints one line per mutant (line, original -> mutant, and killed,
survived or timed out) and the kill rate, a timed-out mutant counting as
killed. Run from the repository root; standard library only.

    python tools/mutation_audit.py src/bitrans/oracle.py tests/test_oracle.py [TEST...]
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not"}


class Mutant(NamedTuple):
    """One swapped comparison operator and the whole module's source with it."""

    line: int
    original: str
    mutant: str
    source: str


def mutants(source: str) -> list:
    """Every comparison mutant of ``source``, in source order (line, column, operand)."""
    tree = ast.parse(source)
    sites = sorted(((node.lineno, node.col_offset, i), node)
                   for node in ast.walk(tree) if isinstance(node, ast.Compare)
                   for i in range(len(node.ops)))
    out = []
    for (line, _, i), node in sites:
        op = node.ops[i]
        node.ops[i] = SWAPS[type(op)]()
        out.append(Mutant(line, SYMBOLS[type(op)], SYMBOLS[type(node.ops[i])], ast.unparse(tree)))
        node.ops[i] = op
    return out


def _env(src: Path) -> dict:
    """Imports from the copy ``src`` alone, with no bytecode cache to go stale between mutants."""
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def run_tests(src: Path, tests: list, timeout: float):
    """True if the tests pass against the package under ``src``, False if not, None on timeout."""
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=ROOT, env=_env(src), timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module under src/, e.g. src/bitrans/oracle.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run per mutant")
    args = parser.parse_args(argv)
    module = Path(args.module).resolve()
    relative = module.relative_to(ROOT / "src")
    source = module.read_text()
    found = mutants(source)
    with tempfile.TemporaryDirectory(prefix="mutation_audit_") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / relative
        target.write_text(ast.unparse(ast.parse(source)))
        package = relative.parts[0]
        where = subprocess.run([sys.executable, "-c", f"import {package}; print({package}.__file__)"],
                               cwd=ROOT, env=_env(src), capture_output=True, text=True).stdout
        if not Path(where.strip()).resolve().is_relative_to(src.resolve()):
            print(f"{package} does not import from the copy: {where.strip()!r}", file=sys.stderr)
            return 2
        start = time.perf_counter()
        if not run_tests(src, args.tests, 3600.0):
            print("baseline: the tests fail on the unmutated module", file=sys.stderr)
            return 2
        baseline = time.perf_counter() - start
        timeout = max(60.0, 5.0 * baseline)
        print(f"{relative}: {len(found)} mutants, baseline {baseline:.1f} s, timeout {timeout:.0f} s")
        killed = 0
        for mutant in found:
            target.write_text(mutant.source)
            passed = run_tests(src, args.tests, timeout)
            status = {True: "survived", False: "killed", None: "timed out"}[passed]
            killed += passed is not True
            print(f"{mutant.line:5d}  {mutant.original} -> {mutant.mutant}  {status}", flush=True)
    rate = killed / len(found) if found else float("nan")
    print(f"kill rate {killed}/{len(found)} = {rate:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
