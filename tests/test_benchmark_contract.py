"""The names and calls of bitrans that the benchmark in perfbench/ relies on.

The tracer in perfbench/spans.py finds the functions it times by name and
reports 0 for a name that no longer resolves, so a rename would silently
zero a per-layer metric. These tests pin the names and one traced sweep
point (which also pins the ``route="both"`` call of perfbench/sweep.py).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import spans  # noqa: E402
from sweep import run_sweep  # noqa: E402

# Targets known to be stale (ROADMAP, benchmark follow-through): the
# functions moved to bitrans.verification or are no longer called.
KNOWN_STALE = {
    "bitrans.subproblem:build_side_operators",
    "bitrans.transmission:assemble_UV",
    "bitrans.transmission:assemble_P",
    "bitrans.subproblem:lu_factor",
    "bitrans.subproblem:CubicSpline",
    "bitrans.oracle:spsolve",
}


def test_unresolved_span_targets_are_the_known_stale_ones():
    targets = [t for group in spans.TIMED.values() for t in group] + list(spans.COUNTED.values())
    unresolved = {target for target in targets if spans._resolve(target) is None}
    assert unresolved <= KNOWN_STALE


def test_traced_sweep_point_fills_the_interface_layers():
    tracer = spans.Tracer()
    with tracer.installed():
        points, failures = run_sweep(tracer, seed=1, ms=(8,), nxs=(33,))
    assert failures == 0
    row = points[(8, 33)]
    # assemble_s keeps the k-dependent assembly inside the traced
    # assemble_transmission_operators span.
    for metric in ("transmission.interface_block_s", "transmission.report_s",
                   "subproblem.coeffs_s", "transmission.assemble_s"):
        assert row[metric] > 0.0, metric
