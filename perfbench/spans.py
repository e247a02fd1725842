"""Span tracing of the bitrans layers from outside the package.

`Tracer.installed()` replaces each named function, in every bitrans module
namespace that binds it, by a wrapper that records a span (name, start,
end, parent span, request id) while a request is open. Dependency names
bound in those namespaces (`solve_banded`, `lu_factor`, `spsolve`,
`CubicSpline`) get wrappers that only count calls. Spans stay in memory;
`per_request` turns them into self times when the run ends. A wrapped
function that is gone or never called reports 0.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

# Per-layer time metric -> the functions whose spans it sums, as
# "module:qualified name". Self time is summed, so a metric never counts
# the time of a wrapped callee twice.
TIMED = {
    "section_operator.eig_s": ("bitrans.section_operator:build_dirichlet_laplacian_1d",
                               "bitrans.section_operator:from_matrix"),
    "subproblem.side_ops_s": ("bitrans.subproblem:build_side_operators",),
    "transmission.assemble_s": ("bitrans.transmission:assemble_transmission_operators",
                                "bitrans.transmission:assemble_UV",
                                "bitrans.transmission:assemble_P"),
    "subproblem.particular_s": ("bitrans.subproblem:solve_particular",),
    "problem.forcing_sample_s": ("bitrans.problem:ModalForcing.sample",),
    "subproblem.coeffs_s": ("bitrans.subproblem:phi_tilde_minus",
                            "bitrans.subproblem:phi_tilde_plus",
                            "bitrans.subproblem:alphas_minus",
                            "bitrans.subproblem:alphas_plus"),
    "transmission.sources_s": ("bitrans.transmission:assemble_sources",),
    "transmission.interface_block_s": ("bitrans.transmission:solve_interface_block",),
    "transmission.interface_calculus_s": ("bitrans.transmission:solve_interface_calculus",),
    "transmission.report_s": ("bitrans.transmission:residual_report",),
    "subproblem.evaluate_s": ("bitrans.subproblem:SubproblemSolution.evaluate",),
    "symbols.f_total_s": ("bitrans.symbols:f_total",),
    "oracle.direct_solve_s": ("bitrans.oracle:direct_solve",),
    "oracle.compare_s": ("bitrans.oracle:compare",),
    "config.load_s": ("bitrans.config:load_config", "bitrans.config:build_section",
                      "bitrans.config:build_case"),
    "transmission.solve_self_s": ("bitrans.transmission:solve_transmission",),
    "cli.self_s": ("bitrans.cli:main",),
}

# Per-layer count metric -> the dependency name whose calls it counts.
# Every bitrans namespace binding the same object is wrapped, so
# spline_builds counts CubicSpline constructions from any module.
COUNTED = {
    "transmission.lu_factors": "bitrans.subproblem:lu_factor",
    "subproblem.tridiag_solves": "bitrans.subproblem:solve_banded",
    "subproblem.spline_builds": "bitrans.subproblem:CubicSpline",
    "oracle.sparse_solves": "bitrans.oracle:spsolve",
}

EVALUATE_CALLS = "subproblem.evaluate_calls"
ORCHESTRATION = "transmission.solve_self_s"
SETUP = "set-up"


class _Tally(NamedTuple):
    calls: str
    hits: str


# Per-request tallies behind the two ratios: solves whose (operator,
# geometry, k) was seen before in the same process, and particular
# solves that produced a nonzero field.
SOLVES = _Tally("solve_calls", "repeat_solves")
PARTICULAR = _Tally("particular_calls", "particular_nonzero")
_SOLVE = "bitrans.transmission:solve_transmission"
_PARTICULAR = "bitrans.subproblem:solve_particular"
_CLI_MAIN = "bitrans.cli:main"
_EVALUATE = "bitrans.subproblem:SubproblemSolution.evaluate"


def _resolve(target: str):
    """(owner, attribute, original) for "module:qualname", or None if gone."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _bitrans_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "bitrans" or name.startswith("bitrans."))]


def operator_key(operator, geometry, k_minus, k_plus) -> tuple:
    """Content key of (operator, geometry, k) for the repeat ratio."""
    digest = hashlib.blake2b(operator.eigenvalues.tobytes())
    digest.update(operator.eigenvectors.tobytes())
    return (digest.hexdigest(), geometry.a, geometry.gamma, geometry.b,
            float(k_minus), float(k_plus))


class Tracer:
    """In-memory span and count recorder; records only while a request is open."""

    def __init__(self):
        self.spans = []  # [target, start, end, parent index, request id]
        self.counts = defaultdict(Counter)  # request id -> metric -> calls
        self.request = None
        self._stack = []
        self._undo = []
        self._seen_operators = set()

    # -- request scope -------------------------------------------------
    def begin(self, request_id) -> None:
        self.request = request_id

    def end(self) -> None:
        self.request = None

    # -- wrappers ------------------------------------------------------
    def _on_call(self, target: str, args, kwargs) -> None:
        if target == _CLI_MAIN:
            # Each CLI invocation is its own process: nothing carries over.
            self._seen_operators.clear()
        elif target == _SOLVE:
            bound = self._solve_signature.bind(*args, **kwargs).arguments
            key = operator_key(bound["operator"], bound["geometry"],
                               bound["k_minus"], bound["k_plus"])
            tally = self.counts[self.request]
            tally[SOLVES.calls] += 1
            tally[SOLVES.hits] += key in self._seen_operators
            self._seen_operators.add(key)

    def _on_return(self, target: str, result) -> None:
        if target == _PARTICULAR:
            tally = self.counts[self.request]
            tally[PARTICULAR.calls] += 1
            tally[PARTICULAR.hits] += bool(np.any(getattr(result, "f_modal", 0)))

    def _span_wrapper(self, target: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            self._on_call(target, args, kwargs)
            record = [target, time.perf_counter(), 0.0,
                      self._stack[-1] if self._stack else None, self.request]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self._on_return(target, result)
            return result
        return wrapper

    def _count_wrapper(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is not None:
                self.counts[self.request][metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _install(self) -> None:
        """Wrap every binding of the named functions in the loaded bitrans modules."""
        plan = {}  # id(original) -> wrapper
        for metric, targets in TIMED.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    continue
                owner, attr, original = found
                if target == _SOLVE:
                    self._solve_signature = inspect.signature(original)
                wrapper = self._span_wrapper(target, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                else:
                    plan[id(original)] = wrapper
        for metric, target in COUNTED.items():
            found = _resolve(target)
            if found is not None:
                plan[id(found[2])] = self._count_wrapper(metric, found[2])
        for module in _bitrans_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in plan:
                    self._patch(module, attr, plan[id(value)])

    @contextmanager
    def installed(self):
        """Wrappers in place for the body of the with-statement."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------
    def per_request(self) -> dict:
        """request id -> {metric: self seconds or call count}, every metric present."""
        metric_of = {target: metric for metric, targets in TIMED.items() for target in targets}
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for idx, (target, start, end, _, request) in enumerate(self.spans):
            row = out.setdefault(request, empty_row())
            row[metric_of[target]] += (end - start) - child_time[idx]
            if target == _EVALUATE:
                row[EVALUATE_CALLS] += 1
        for request, counts in self.counts.items():
            row = out.setdefault(request, empty_row())
            row.update(counts)
        return out


def empty_row() -> dict:
    row = dict.fromkeys(TIMED, 0.0)
    row.update(dict.fromkeys(COUNTED, 0))
    row[EVALUATE_CALLS] = 0
    return row
