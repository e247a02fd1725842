"""bitrans benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload modal-sweep --seed 1 --seconds 30 --trace 0

A closed loop with one client: the next request is generated and sent
only after the previous one returned and was checked. `--trace 0`
prints the end-to-end metrics, `--trace 1` the per-layer metrics of a
separate traced run. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable summary. See perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS/OpenMP thread in this process and in every child it starts;
# must be set before numpy loads. README.md gives the measured reason.
THREAD_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("modal-sweep", "axial-forced", "cli-cold")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"setup_s": "s", "request_s_p50": "s", "request_s_p90": "s", "peak_rss_mb": "MiB"}


def _load_bitrans():
    """Import bitrans, and exit without a result unless it is this checkout's."""
    import bitrans

    if SRC not in Path(bitrans.__file__).resolve().parents:
        sys.exit(f"perfbench: imported bitrans from {bitrans.__file__}, not from {SRC}")
    return bitrans


def make_workload(name: str, seed: int, tiny: bool, work_dir: Path, in_process: bool = False):
    """Build the workload with its operator; `tiny` is the smoke-test size."""
    if name == "cli-cold":
        from cli_cold import CliCold

        sizes = {"solve_m": 2, "verify_m": 4} if tiny else {}
        return CliCold(seed, work_dir, in_process=in_process, **sizes)
    _load_bitrans()
    from inprocess import AxialForced, ModalSweep

    if name == "modal-sweep":
        return ModalSweep(seed, **({"m": 8, "n_x": 33} if tiny else {}))
    return AxialForced(seed, **({"m": 6, "n_x": 257} if tiny else {}))


class Loop:
    """Closed loop with one client: generate, time the call, check, record.

    With a calibration reference, one reference sample precedes the first
    timed request and one follows each timed request.
    """

    def __init__(self, workload, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = reference
        self.times = []
        self.attempted = self.failed = 0
        self.report_flags = []

    def request(self, timed: bool = True) -> None:
        wl = self.workload
        req = wl.next_request()
        rid = (wl.name, len(self.times)) if timed else (wl.name, "warm-up")
        if self.tracer is not None:
            self.tracer.begin(rid)
        start = time.perf_counter()
        try:
            result = wl.call(req)
        except Exception as exc:  # a failed operation is counted, not fatal
            result, exc_text = None, f"{type(exc).__name__}: {exc}"
        else:
            exc_text = ""
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end()
        ok, flags = (False, []) if result is None else wl.check(req, result)
        if not ok:
            print(f"# FAILED request {rid}: {exc_text or 'output check failed'}", file=sys.stderr)
        if timed:
            self.times.append(elapsed)
            self.attempted += 1
            self.failed += not ok
            if self.reference is not None:
                self.reference.sample()
        elif not ok:
            sys.exit(f"perfbench: warm-up request failed: {exc_text or 'output check failed'}")
        self.report_flags.extend(flags)

    def run_for(self, seconds: float) -> None:
        if self.reference is not None and not self.reference.samples:
            self.reference.sample()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.request()


def setup(args, work_dir: Path, in_process: bool = False):
    """Everything before the first timed request, warm-up request included."""
    workload = make_workload(args.workload, args.seed, args.tiny, work_dir, in_process)
    Loop(workload).request(timed=False)
    return workload


def _child(argv: list, env=None) -> str:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: child {argv[:2]} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(args, reference) -> list:
    """Set-up wall seconds of fresh processes, from spawn to ready for the first request.

    `reference` is sampled before the first process and after each one.
    """
    argv = [str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    argv += ["--tiny"] if args.tiny else []
    samples = []
    reference.sample()
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        samples.append(json.loads(_child(argv))["ready"] - spawned)
        reference.sample()
    return samples


def measure_import() -> float:
    """Median seconds of `import bitrans` in a fresh interpreter."""
    from cli_cold import child_env

    code = ("import time; t = time.perf_counter(); import bitrans; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(_child(["-c", code], env=child_env()))
                             for _ in range(IMPORT_REPEATS))


def p90(values: list) -> float:
    """90th percentile (statistics.quantiles, inclusive method).

    With fewer than ten values, as on `cli-cold`, the exclusive method
    extrapolates beyond the largest one, which made the p90 there noisier
    than a maximum.
    """
    return (statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1
            else values[0])


def peak_rss_mb(in_process: bool) -> float:
    """Peak RSS of this process, or of the largest child when requests run in children."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, work_dir: Path) -> tuple:
    """Untraced run; every time is rescaled to the nominal speed (calibration.py).

    Each set-up process and each request by the reference samples taken
    on either side of it. Set-up is mostly interpreter start and imports,
    so it always has the cold-start reference.
    """
    from calibration import ColdStartReference, ReferenceKernel
    from cli_cold import child_env

    setup_reference = ColdStartReference(child_env(), ROOT)
    setups = measure_setup(args, setup_reference)
    workload = setup(args, work_dir)
    reference = (ReferenceKernel() if workload.in_process
                 else ColdStartReference(child_env(), ROOT))
    loop = Loop(workload, reference=reference)
    loop.run_for(args.seconds)
    times = loop.times
    rescaled = reference.rescale(times)
    wall_p50, wall_p90 = statistics.median(times), p90(times)
    metrics = {
        "setup_s": statistics.median(setup_reference.rescale(setups)),
        "request_s_p50": statistics.median(rescaled),
        "request_s_p90": p90(rescaled),
        "peak_rss_mb": peak_rss_mb(workload.in_process),
    }
    beyond = sum(t > metrics["request_s_p90"] for t in rescaled)
    print(f"# {type(reference).__name__}: median {statistics.median(reference.samples):.5f} s "
          f"over {len(reference.samples)} samples, nominal {reference.nominal_s} s")
    print(f"# wall setup samples: {', '.join(f'{s:.4f}' for s in setups)} s")
    print(f"# wall request p50 {wall_p50:.4f} s, p90 {wall_p90:.4f} s; "
          f"{len(times)} requests, {beyond} beyond the rescaled p90")
    for kind, kind_times in getattr(workload, "kind_times", {}).items():
        # The first pair is the warm-up request.
        print(f"# wall cli_{kind}_s_p50 {statistics.median(kind_times[1:]):.4f} s")
    _print_ratios(loop)
    return loop, metrics


def _print_ratios(loop) -> None:
    print(f"# fail_ratio {loop.failed}/{loop.attempted}")
    flags = loop.report_flags
    print(f"# report_pass_ratio {sum(flags)}/{len(flags)}")


def traced(args, work_dir: Path) -> tuple:
    """Traced set-up, alternating untraced and traced requests, sweep, import probe.

    The wrappers are in place only while spans are recorded, so untraced
    requests run the plain functions. Alternating the two keeps host-speed
    drift out of their difference, the tracing overhead.
    """
    _load_bitrans()
    from spans import ORCHESTRATION, PARTICULAR, SETUP, SOLVES, Tracer, empty_row
    from sweep import SWEEP_M, SWEEP_NX, m_exponents, run_sweep

    importlib.import_module("bitrans.cli")  # loaded before wrapping, so its names are wrapped
    tracer = Tracer()
    with tracer.installed():
        tracer.begin(SETUP)
        workload = make_workload(args.workload, args.seed, args.tiny, work_dir, in_process=True)
        tracer.end()
    Loop(workload).request(timed=False)
    plain, loop = Loop(workload), Loop(workload, tracer)
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        plain.request()
        with tracer.installed():
            loop.request()
    sweep_sizes = ((8, 16), (33, 65)) if args.tiny else (SWEEP_M, SWEEP_NX)
    with tracer.installed():
        points, sweep_failures = run_sweep(tracer, args.seed, *sweep_sizes)
    rows = tracer.per_request()
    request_rows = [rows.get((workload.name, i)) or empty_row() for i in range(len(loop.times))]
    metrics = {name: statistics.median(row[name] for row in request_rows) for name in empty_row()}
    # Operators built once in set-up are paid there, not per request.
    metrics["section_operator.eig_s"] += rows.get(SETUP, empty_row())["section_operator.eig_s"]
    layer_sums = [sum(v for k, v in row.items() if k.endswith("_s") and k != ORCHESTRATION)
                  for row in request_rows]
    metrics["trace.coverage"] = statistics.median(s / t for s, t in zip(layer_sums, loop.times))

    def ratio(numerator: str, denominator: str) -> float:
        den = sum(row.get(denominator, 0) for row in request_rows)
        return sum(row.get(numerator, 0) for row in request_rows) / den if den else 0.0

    metrics["subproblem.particular_useful_ratio"] = ratio(PARTICULAR.hits, PARTICULAR.calls)
    metrics["transmission.repeat_operator_ratio"] = ratio(SOLVES.hits, SOLVES.calls)
    loop.report_flags = plain.report_flags + loop.report_flags
    flags = loop.report_flags
    metrics["transmission.report_pass_ratio"] = sum(flags) / len(flags) if flags else 0.0
    metrics["trace.request_s_p50"] = statistics.median(loop.times)
    metrics["trace.overhead_s"] = metrics["trace.request_s_p50"] - statistics.median(plain.times)
    metrics.update(m_exponents(points))
    metrics["cli.import_s"] = measure_import()
    print(f"# traced requests: {len(loop.times)}, untraced requests: {len(plain.times)}")
    print(f"# sweep points: {len(points)} (m x n_x = {sweep_sizes[0]} x {sweep_sizes[1]})")
    loop.attempted += plain.attempted + len(points)
    loop.failed += plain.failed + sweep_failures
    _print_ratios(loop)
    return loop, metrics


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in output order."""
    from spans import COUNTED, EVALUATE_CALLS, TIMED
    from sweep import SWEPT

    units = {name: "s" for name in TIMED}
    units.update({name: "count" for name in (*COUNTED, EVALUATE_CALLS)})
    units.update({
        "subproblem.particular_useful_ratio": "ratio",
        "transmission.repeat_operator_ratio": "ratio",
        "transmission.report_pass_ratio": "ratio",
        "trace.coverage": "ratio",
        "trace.request_s_p50": "s",
        "trace.overhead_s": "s",
        "cli.import_s": "s",
    })
    units.update({f"{name}.m_exp": "exponent" for name in SWEPT})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the ready time and exit (used by set-up timing)")
    args = parser.parse_args(argv)
    if not (SRC / "bitrans" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bitrans package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(args, work_dir)
            print(json.dumps({"ready": time.time()}))
            return 0
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print("# thread pin: " + " ".join(f"{k}={v}" for k, v in THREAD_PIN.items()))
        if args.trace:
            loop, values = traced(args, work_dir)
            units = per_layer_units()
        else:
            loop, values = end_to_end(args, work_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
