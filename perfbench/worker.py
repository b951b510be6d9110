"""One run of one benchmark workload, in a fresh interpreter.

Started by run.py; prints one JSON object on its last stdout line.  The
clock starts before `import sweepfd`, so the set-up time covers the
import plus building the schemes and initial fields.  The benchmark's own
reference computations (numpy.fft exact flows) run after set-up and are
excluded from it.  Every op is timed alone; its correctness check runs
after the timer stops, with tracing paused.

Usage (normally via run.py):
    python3 perfbench/worker.py --workload transport-n800 --seed 1 --seconds 25 --trace 0
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_sweepfd():
    """Import sweepfd from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sweepfd
    if src.resolve() not in Path(sweepfd.__file__).resolve().parents:
        raise SystemExit(f"sweepfd was imported from {sweepfd.__file__}, not from {src}")
    return sweepfd


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its timings")
    parser.add_argument("--inject", choices=("none", "nan", "perturb"), default="none",
                        help="corrupt the first array output (self-test of the checks)")
    args = parser.parse_args(argv)

    sf = import_sweepfd()
    t_import = time.perf_counter()

    from workloads import WORKLOADS, Runner  # the benchmark's own code: not set-up
    from tracing import Tracer

    # advdiff 'fr' warns on every construction; the warning is documented behaviour
    warnings.filterwarnings("ignore", message="negative substeps", category=RuntimeWarning)
    t_build = time.perf_counter()
    workload = WORKLOADS[args.workload](sf, args.seed)
    t_built = time.perf_counter()
    setup = {"import_s": t_import - T_START, "build_s": t_built - t_build}
    setup["setup_s"] = setup["import_s"] + setup["build_s"]
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    workload.prepare()
    try:
        runner = Runner()
        workload.warmup(runner)
        runner.reset_stats()
        runner.inject = args.inject

        result = {"setup": setup}
        if args.trace:
            # untraced rounds for the overhead baseline, then a fixed number of
            # traced rounds so that every per-layer count repeats exactly
            untraced = runner.measure(workload, seconds=args.seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                traced = runner.measure(workload, rounds=workload.TRACE_ROUNDS)
            finally:
                tracer.uninstall()
            result["untraced_wall_s"] = untraced
            result["traced_wall_s"] = traced
            result["trace_rounds"] = workload.TRACE_ROUNDS
            result["traced_op_s"] = sum(runner.round_ns[-workload.TRACE_ROUNDS:]) / 1e9
            result["trace"] = tracer_summary(tracer, runner)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                               {"workload": args.workload, "seed": args.seed})
        else:
            result["wall_s"] = runner.measure(workload, seconds=args.seconds)
    finally:
        workload.close()
    result.update(runner.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


def tracer_summary(tracer, runner):
    """Per-layer aggregates of the traced phase, plus the structural sweep check."""
    sweeps = tracer.calls["sweep"]
    steps = tracer.counters["composition.steps"]
    summary = {f"{layer}.self_ms": ns / 1e6 for layer, ns in tracer.self_ns.items()}
    summary.update({f"{layer}.incl_ms": ns / 1e6 for layer, ns in tracer.incl_ns.items()})
    summary.update({f"{layer}.calls": n for layer, n in tracer.calls.items()})
    summary.update(tracer.counters)
    summary["cli.bytes_written"] = runner.cli_bytes_traced
    summary["composition.sweeps_per_step"] = sweeps / steps if steps else 0.0
    sweep_s = tracer.self_ns["sweep"] / 1e9
    summary["sweep.us_per_call"] = 1e6 * sweep_s / sweeps if sweeps else 0.0
    summary["sweep.msamples_per_s"] = tracer.counters["sweep.samples"] / sweep_s / 1e6 if sweep_s else 0.0
    # computed, not measured: one read and one write of the field per sweep
    summary["sweep.bytes_computed"] = 16 * tracer.counters["sweep.samples"]
    summary["predicted_sweeps"] = runner.traced_predicted_sweeps
    summary["spans_dropped"] = tracer.dropped_spans
    return summary


def versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


if __name__ == "__main__":
    sys.exit(main())
