"""sweepfd benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload transport-n800 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds src/sweepfd.  Every run starts
fresh interpreters (perfbench/worker.py), one at a time, with BLAS
threads forced to 1: SETUP_RUNS - 1 of them only import sweepfd and build
the workload, so that `setup_s` is a median, and the last one also runs
the timed ops.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run.  Human-readable lines, with units, sample counts and the
environment record, come before it.  The exit code is 0 only when a
result was printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("transport-n800", "diffusion-n1e6", "analysis")
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "coefficients.calls": "count", "coefficients.self_ms": "ms",
    "composition.steps": "count", "composition.self_ms": "ms",
    "composition.sweeps_per_step": "sweeps/step",
    "sweep.calls": "count", "sweep.self_ms": "ms", "sweep.samples": "count",
    "sweep.msamples_per_s": "Msamples/s", "sweep.us_per_call": "us",
    "sweep.bytes_computed": "B",
    "grid.copies": "count", "grid.bytes_copied": "B", "grid.self_ms": "ms",
    "spectral.calls": "count", "spectral.thetas": "count", "spectral.self_ms": "ms",
    "spectral.incl_ms": "ms",
    "oracle.calls": "count", "oracle.samples": "count", "oracle.self_ms": "ms",
    "oracle.incl_ms": "ms",
    "cli.calls": "count", "cli.bytes_written": "B", "cli.self_ms": "ms",
    "setup.import_ms": "ms", "setup.build_ms": "ms", "trace.overhead_pct": "%",
}
NOTES = (
    "CPUs are not pinned and the clock frequency is not fixed: the host is shared",
    "bytes are computed from array sizes, not measured",
    "no bandwidth or roofline ratio is reported: no array here can be 4x the "
    "last-level cache (300 MiB) within 8 GB of shared RAM",
)


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)   # the worker imports sweepfd from ./src only
    return env


def run_worker(args, extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cache_sizes():
    """L2 and L3 sizes of cpu0 as the kernel reports them, or 'unknown'."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if level in ("2", "3") and kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"L2": sizes.get("L2", "unknown"), "L3": sizes.get("L3", "unknown")}


def environment(main):
    return dict(main["versions"], nproc=os.cpu_count(),
                usable_cpus=len(os.sched_getaffinity(0)), caches_cpu0=cache_sizes(),
                processes="one worker at a time, one caller, closed loop",
                notes=list(NOTES))


def main(argv=None):
    parser = argparse.ArgumentParser(description="run one sweepfd benchmark workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sweepfd" / "__init__.py").is_file():
        print(f"error: no sweepfd sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 1

    setups = [run_worker(args, ["--setup-only"])["setup"] for _ in range(SETUP_RUNS - 1)]
    main_run = run_worker(args, [])
    setups.append(main_run["setup"])

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env: " + json.dumps(environment(main_run)))
    attempted, failed = main_run["attempted"], main_run["failed"]
    for note in main_run["failure_notes"]:
        print(f"FAILED op: {note}")
    correct = failed == 0

    if args.trace:
        trace = main_run["trace"]
        if trace["sweep.calls"] != trace["predicted_sweeps"]:
            print(f"FAILED trace: counted {trace['sweep.calls']} sweeps, the scheme structure "
                  f"predicts {trace['predicted_sweeps']}")
            correct = False
        values = {name: trace[name] for name in PER_LAYER_UNITS if name in trace}
        values["setup.import_ms"] = 1e3 * statistics.median(s["import_s"] for s in setups)
        values["setup.build_ms"] = 1e3 * statistics.median(s["build_s"] for s in setups)
        values["trace.overhead_pct"] = 100.0 * (main_run["traced_wall_s"]
                                                / main_run["untraced_wall_s"] - 1.0)
        units = PER_LAYER_UNITS
        traced_ms = 1e3 * main_run["traced_op_s"]
        for layer in LAYERS:
            print(f"{layer:<13} self {trace[layer + '.self_ms']:>10.1f} ms  inclusive "
                  f"{trace[layer + '.incl_ms']:>10.1f} ms "
                  f"({100.0 * trace[layer + '.incl_ms'] / traced_ms:5.1f} % of traced op time)")
        print(f"traced {main_run['trace_rounds']} round(s); untraced wall_s "
              f"{main_run['untraced_wall_s']:.6g} s, traced {main_run['traced_wall_s']:.6g} s; "
              f"{trace['spans_dropped']} spans beyond the in-memory cap were aggregated only")
    else:
        values = {"wall_s": main_run["wall_s"], "op_p50_ms": main_run["op_p50_ms"],
                  "op_p90_ms": main_run["op_p90_ms"],
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": main_run["peak_rss_mb"]}
        units = END_TO_END_UNITS
        counts = {"wall_s": f"one round from per-op trimmed means over {main_run['rounds']} rounds",
                  "op_p50_ms": f"{main_run['op_samples']} ops",
                  "op_p90_ms": f"{main_run['op_samples']} ops",
                  "setup_s": f"median of {len(setups)} fresh interpreters",
                  "peak_rss_mb": "ru_maxrss of the timed interpreter"}
        for name, value in values.items():
            print(f"{name:<12} {value:>14.6g} {units[name]:<3} ({counts[name]})")
        print(f"{'fail_rate':<12} {failed / attempted:>14.6g} 1   ({failed}/{attempted} ops)")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
