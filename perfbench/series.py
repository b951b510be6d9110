"""Run the benchmark over several seeds and workloads; record and summarise.

    python3 perfbench/series.py                          # every workload, seed 1
    python3 perfbench/series.py --seeds 1-10 --out parent.jsonl
    python3 perfbench/series.py --workloads analysis --seeds 3,5,7 --trace 1

Each run is `perfbench/run.py` in its own process, one after another, with
`run_seconds` from BENCHMARK.json.  Every result line is appended to --out
(JSON lines with workload, seed, trace, env and result), which
compare.py reads.  The summary gives, per workload and metric, the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound; a spread under a third of its bound is marked ok.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    env = next((json.loads(ln[5:]) for ln in lines if ln.startswith("env: ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "result": json.loads(lines[-1]), "log": lines[:-1]}


def summarise(records, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    for workload, recs in by_workload.items():
        attempted = sum(r["result"]["attempted"] for r in recs)
        failed = sum(r["result"]["failed"] for r in recs)
        incorrect = sum(not r["result"]["correct"] for r in recs)
        print(f"\n{workload}: {len(recs)} runs, fail_rate {failed / attempted:.3g} "
              f"({failed}/{attempted} ops), {incorrect} runs not correct")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'unit':<11} "
              f"{'spread':>7} {'bound':>6}")
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            mark = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            bound_text = "" if bound is None else f"{bound:.2f}"
            print(f"  {name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {unit:<11} "
                  f"{spread:>7.3f} {bound_text:>6} {mark}")


def main(argv=None):
    spec = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated workload names, or 'all'")
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append result records to this JSON-lines file")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    records = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            rec = run_once(workload, seed, spec["run_seconds"], args.trace)
            records.append(rec)
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps({k: v for k, v in rec.items() if k != "log"}) + "\n")
            if len(parse_seeds(args.seeds)) == 1:
                print("\n".join(rec["log"]))
            else:
                print(f"{workload} seed {seed}: correct={rec['result']['correct']}", flush=True)
    summarise(records, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
