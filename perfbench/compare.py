"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files are JSON lines written by series.py (--trace 0 runs).  For each
workload and end-to-end metric the report gives each side's median and
quartiles and a verdict:

  better               the change wins at least 9/10 of the run pairs (the
                       i-th lowest seed of each side; use the same seeds on
                       both sides; ties count for neither) and the medians
                       differ by more than the parent's quartile spread; or,
                       where the spread is wider than the bound, every
                       change run beats every parent run
  unresolved           the parent's spread, (q3 - q1) / median, is wider
                       than the metric's bound, so no claim either way
  worse-beyond-bound   the change's median is worse than the parent's by
                       more than the bound fixed in BENCHMARK.json
  within-bound         none of the above

Bounds are shares of the parent's median.  Pair runs by seed and alternate
which side runs first when collecting them.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("trace", 0) == 0:
                runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, bound, lower_is_better):
    """Verdict for one metric; parent and change are lists in pairing order."""
    sign = 1.0 if lower_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    gain = sign * (p_med - c_med)          # > 0 when the change is better
    pairs = list(zip(parent, change))
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    if wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    if spread > bound * abs(p_med):
        beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
        return "better" if beats_all else "unresolved"
    if -gain > bound * abs(p_med):
        return "worse-beyond-bound"
    return "within-bound"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'delta':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            print(f"{workload:<16} (missing from one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][s]["metrics"][name]["value"] for s in sorted(parent[workload])]
            c = [change[workload][s]["metrics"][name]["value"] for s in sorted(change[workload])]
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / abs(pq[1])
            text = verdict(p, c, metric["bound"], metric["better"] == "lower")
            side = "{:.6g} [{:.6g}, {:.6g}] {}"
            print(f"{workload:<16} {name:<12} "
                  f"{side.format(pq[1], pq[0], pq[2], metric['unit']):<36} "
                  f"{side.format(cq[1], cq[0], cq[2], metric['unit']):<36} "
                  f"{delta:>+8.1%} {metric['bound']:>6.2f}  {text}")
        for label, runs in (("parent", parent[workload]), ("change", change[workload])):
            failed = sum(r["failed"] for r in runs.values())
            attempted = sum(r["attempted"] for r in runs.values())
            bad = sum(not r["correct"] for r in runs.values())
            print(f"{workload:<16} {label} fail_rate {failed / attempted:.3g} "
                  f"({failed}/{attempted} ops, {len(runs)} runs, {bad} not correct)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
