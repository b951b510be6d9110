"""Self-test of the benchmark's own checks and verdicts.

    python3 perfbench/selftest.py

For every workload, one short run with clean outputs must count no failed
op, and runs whose first array output is corrupted (one sample set to NaN,
or the whole output scaled by 1 + 1e-6) must count at least one.  The
comparison verdicts are checked on synthetic result sets.  Exits 0 only
when every case behaves as stated.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import verdict  # noqa: E402
from run import WORKLOADS, child_env  # noqa: E402


def worker(workload, inject):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0", "--inject", inject]
    proc = subprocess.run(cmd, cwd=HERE.parent, env=child_env(), capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {workload} --inject {inject} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    problems = []
    for workload in WORKLOADS:
        for inject in ("none", "nan", "perturb"):
            out = worker(workload, inject)
            ok = (out["failed"] == 0) if inject == "none" else (out["failed"] > 0)
            note = out["failure_notes"][0] if out["failure_notes"] else "-"
            print(f"{workload:<16} inject={inject:<8} failed {out['failed']}/{out['attempted']}"
                  f"  {'ok' if ok else 'WRONG'}  first failure: {note}")
            if not ok:
                problems.append(f"{workload} inject={inject}")

    parent = [10.0 + 0.1 * (s % 3) for s in range(10)]
    cases = (
        ("faster everywhere", [v * 0.8 for v in parent], "better"),
        ("unchanged", list(parent), "within-bound"),
        ("slower by 20 %", [v * 1.2 for v in parent], "worse-beyond-bound"),
    )
    for label, change, expected in cases:
        got = verdict(parent, change, 0.1, lower_is_better=True)
        print(f"verdict {label:<18} {got:<20} {'ok' if got == expected else 'WRONG'}")
        if got != expected:
            problems.append(f"verdict {label}")
    noisy = [10.0 * (1.0 + 0.3 * (s % 2)) for s in range(10)]
    got = verdict(noisy, [v * 0.99 for v in noisy], 0.1, lower_is_better=True)
    print(f"verdict {'noisy parent':<18} {got:<20} {'ok' if got == 'unresolved' else 'WRONG'}")
    if got != "unresolved":
        problems.append("verdict noisy parent")

    print("selftest " + ("FAILED: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    os.chdir(HERE.parent)
    sys.exit(main())
