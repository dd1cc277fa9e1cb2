"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --seeds 1-10 --seconds 20 [--workloads decide,rank1]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for each metric the median of the runs and the distance between their
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, for each timing also as plain wall time.  The bounds in BENCHMARK.json were set from these
shares; a full report goes to ``bench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import OUT, WORKLOADS


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, runner, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(os.path.join(OUT, f"result-{workload}-{seed}-trace0.json")) as fh:
                run["wall_metrics"] = json.load(fh)["wall_metrics"]
            runs.append(run)
        report[workload] = runs
        failed = [r["failed"] / r["attempted"] for r in runs]
        print(f"{workload}: attempted {[r['attempted'] for r in runs]}, failed share {sorted(set(failed))}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            line = (f"  {name:18s} median {med:12.5g}  iqr/median {(q3 - q1) / med:7.2%}"
                    f"  min {min(values):.5g}  max {max(values):.5g}")
            if name in runs[0]["wall_metrics"]:
                wq1, _, wq3 = statistics.quantiles([r["wall_metrics"][name]["value"] for r in runs], n=4)
                wmed = statistics.median(r["wall_metrics"][name]["value"] for r in runs)
                line += f"   wall time: median {wmed:.5g}  iqr/median {(wq3 - wq1) / wmed:7.2%}"
            print(line)
    with open(os.path.join(OUT, "spread.json"), "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
