"""The benchmark: one workload per call, each in fresh worker processes.

    python3 bench/run.py --workload {decide,matching,lower-bound,rank1} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it runs the workload untraced for S seconds of timed
work and reports the end-to-end metrics, each timing at the reference
pace of ``pace.py`` (the plain wall times are printed beside them); the
set-up time is the median of SETUP_SAMPLES fresh processes.  With
``--trace 1`` it runs the workload untraced for S seconds, then again
traced over the same rounds, and reports the per-layer metrics with the
tracing overhead.  The last line of standard output is one JSON object; a
copy of it and of the per-instance times goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
WORK = os.path.join(BENCH, "work")
WORKLOADS = ("decide", "matching", "lower-bound", "rank1")
SETUP_SAMPLES = 9
RUN_LIMIT_S = 175  # the whole command, all of its workers together
STARTED = time.monotonic()


class WorkerError(RuntimeError):
    pass


def worker(workload: str, seed: int, *mode: str) -> dict:
    """Run one worker process to its end and return its JSON result."""
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, *mode]
    # a fixed string hash makes dict and set layouts, and so their speed,
    # the same in every run of a seed
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True, env=env,
                          timeout=max(1.0, RUN_LIMIT_S - (t0 - STARTED)))
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(mode)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def latency_metrics(times: list[float], wall_s: float, tail_percentile: int) -> dict:
    times = sorted(times)
    return {
        "instance_p50_ms": {"value": statistics.median(times) * 1000, "unit": "ms"},
        "instance_tail_ms": {"value": percentile(times, tail_percentile) * 1000, "unit": "ms"},
        "instances_per_s": {"value": len(times) / wall_s, "unit": "1/s"},
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    """The metrics at the reference pace (see pace.py), and the same ones
    as plain wall time."""
    setups = [worker(workload, seed, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    res = worker(workload, seed, "--seconds", str(seconds))
    setups.append(res)
    setup_paced = [s["setup_s"] * s["setup_factor"] for s in setups]
    metrics = {
        "setup_s": {"value": statistics.median(setup_paced), "unit": "s"},
        **latency_metrics(res["paced"], sum(res["paced"]), res["tail_percentile"]),
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    wall = {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        **latency_metrics(res["times"], res["wall_s"], res["tail_percentile"]),
    }
    return res, metrics, wall


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    plain = worker(workload, seed, "--seconds", str(seconds))
    trace_file = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    res = worker(workload, seed, "--rounds", str(plain["rounds"]), "--trace", trace_file)
    layers = res.pop("layers")
    layers["trace.overhead_s"] = {"value": res["wall_s"] - plain["wall_s"], "unit": "s"}
    return res, layers, {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    try:
        res, metrics, wall = measure(args.workload, args.seed, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for f in res["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    summary = {
        "correct": not res["failures"],
        "attempted": len(res["times"]),
        "failed": len(res["failures"]),
        "metrics": metrics,
    }
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump({**summary, "wall_metrics": wall, "rounds": res["rounds"], "times": res["times"],
                   "paced": res.get("paced"), "probes": res.get("probes"), "kinds": res["kinds"],
                   "failures": res["failures"]}, fh)
    for name, m in metrics.items():
        plain = f"  (wall time: {wall[name]['value']:.6g})" if name in wall else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{plain}")
    print(f"{args.workload} attempted={summary['attempted']} failed={summary['failed']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
