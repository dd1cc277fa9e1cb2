"""One workload in one fresh process: set up, then run whole rounds.

Run by ``run.py``; prints one JSON object on its last output line.  The
process is a single-threaded closed loop: each instance starts when the
previous one has finished, and nothing starts a thread or a subprocess.

    python3 bench/worker.py --workload W --seed N --t0 T
        (--seconds S | --rounds R | --setup-only) [--trace FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so the set-up time covers interpreter start and ``import itu``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from pace import REFERENCE_S, Pace

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--rounds", type=int)
    mode.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    # the probes time the host from here on; the traced run has none, so
    # its spans hold only the program's time
    pace = None if args.trace else Pace()
    if pace:
        pace.start()

    sys.path[:0] = [SRC, BENCH]
    import itu

    if os.path.dirname(os.path.abspath(itu.__file__)) != os.path.join(SRC, "itu"):
        print(f"error: itu imported from {itu.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], pace)
    finally:
        if pace:
            pace.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)


def run_instance(kind: str, check, tracer=None, pace=None) -> tuple[float, str | None]:
    """Time one instance from input to checked verdict, less the probes
    taken meanwhile; a wrong verdict, a missing witness and an exception
    all make it a failed instance."""
    if tracer:
        tracer.begin_instance(kind)
    failure = None
    probing = pace.spent if pace else 0.0
    t = time.perf_counter()
    try:
        check()
    except Exception as e:  # every fault of an instance is counted, none stops the run
        failure = f"{kind}: {type(e).__name__}: {e}"[:300]
    elapsed = time.perf_counter() - t
    if pace:
        elapsed -= pace.spent - probing
    if tracer:
        tracer.end_instance()
    return elapsed, failure


def run(args, workload_cls, pace) -> int:
    wl = workload_cls(args.seed, args.workdir)
    batch = wl.make_round(0)
    setup_s = time.monotonic() - args.t0
    setup_factor = 1.0
    if pace:
        setup_s -= pace.spent
        # the probes during set-up and one right after it
        pace.take()
        setup_factor = REFERENCE_S / statistics.fmean(pace.probes)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    starts: list[float] = []
    times: list[float] = []
    kinds: list[str] = []
    failures: list[str] = []
    wall = 0.0  # the instances' own times; probing and round generation are left out
    budget_wall = 0.0  # the part of it from rounds that count toward --seconds
    rounds = 0
    peak_rss_kb = None
    while True:
        round_s = 0.0
        for kind, check in batch:
            starts.append(time.perf_counter())
            elapsed, failure = run_instance(kind, check, tracer, pace)
            times.append(elapsed)
            kinds.append(kind)
            round_s += elapsed
            if failure:
                failures.append(f"round {rounds} {failure}")
        wall += round_s
        if rounds >= wl.lead_rounds:
            budget_wall += round_s
        rounds += 1
        if rounds == wl.rss_rounds:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.rounds is not None and rounds >= args.rounds:
            break
        if args.seconds is not None and budget_wall >= args.seconds:
            break
        # generating the next round is not part of the timed phase
        batch = wl.make_round(rounds)
    if peak_rss_kb is None:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pace:
        pace.take()  # so the last instances have a probe after them too
        pace.stop()

    result = {
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "times": times,
        "paced": [t * pace.factor(s, s + t) for s, t in zip(starts, times)] if pace else times,
        "probes": pace.probes if pace else [],
        "kinds": kinds,
        "failures": failures,
        "wall_s": wall,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_kb / 1024,
        "tail_percentile": wl.tail_percentile,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write(args.trace, result["layers"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
