"""One benchmark process: set up a workload, run it in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``ready`` when set-up (imports, inputs, server start, warm-up) is
done; ``run.py`` times set-up up to that line.  With ``--setup-only`` it
then releases the workload and exits.  Otherwise it runs whole rounds of
the workload's operations, one after the other, until ``--seconds`` have
passed and the tail percentile has at least 10 samples beyond it, checks
every output outside the timed interval, and prints one JSON line with
the latencies, failures and layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from reference import CheckError  # noqa: E402

from quilt import kernels  # noqa: E402

# A run stops after this many times --seconds even if the tail percentile
# still lacks samples, so a slow machine cannot stretch the benchmark's
# total time by more than half.
HARD_LIMIT = 1.5


def closed_loop(workload, seconds: float):
    """Time each operation from call to returned result; check it afterwards."""
    need = -(-1000 // (100 - workload.tail_pct))  # ceil(10 / (1 - pct/100)), exactly
    latencies, labels, errors, rounds = [], [], [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        done = len(latencies)
        for label, op in workload.round:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # counted, reported, and the loop goes on
                failed += 1
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            labels.append(label)
            try:
                workload.check(op, out)
            except CheckError as exc:
                correct = False
                errors.append(f"{label}: {exc}")
        rounds.append((len(latencies) - done, sum(latencies[done:])))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT * seconds or (elapsed >= seconds and len(latencies) >= need):
            break
    return {"latencies": latencies, "labels": labels, "rounds": rounds, "attempted": attempted,
            "failed": failed, "correct": correct, "errors": errors[:20],
            "elapsed_s": elapsed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)
    cls = workloads.load(args.workload)
    extra = {"trace": bool(tracer)} if args.workload == "dispatch" else {}
    workload = cls(args.seed, **extra)
    try:
        workload.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if tracer:
            tracer.reset()
        result = closed_loop(workload, args.seconds)
    finally:
        server = workload.close()
    result["tail_pct"] = workload.tail_pct
    result["backend"] = kernels.active_backend()
    result["numpy"] = numpy.__version__
    result["peak_rss_mb"] = server.get(
        "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        snap = tracer.snapshot()
        if "trace" in server:
            # server spans cover the warm-up job too: scale them to the timed jobs
            jobs = server["trace"]["spans"].get("qasm.parse", (0, 0, 0))[2]
            ops = len(result["latencies"])
            snap = tracing.merge(snap, server["trace"], ops / jobs if jobs else 1.0)
        result["trace"] = snap
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
