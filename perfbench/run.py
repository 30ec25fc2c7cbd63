"""quilt's benchmark: one closed-loop workload per call, end to end or traced.

    python3 perfbench/run.py --workload qaoa|knit|hhl|dispatch|sched \\
        --seed N --seconds S --trace 0|1

Run from the root of a quilt checkout; the program is imported from
``src/``.  With ``--trace 0`` the set-up is made three times in fresh
processes (``setup_s`` is their median) and the last of them runs the
timed loop.  With ``--trace 1`` one process runs the same loop with
quilt's public functions wrapped by ``tracer.py`` and reports the
per-layer figures.  The last line of standard output is the result JSON;
the full record, with backend, CPU count, Python version and git SHA, is
written to ``perfbench/results/BENCH_<workload>[.trace].json``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool):
    """Run one worker; return (set-up seconds, parsed result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker exited with code {code} before finishing")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def percentile(sorted_values, pct: int) -> float:
    """Nearest-rank percentile: at most (100 - pct)% of the samples lie above."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * pct / 100)) - 1]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def end_to_end(result: dict, setups: list[float]) -> dict:
    lat = sorted(result["latencies"])
    return {
        "ops_per_s": statistics.median(n / t for n, t in result["rounds"] if t > 0),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": percentile(lat, result["tail_pct"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def class_summary(result: dict) -> dict:
    by_label = {}
    for label, t in zip(result["labels"], result["latencies"]):
        by_label.setdefault(label, []).append(t)
    n = len(result["latencies"])
    return {label: {"share": len(ts) / n, "median_s": statistics.median(ts),
                    "min_s": min(ts), "max_s": max(ts)} for label, ts in by_label.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "quilt" / "__init__.py").is_file():
        print(f"perfbench: no quilt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(spawn(args, deadline, setup_only=True)[0])
        setup_s, result = spawn(args, deadline, setup_only=False)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    if not result["latencies"]:
        print("perfbench: every operation failed", file=sys.stderr)
        return 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    timing = end_to_end(result, setups)
    try:
        if args.trace:
            import tracer

            layers = tracer.layer_metrics(result["trace"], len(result["latencies"]),
                                          statistics.fmean(result["latencies"]))
            metrics = with_units(layers, declared["per_layer"])
        else:
            metrics = with_units(timing, declared["end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "backend": result["backend"],
        "numpy": result["numpy"], "python": platform.python_version(),
        "nproc": os.cpu_count(), "machine": platform.machine(), "git_sha": git_sha(),
        "attempted": result["attempted"], "failed": result["failed"],
        "correct": result["correct"], "errors": result["errors"],
        "samples": len(result["latencies"]), "tail_pct": result["tail_pct"],
        "elapsed_s": result["elapsed_s"], "setup_runs_s": setups,
        "classes": class_summary(result), "end_to_end": timing, "metrics": metrics,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (out_dir / f"BENCH_{args.workload}{suffix}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
