"""Fast self-test of the benchmark's checks, on tiny inputs.

    python3 perfbench/selftest.py

For every workload it builds a tiny round, runs each operation through
quilt, and requires that the workload's check accepts the real output and
rejects each deliberately corrupted copy below.  Exits 0 when every check
behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from reference import CheckError  # noqa: E402


def qaoa_corruptions(op, out):
    params, expected, assignment = out
    flipped = tuple(1 - b if i == 0 else b for i, b in enumerate(assignment.side))
    yield "expected cut off by 1e-6", (params, expected + 1e-6, assignment)
    yield "expected cut above the optimum", (params, expected + 100.0, assignment)
    yield "cut value of another assignment", (
        params, expected, dataclasses.replace(assignment, side=flipped))


def knit_corruptions(op, out):
    report, result = out
    yield "knitted value off by 1e-6", (
        report, dataclasses.replace(result, value=result.value + 1e-6))
    bad_plan = dataclasses.replace(report.adaptive,
                                   total_overhead=report.adaptive.total_overhead * 1.01)
    yield "plan overhead not the gamma product", (
        dataclasses.replace(report, adaptive=bad_plan), result)


def hhl_corruptions(op, out):
    system, result, decomposition = out
    yield "deviation off by 1e-6", (
        system, dataclasses.replace(result, deviation=result.deviation + 1e-6), decomposition)
    if op[3]:
        yield "success probability off by 1%", (
            system, dataclasses.replace(result, success_prob=result.success_prob * 1.01),
            decomposition)
    terms = [(c * (1.0 + 1e-9 * (i == 0)), p.ops) for i, (c, p) in enumerate(decomposition.terms)]
    yield "Pauli coefficient off", (system, result, type(decomposition)(terms))


def dispatch_corruptions(job, out):
    if "reference" in job:
        yield "expectation off by 1e-6", out + 1e-6
        return
    counts = dict(out)
    yield "one shot missing", {**counts, next(iter(counts)): counts[next(iter(counts))] - 1}
    width = len(next(iter(counts)))
    zero = "1" * width  # the idle qubits stay |0>, so this has probability 0
    key = next(iter(counts))
    moved = {k: v for k, v in counts.items() if k != key}
    moved[zero] = moved.get(zero, 0) + counts[key]
    yield "shots on a zero-probability bitstring", moved


def sched_corruptions(blocks, out):
    monolithic, split = out
    placements = dict(split.placements)
    by_resource = {}
    for bid, p in sorted(placements.items(), key=lambda kv: kv[1].start):
        by_resource.setdefault(p.resource, []).append(bid)
    first, second = next(ids for ids in by_resource.values() if len(ids) > 1)[:2]
    p = placements[second]
    shift = p.start - placements[first].start
    placements[second] = dataclasses.replace(p, start=p.start - shift, end=p.end - shift)
    yield "overlapping placement", (monolithic, dataclasses.replace(split, placements=placements))
    chained = next(b for b in blocks if b.deps)
    early = dict(split.placements)
    dep_start = early[chained.deps[0]].start
    q = early[chained.block_id]
    early[chained.block_id] = dataclasses.replace(
        q, start=dep_start, end=dep_start + (q.end - q.start))
    yield "block before its dependency", (monolithic, dataclasses.replace(split, placements=early))
    yield "split policy reserving idle QPU time", (monolithic, dataclasses.replace(
        split, metrics=dataclasses.replace(split.metrics,
                                           qpu_reserved=split.metrics.qpu_reserved + 1)))


CORRUPTIONS = {
    "qaoa": qaoa_corruptions,
    "knit": knit_corruptions,
    "hhl": hhl_corruptions,
    "dispatch": dispatch_corruptions,
    "sched": sched_corruptions,
}


def main() -> int:
    problems = 0
    for name in workloads.NAMES:
        workload = workloads.load(name)(0, tiny=True)
        try:
            workload.warm_up()
            rejected = 0
            for label, op in workload.round:
                out = workload.run(op)
                workload.check(op, out)
                for what, bad in CORRUPTIONS[name](op, out):
                    try:
                        workload.check(op, bad)
                    except CheckError:
                        rejected += 1
                    else:
                        problems += 1
                        print(f"FAIL {name}/{label}: check accepted {what}")
            print(f"ok   {name}: {len(workload.round)} outputs accepted, "
                  f"{rejected} corrupted outputs rejected")
        finally:
            workload.close()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
