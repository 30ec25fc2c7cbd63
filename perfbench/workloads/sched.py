"""``sched``: one ``schedule(...)`` under both policies per operation.

No simulator is involved: the time is the pure-Python event loops of
``dispatch/sched.py``.  Inputs are seeded hybrid workloads of
classical-quantum-classical-quantum jobs with random phase durations.  The
fixed job shape keeps the scheduler's cost, which grows with the number of
pending blocks scanned per event, the same from seed to seed; jobs of 2-7
phases moved it by a quarter.  A round is three workloads of 300 blocks
and two of 600, so the median falls in the upper part of the 300-block
operations and the 90th-percentile tail in the upper part of the 600-block
ones.
"""

from __future__ import annotations

from reference import require
from workloads import rng_for

from quilt.dispatch import sched

# (label, blocks, ops per round)
CLASSES = (("b300", 300, 3), ("b600", 600, 2))
TINY = (("b12", 12, 1), ("b32", 32, 1))
PHASES = 4
N_CLASSICAL = 2
N_QPU = 1
POLICIES = ("monolithic", "split")


def random_jobs(rng, n_blocks: int):
    return [[("c", int(rng.integers(5, 41))) if j % 2 == 0 else ("q", int(rng.integers(1, 11)))
             for j in range(PHASES)]
            for _ in range(n_blocks // PHASES)]


def check_schedule(blocks, result, n_classical: int, n_qpu: int) -> None:
    """The benchmark's own schedule checker."""
    pools = {"classical": {f"cpu{i}" for i in range(n_classical)},
             "quantum": {f"qpu{i}" for i in range(n_qpu)}}
    placements = result.placements
    require(len(placements) == len(blocks)
            and set(placements) == {b.block_id for b in blocks},
            "not every block is placed exactly once")
    spans = {}
    for b in blocks:
        p = placements[b.block_id]
        require(p.resource in pools[b.kind], f"{b.block_id} ({b.kind}) on {p.resource}")
        require(p.end - p.start == b.duration, f"{b.block_id} placed for the wrong duration")
        require(p.start >= 0, f"{b.block_id} starts before time 0")
        for d in b.deps:
            require(placements[d].end <= p.start, f"{b.block_id} starts before {d} ends")
        spans.setdefault(p.resource, []).append((p.start, p.end))
    reserved = {}
    for res, start, end in result.reservations:
        require(res in pools["quantum"] | pools["classical"], f"reservation on {res}")
        reserved.setdefault(res, []).append((start, end))
    for table in (spans, reserved):
        for res, items in table.items():
            items.sort()
            for (_, e1), (s2, _) in zip(items, items[1:]):
                require(s2 >= e1, f"overlap on {res}")
    busy = sum(b.duration for b in blocks if b.kind == "quantum")
    metrics = result.metrics
    require(metrics.qpu_busy == busy, f"qpu_busy {metrics.qpu_busy}, blocks give {busy}")
    qpu_reserved = sum(e - s for r, s, e in result.reservations if r in pools["quantum"])
    require(metrics.qpu_reserved == qpu_reserved, "qpu_reserved differs from reservations")
    if result.policy == "split":
        require(metrics.qpu_reserved == busy, "split policy reserved idle QPU time")
    require(metrics.makespan == max(p.end for p in placements.values()),
            "makespan differs from the last placement")


class Workload:
    tail_pct = 90

    def __init__(self, seed: int, tiny: bool = False):
        rng = rng_for(seed, "sched")
        self.round = [
            (label, sched.make_workload(random_jobs(rng, n)))
            for label, n, count in (TINY if tiny else CLASSES)
            for _ in range(count)
        ]

    def run(self, blocks):
        return [sched.schedule(blocks, N_CLASSICAL, N_QPU, policy=p) for p in POLICIES]

    def warm_up(self):
        blocks = sched.make_workload([[("c", 3), ("q", 1)], [("c", 2), ("q", 2), ("c", 1)]])
        self.check(blocks, self.run(blocks))

    def check(self, blocks, out):
        for policy, result in zip(POLICIES, out):
            require(result.policy == policy, f"asked for {policy}, got {result.policy}")
            check_schedule(blocks, result, N_CLASSICAL, N_QPU)

    def close(self):
        return {}
