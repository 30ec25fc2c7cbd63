"""Discrete-event scheduler simulator for hybrid classical/quantum jobs.

A job is a chain of phases, each classical or quantum with an integer-tick
duration.  Two policies are compared:

* ``monolithic``: a job reserves one node of every kind it uses (classical
  and/or QPU) for its whole span; phases run sequentially on the reserved
  nodes, so a QPU sits reserved-idle through classical phases.
* ``split``: each phase is its own block tied to its predecessor by a
  dependency; a resource is held only for the block's own duration.

Both policies share one event-driven list scheduler over *units*: a unit
is a list of blocks run back to back while it holds one node of every kind
it uses.  Under ``split`` a unit is one block; under ``monolithic`` it is a
whole job.  At every event the ready units are started in FIFO submission
order on free resources.  Metrics are computed from the reservation
timeline and are exactly recomputable from the returned placements.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

_KINDS = {"classical": "classical", "c": "classical", "quantum": "quantum", "q": "quantum"}
_ID_RE = re.compile(r"^J_(\d+)_(\d+)$")


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class JobBlock:
    """One phase of a job: ``J_<job>_<order>`` with explicit dependencies."""

    block_id: str
    job: int
    order: int
    kind: str
    duration: int
    deps: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("classical", "quantum"):
            raise ScheduleError(f"unknown block kind {self.kind!r}")
        d = self.duration
        integral = isinstance(d, numbers.Integral) and not isinstance(d, bool)
        if not (integral or (isinstance(d, float) and d.is_integer())):
            raise ScheduleError(f"block duration {d!r} is not an integer tick count")
        if d < 1:
            raise ScheduleError("block duration must be a positive tick count")
        object.__setattr__(self, "duration", int(d))
        if _ID_RE.match(self.block_id) is None:
            raise ScheduleError(f"block id {self.block_id!r} is not J_<i>_<j>")


def split_job(phases: Sequence[tuple[str, int]], job_index: int = 1) -> list[JobBlock]:
    """One block per phase, chained by dependencies, ids ``J_i_j`` (j from 1)."""
    if not phases:
        raise ScheduleError("job needs at least one phase")
    blocks = []
    for j, (kind, duration) in enumerate(phases, start=1):
        kind_norm = _KINDS.get(str(kind).lower())
        if kind_norm is None:
            raise ScheduleError(f"unknown phase kind {kind!r}")
        deps = (f"J_{job_index}_{j - 1}",) if j > 1 else ()
        blocks.append(JobBlock(f"J_{job_index}_{j}", job_index, j, kind_norm, duration, deps))
    return blocks


def make_workload(jobs: Iterable[Sequence[tuple[str, int]]]) -> list[JobBlock]:
    """Blocks for a list of jobs, numbered i = 1..k."""
    blocks: list[JobBlock] = []
    for i, phases in enumerate(jobs, start=1):
        blocks.extend(split_job(phases, job_index=i))
    return blocks


def load_workload(path) -> list[JobBlock]:
    """Workload JSON: {"jobs": [{"phases": [["classical", 10], ...]}, ...]}."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScheduleError(f"cannot read workload {path}: {exc}")
    try:
        jobs = [
            [(kind, dur) for kind, dur in job["phases"]]
            for job in data["jobs"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"bad workload file {path}: {exc}")
    return make_workload(jobs)


@dataclass(frozen=True)
class Placement:
    resource: str
    start: int
    end: int


@dataclass(frozen=True)
class ScheduleMetrics:
    qpu_busy: int
    qpu_reserved: int
    qpu_idle_fraction: float
    makespan: int

    @property
    def qpu_reserved_idle(self) -> int:
        return self.qpu_reserved - self.qpu_busy


@dataclass(frozen=True)
class Schedule:
    policy: str
    placements: dict[str, Placement]
    reservations: tuple[tuple[str, int, int], ...]
    metrics: ScheduleMetrics


def _check_dag(blocks: Sequence[JobBlock]) -> dict[str, JobBlock]:
    by_id = {}
    for b in blocks:
        if b.block_id in by_id:
            raise ScheduleError(f"duplicate block id {b.block_id}")
        by_id[b.block_id] = b
    for b in blocks:
        for d in b.deps:
            if d not in by_id:
                raise ScheduleError(f"{b.block_id} depends on unknown block {d}")
    # Kahn's algorithm for cycle detection
    indeg = {b.block_id: len(b.deps) for b in blocks}
    children: dict[str, list[str]] = {b.block_id: [] for b in blocks}
    for b in blocks:
        for d in b.deps:
            children[d].append(b.block_id)
    queue = [bid for bid, k in indeg.items() if k == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for child in children[node]:
            indeg[child] -= 1
            if indeg[child] == 0:
                queue.append(child)
    if seen != len(blocks):
        raise ScheduleError("dependency cycle detected")
    return by_id


def _schedule(units: list[list[JobBlock]], n_classical: int, n_qpu: int, reserve_all: bool):
    """List-schedule units, each holding one node of every kind it uses for its span.

    A unit's blocks run back to back.  Ready units wait in one FIFO heap per
    kind set; when a queue's head cannot start, nothing behind it can until
    a release, so starting the lowest startable head at each event is the
    same as scanning every ready unit in submission order.  Reservations
    are QPU spans only, unless ``reserve_all``.
    """
    unit_of = {b.block_id: u for u, unit in enumerate(units) for b in unit}
    kinds = [tuple(sorted({b.kind for b in unit})) for unit in units]
    waiting = []
    children: list[list[int]] = [[] for _ in units]
    for u, unit in enumerate(units):
        deps = {unit_of[d] for b in unit for d in b.deps} - {u}
        waiting.append(len(deps))
        for d in deps:
            children[d].append(u)
    free = {
        "classical": [f"cpu{i}" for i in range(n_classical)],
        "quantum": [f"qpu{i}" for i in range(n_qpu)],
    }
    for names in free.values():
        heapq.heapify(names)  # string order: cpu10 comes before cpu2
    ready: dict[tuple[str, ...], list[int]] = {ks: [] for ks in set(kinds)}
    for u in range(len(units)):
        if not waiting[u]:
            heapq.heappush(ready[kinds[u]], u)
    placements: dict[str, Placement] = {}
    reservations: list[tuple[str, int, int]] = []
    running: list[tuple[int, int, dict[str, str]]] = []  # (end, unit, held)
    time = 0
    while True:
        while True:
            heads = [q[0] for ks, q in ready.items() if q and all(free[k] for k in ks)]
            if not heads:
                break
            u = min(heads)
            heapq.heappop(ready[kinds[u]])
            held = {k: heapq.heappop(free[k]) for k in kinds[u]}
            t = time
            for b in units[u]:
                placements[b.block_id] = Placement(held[b.kind], t, t + b.duration)
                t += b.duration
            for k, res in held.items():
                if reserve_all or k == "quantum":
                    reservations.append((res, time, t))
            heapq.heappush(running, (t, u, held))
        if not running:
            break
        time = running[0][0]
        while running and running[0][0] == time:
            _, u, held = heapq.heappop(running)
            for k, res in held.items():
                heapq.heappush(free[k], res)
            for c in children[u]:
                waiting[c] -= 1
                if not waiting[c]:
                    heapq.heappush(ready[kinds[c]], c)
    if any(waiting):  # only a dependency cycle between units leaves one waiting
        raise ScheduleError("deadlock: jobs pending but nothing running")
    return placements, tuple(reservations)


def schedule(
    blocks: Sequence[JobBlock],
    n_classical: int = 1,
    n_qpu: int = 1,
    policy: str = "split",
) -> Schedule:
    """List-schedule the workload (earliest start, FIFO tie-break)."""
    if n_classical < 1 or n_qpu < 1:
        raise ScheduleError("need at least one resource of each kind")
    _check_dag(blocks)
    if policy == "split":
        units = [[b] for b in blocks]
    elif policy == "monolithic":
        ordered = sorted(blocks, key=lambda b: (b.job, b.order))
        units = [list(job) for _, job in itertools.groupby(ordered, key=lambda b: b.job)]
    else:
        raise ScheduleError(f"unknown policy {policy!r}")
    placements, reservations = _schedule(units, n_classical, n_qpu, policy == "monolithic")
    busy = sum(b.duration for b in blocks if b.kind == "quantum")
    reserved = sum(end - start for res, start, end in reservations if res.startswith("qpu"))
    idle_fraction = 0.0 if reserved == 0 else (reserved - busy) / reserved
    makespan = max((p.end for p in placements.values()), default=0)
    return Schedule(
        policy,
        placements,
        reservations,
        ScheduleMetrics(busy, reserved, idle_fraction, makespan),
    )


def verify_schedule(blocks: Sequence[JobBlock], sched: Schedule) -> None:
    """Recompute overlap and dependency constraints; raise on any violation."""
    by_id = _check_dag(blocks)
    if set(sched.placements) != set(by_id):
        raise ScheduleError("schedule does not place every block exactly once")
    by_resource: dict[str, list[tuple[int, int]]] = {}
    for bid, p in sched.placements.items():
        b = by_id[bid]
        if p.end - p.start != b.duration:
            raise ScheduleError(f"{bid} placed with wrong duration")
        expected_prefix = "qpu" if b.kind == "quantum" else "cpu"
        if not p.resource.startswith(expected_prefix):
            raise ScheduleError(f"{bid} placed on a {p.resource} resource")
        for d in b.deps:
            if sched.placements[d].end > p.start:
                raise ScheduleError(f"{bid} starts before its dependency {d} ends")
        by_resource.setdefault(p.resource, []).append((p.start, p.end))
    reserved: dict[str, list[tuple[int, int]]] = {}
    for res, start, end in sched.reservations:
        reserved.setdefault(res, []).append((start, end))
    for what, table in (("placements", by_resource), ("reservations", reserved)):
        for res, spans in table.items():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                if s2 < e1:
                    raise ScheduleError(f"overlapping {what} on {res}")


def schedule_to_csv(sched: Schedule) -> str:
    """Timeline CSV (block, resource, start, end), Gantt-friendly."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["block", "resource", "start", "end"])
    for bid in sorted(sched.placements, key=lambda s: (sched.placements[s].start, s)):
        p = sched.placements[bid]
        writer.writerow([bid, p.resource, p.start, p.end])
    return buf.getvalue()
