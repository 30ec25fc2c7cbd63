import dataclasses
import json

import numpy as np
import pytest
from oracles import reference_schedule

from quilt.cli import main
from quilt.dispatch.sched import (
    JobBlock,
    ScheduleError,
    load_workload,
    make_workload,
    schedule,
    schedule_to_csv,
    split_job,
    verify_schedule,
)


def test_split_job_chains_blocks():
    blocks = split_job([("c", 10), ("q", 1), ("c", 10)], job_index=1)
    assert [b.block_id for b in blocks] == ["J_1_1", "J_1_2", "J_1_3"]
    assert blocks[0].deps == ()
    assert blocks[1].deps == ("J_1_1",)
    assert blocks[2].deps == ("J_1_2",)
    assert [b.kind for b in blocks] == ["classical", "quantum", "classical"]


def test_split_job_single_phase():
    blocks = split_job([("quantum", 5)], job_index=3)
    assert len(blocks) == 1 and blocks[0].deps == ()


def test_workload_ids_unique():
    blocks = make_workload([[("c", 1)], [("c", 2), ("q", 1)], [("q", 4)]])
    ids = [b.block_id for b in blocks]
    assert len(ids) == len(set(ids))
    assert {b.job for b in blocks} == {1, 2, 3}


def test_block_validation():
    with pytest.raises(ScheduleError):
        JobBlock("J_1_1", 1, 1, "gpu", 3)
    with pytest.raises(ScheduleError):
        JobBlock("J_1_1", 1, 1, "classical", 0)
    with pytest.raises(ScheduleError):
        split_job([], job_index=1)


def test_job_block_rejects_non_integer_durations():
    for bad in (2.5, True, np.True_, np.float64(1.5), "3", None):
        with pytest.raises(ScheduleError, match="tick count"):
            JobBlock("J_1_1", 1, 1, "quantum", bad)
    for good in (2, np.int64(2), 2.0):
        block = JobBlock("J_1_1", 1, 1, "quantum", good)
        assert block.duration == 2 and type(block.duration) is int


def test_cycle_detected():
    blocks = [
        JobBlock("J_1_1", 1, 1, "classical", 1, deps=("J_1_2",)),
        JobBlock("J_1_2", 1, 2, "classical", 1, deps=("J_1_1",)),
    ]
    with pytest.raises(ScheduleError):
        schedule(blocks, 2, 1, policy="split")


def test_two_job_example_hand_simulated():
    # two jobs [(c,10),(q,1),(c,10),(q,1)] on 2 classical + 1 QPU
    jobs = [[("c", 10), ("q", 1), ("c", 10), ("q", 1)]] * 2
    blocks = make_workload(jobs)

    split = schedule(blocks, n_classical=2, n_qpu=1, policy="split")
    verify_schedule(blocks, split)
    p = split.placements
    assert (p["J_1_1"].start, p["J_1_1"].end) == (0, 10)
    assert (p["J_2_1"].start, p["J_2_1"].end) == (0, 10)
    assert (p["J_1_2"].start, p["J_1_2"].end) == (10, 11)  # FIFO wins the QPU
    assert (p["J_2_2"].start, p["J_2_2"].end) == (11, 12)
    assert (p["J_1_3"].start, p["J_1_3"].end) == (11, 21)
    assert (p["J_2_3"].start, p["J_2_3"].end) == (12, 22)
    assert (p["J_1_4"].start, p["J_1_4"].end) == (21, 22)
    assert (p["J_2_4"].start, p["J_2_4"].end) == (22, 23)
    assert split.metrics.makespan == 23
    assert split.metrics.qpu_busy == 4
    assert split.metrics.qpu_reserved == 4
    assert split.metrics.qpu_idle_fraction == 0.0

    mono = schedule(blocks, n_classical=2, n_qpu=1, policy="monolithic")
    verify_schedule(blocks, mono)
    assert mono.metrics.makespan == 44
    assert mono.metrics.qpu_busy == 4
    assert mono.metrics.qpu_reserved == 44
    assert mono.metrics.qpu_idle_fraction == pytest.approx(40 / 44)
    assert split.metrics.qpu_idle_fraction < mono.metrics.qpu_idle_fraction


def test_all_classical_job_reserves_no_qpu_under_split():
    blocks = make_workload([[("c", 5), ("c", 3)]])
    split = schedule(blocks, 1, 1, policy="split")
    assert split.metrics.qpu_reserved == 0
    assert split.metrics.qpu_idle_fraction == 0.0


def test_quantum_only_job_same_under_both_policies():
    blocks = make_workload([[("q", 7)]])
    split = schedule(blocks, 1, 1, policy="split")
    mono = schedule(blocks, 1, 1, policy="monolithic")
    assert split.metrics == mono.metrics
    assert split.placements == mono.placements


def random_workload(rng):
    jobs = []
    for _ in range(int(rng.integers(1, 21))):
        phases = []
        for _ in range(int(rng.integers(1, 9))):
            kind = "q" if rng.random() < 0.4 else "c"
            phases.append((kind, int(rng.integers(1, 12))))
        jobs.append(phases)
    return make_workload(jobs)


def with_forward_deps(rng, blocks):
    """Add cross-job deps, each on a block of an earlier job, so no job cycle forms."""
    out = []
    for b in blocks:
        earlier = [a.block_id for a in blocks if a.job < b.job]
        if earlier and rng.random() < 0.3:
            extra = {str(d) for d in rng.choice(earlier, size=int(rng.integers(1, 3)))}
            b = dataclasses.replace(b, deps=b.deps + tuple(sorted(extra - set(b.deps))))
        out.append(b)
    return out


@pytest.mark.parametrize("policy", ["split", "monolithic"])
def test_schedule_matches_reference_loops(policy):
    rng = np.random.default_rng(7 if policy == "split" else 8)
    for case in range(300):
        blocks = random_workload(rng)
        if case % 2:
            blocks = with_forward_deps(rng, blocks)
        n_c = int(rng.integers(1, 13))  # 10-12 CPUs order cpu10 before cpu2
        n_q = int(rng.integers(1, 4))
        got = schedule(blocks, n_c, n_q, policy=policy)
        want = reference_schedule(blocks, n_c, n_q, policy)
        assert list(got.placements.items()) == list(want.placements.items())
        assert got.reservations == want.reservations
        assert got.metrics == want.metrics


def test_job_level_cycle_deadlocks_monolithic_only():
    # the block graph is acyclic, but job 1 waits on job 2 and job 2 on job 1
    blocks = [
        JobBlock("J_1_1", 1, 1, "classical", 2),
        JobBlock("J_2_1", 2, 1, "quantum", 1, deps=("J_1_1",)),
        JobBlock("J_1_2", 1, 2, "quantum", 1, deps=("J_1_1", "J_2_1")),
        JobBlock("J_2_2", 2, 2, "classical", 3, deps=("J_2_1",)),
    ]
    with pytest.raises(ScheduleError, match="deadlock"):
        schedule(blocks, 2, 1, policy="monolithic")
    split = schedule(blocks, 2, 1, policy="split")
    verify_schedule(blocks, split)
    assert split.metrics.makespan == 6


def test_verify_rejects_overlapping_reservations():
    blocks = make_workload([[("c", 2), ("q", 1)], [("q", 1)]])
    mono = schedule(blocks, 1, 1, policy="monolithic")
    verify_schedule(blocks, mono)
    overlapping = dataclasses.replace(mono, reservations=(("qpu0", 0, 3), ("qpu0", 2, 4)))
    with pytest.raises(ScheduleError, match="overlapping reservations on qpu0"):
        verify_schedule(blocks, overlapping)


def test_split_dominates_monolithic_on_random_workloads():
    rng = np.random.default_rng(2024)
    makespan_regressions = 0
    for _ in range(150):
        blocks = random_workload(rng)
        n_c = int(rng.integers(1, 5))
        n_q = int(rng.integers(1, 3))
        split = schedule(blocks, n_c, n_q, policy="split")
        mono = schedule(blocks, n_c, n_q, policy="monolithic")
        verify_schedule(blocks, split)
        verify_schedule(blocks, mono)
        # split reserves a QPU only while it computes, so reserved-idle
        # dominance is structural
        assert split.metrics.qpu_reserved_idle == 0
        assert split.metrics.qpu_reserved_idle <= mono.metrics.qpu_reserved_idle
        if split.metrics.makespan > mono.metrics.makespan:
            makespan_regressions += 1
    # greedy list scheduling admits rare Graham anomalies (see the regression
    # test below), but splitting wins on makespan almost always
    assert makespan_regressions <= 150 * 0.03


def test_makespan_graham_anomaly_regression():
    # Removing reservation constraints can hurt a greedy FIFO list scheduler:
    # on this workload the split policy finishes one tick later than the
    # monolithic one.  Kept as documentation that makespan dominance is not
    # a theorem under the fixed scheduling policy.
    jobs = [
        [("c", 10), ("q", 1), ("q", 5), ("c", 8), ("q", 3), ("q", 11), ("q", 6), ("c", 11)],
        [("q", 1), ("c", 1), ("q", 2), ("c", 2), ("q", 1), ("q", 9)],
        [("c", 8), ("q", 5), ("c", 10), ("c", 4)],
        [("q", 1)],
    ]
    blocks = make_workload(jobs)
    split = schedule(blocks, 2, 2, policy="split")
    mono = schedule(blocks, 2, 2, policy="monolithic")
    verify_schedule(blocks, split)
    verify_schedule(blocks, mono)
    assert split.metrics.makespan == 56
    assert mono.metrics.makespan == 55
    # the reserved-idle dominance still holds even here
    assert split.metrics.qpu_reserved_idle < mono.metrics.qpu_reserved_idle


def test_schedule_csv_timeline():
    blocks = make_workload([[("c", 2), ("q", 1)]])
    text = schedule_to_csv(schedule(blocks, 1, 1, policy="split"))
    lines = text.strip().splitlines()
    assert lines[0] == "block,resource,start,end"
    assert lines[1].startswith("J_1_1,cpu0,0,2")
    assert lines[2].startswith("J_1_2,qpu0,2,3")


def test_load_workload_json(tmp_path):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"jobs": [{"phases": [["classical", 3], ["quantum", 1]]}]}))
    blocks = load_workload(path)
    assert len(blocks) == 2 and blocks[1].kind == "quantum"
    with pytest.raises(ScheduleError):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        load_workload(bad)


@pytest.mark.parametrize("duration", [2.7, True, "3"])
def test_load_workload_rejects_non_integer_durations(tmp_path, capsys, duration):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"jobs": [{"phases": [["c", 1], ["q", duration]]}]}))
    with pytest.raises(ScheduleError, match="tick count"):
        load_workload(path)
    assert main(["sched", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_split_job_accepts_integer_durations():
    blocks = split_job([("c", np.int64(3)), ("q", 2), ("c", 4.0)])
    assert [b.duration for b in blocks] == [3, 2, 4]
    assert all(type(b.duration) is int for b in blocks)
    for bad in (np.float64(1.5), np.True_, None):
        with pytest.raises(ScheduleError):
            split_job([("q", bad)])


def test_resource_validation():
    blocks = make_workload([[("c", 1)]])
    with pytest.raises(ScheduleError):
        schedule(blocks, 0, 1)
    with pytest.raises(ScheduleError):
        schedule(blocks, 1, 1, policy="roundrobin")
