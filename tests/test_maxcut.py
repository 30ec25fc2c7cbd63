import numpy as np
import pytest

from quilt.circuit import PauliSum
from quilt.maxcut import (
    Graph,
    MaxCutError,
    QaoaParams,
    baseline_greedy,
    baseline_random,
    brute_force_maxcut,
    cost_hamiltonian,
    cut_value,
    expected_cut,
    optimize,
    partition_graph,
    qaoa_ansatz,
    qaoa_squared,
    sample_assignment,
)
from quilt.simsv import expectation, simulate


def triangle():
    return Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


def two_triangles_bridge():
    return Graph(
        6,
        ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
         (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 1.0)),
    )


def random_graph(rng, n, p=0.45, weighted=False):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = float(rng.uniform(0.2, 2.0)) if weighted else 1.0
                edges.append((u, v, w))
    return Graph(n, tuple(edges))


# -- graph type ----------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(MaxCutError):
        Graph(2, ((0, 0, 1.0),))
    with pytest.raises(MaxCutError):
        Graph(2, ((0, 3, 1.0),))
    with pytest.raises(MaxCutError):
        Graph(2, ((0, 1, 1.0), (1, 0, 2.0)))  # duplicate undirected edge
    with pytest.raises(MaxCutError):
        Graph(2, ((0, 1, -1.0),))


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_graph_rejects_non_finite_weights(tmp_path, weight):
    with pytest.raises(MaxCutError, match="non-finite"):
        Graph(2, ((0, 1, weight),))
    path = tmp_path / "g.txt"
    path.write_text(f"3\n0 1\n1 2 {weight}\n")
    with pytest.raises(MaxCutError, match="non-finite"):
        Graph.from_file(path)


def test_graph_file_roundtrip(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# demo\n4\n0 1\n1 2 2.5\n2 3\n")
    g = Graph.from_file(path)
    assert g.n_nodes == 4
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.5), (2, 3, 1.0))
    with pytest.raises(MaxCutError):
        Graph.from_file(tmp_path / "missing.txt") if False else Graph.from_file(
            _write(tmp_path, "bad.txt", "4\n0 1 x\n")
        )


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- cost Hamiltonian ------------------------------------------------------------


def test_cost_hamiltonian_single_edge():
    ham = cost_hamiltonian(Graph(2, ((0, 1, 1.0),)))
    assert ham == PauliSum([(0.5, "II"), (-0.5, "ZZ")])


def test_cost_hamiltonian_triangle():
    ham = cost_hamiltonian(triangle())
    terms = dict((p.ops, c) for c, p in ham.terms)
    assert terms["III"] == pytest.approx(1.5)
    assert terms["ZZI"] == terms["IZZ"] == terms["ZIZ"] == pytest.approx(-0.5)


def test_cost_hamiltonian_empty_graph():
    assert len(cost_hamiltonian(Graph(3, ()))) == 0


# -- ansatz ----------------------------------------------------------------------


def test_ansatz_param_count():
    for p in (1, 2, 3):
        c = qaoa_ansatz(triangle(), p)
        assert len(c.params) == 2 * p


def test_ansatz_zero_params_gives_half_weight():
    g = random_graph(np.random.default_rng(1), 6)
    val = expected_cut(g, QaoaParams(1, (0.0,), (0.0,)))
    assert val == pytest.approx(g.total_weight / 2, abs=1e-10)


def test_ansatz_zero_params_is_plus_state():
    c = qaoa_ansatz(triangle(), 1).bind({"gamma_1": 0.0, "beta_1": 0.0})
    st = simulate(c)
    assert np.allclose(st.amps, np.full(8, 1 / np.sqrt(8)), atol=1e-12)


def test_weighted_edges_scale_symbolic_angle():
    g = Graph(2, ((0, 1, 2.5),))
    c = qaoa_ansatz(g, 1).bind({"gamma_1": 0.3, "beta_1": 0.0})
    angles = [gg.param for gg in c.gates if gg.kind.value == "rzz"]
    assert angles == [pytest.approx(0.75)]


# -- optimize --------------------------------------------------------------------


def test_single_edge_reaches_optimum():
    _, val = optimize(Graph(2, ((0, 1, 1.0),)), p=1, seed=3)
    assert val == pytest.approx(1.0, abs=1e-4)


def test_c8_matches_grid_oracle():
    g = Graph(8, tuple((i, (i + 1) % 8, 1.0) for i in range(8)))
    ansatz = qaoa_ansatz(g, 1)
    ham = cost_hamiltonian(g)

    def value(gamma, beta):
        st = simulate(ansatz.bind({"gamma_1": gamma, "beta_1": beta}))
        return expectation(st, ham)

    # zooming grid search: coarse scan, then refine around the winner
    best = max(
        ((value(gm, bt), gm, bt)
         for gm in np.linspace(0, 2 * np.pi, 48, endpoint=False)
         for bt in np.linspace(0, np.pi, 24, endpoint=False)),
        key=lambda t: t[0],
    )
    dg, db = 2 * np.pi / 48, np.pi / 24
    for _ in range(4):
        _, g0, b0 = best
        best = max(
            ((value(gm, bt), gm, bt)
             for gm in np.linspace(g0 - dg, g0 + dg, 9)
             for bt in np.linspace(b0 - db, b0 + db, 9)),
            key=lambda t: t[0],
        )
        dg /= 4
        db /= 4
    grid = best[0]
    _, val = optimize(g, p=1, seed=5)
    assert val == pytest.approx(grid, abs=1e-3)
    assert val / 8 == pytest.approx(0.75, abs=0.01)  # re-derived ring plateau


def test_optimize_never_below_zero_start():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = random_graph(rng, 5)
        if not g.edges:
            continue
        _, val = optimize(g, p=1, seed=int(rng.integers(0, 100)), restarts=1)
        assert val >= g.total_weight / 2 - 1e-6


def test_optimize_monotone_in_restarts():
    g = random_graph(np.random.default_rng(4), 6)
    vals = [optimize(g, p=1, seed=11, restarts=k)[1] for k in (0, 2, 5)]
    assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


def test_optimize_deterministic():
    g = random_graph(np.random.default_rng(2), 5)
    a = optimize(g, p=2, seed=21)
    b = optimize(g, p=2, seed=21)
    assert a[0] == b[0] and a[1] == b[1]


# -- sampling --------------------------------------------------------------------


def test_sample_assignment_single_edge():
    g = Graph(2, ((0, 1, 1.0),))
    params, _ = optimize(g, p=1, seed=0)
    asg = sample_assignment(g, params, shots=256, seed=1)
    assert asg.cut_value == 1.0


def test_sample_assignment_reproducible_and_recomputable():
    g = triangle()
    params = QaoaParams(1, (0.7,), (0.3,))
    a = sample_assignment(g, params, shots=1, seed=5)
    b = sample_assignment(g, params, shots=1, seed=5)
    assert a == b
    assert a.cut_value == cut_value(g, a.side)


def test_global_flip_invariance():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 7)
    side = tuple(int(b) for b in rng.integers(0, 2, 7))
    flipped = tuple(1 - b for b in side)
    assert cut_value(g, side) == pytest.approx(cut_value(g, flipped))


# -- partitioning ----------------------------------------------------------------


def test_partition_two_triangles():
    part = partition_graph(two_triangles_bridge(), 3)
    assert part.communities == ((0, 1, 2), (3, 4, 5))
    assert part.inter_edges == ((2, 3, 1.0),)


def test_partition_cap_at_least_n_single_community():
    g = random_graph(np.random.default_rng(3), 6, p=0.8)
    part = partition_graph(g, 6)
    assert part.communities == (tuple(range(6)),)


def test_partition_edgeless_singletons():
    part = partition_graph(Graph(4, ()), 3)
    assert part.communities == ((0,), (1,), (2,), (3,))


def test_partition_respects_cap():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = random_graph(rng, 9, p=0.5)
        part = partition_graph(g, 4)
        assert all(len(c) <= 4 for c in part.communities)
        covered = sorted(u for c in part.communities for u in c)
        assert covered == list(range(9))


# -- divide and conquer ------------------------------------------------------------


def test_qaoa_squared_two_triangles_bridge():
    asg = qaoa_squared(two_triangles_bridge(), cap=3, seed=7)
    assert asg.cut_value == 5.0
    assert asg.cut_value == brute_force_maxcut(two_triangles_bridge()).cut_value


def test_qaoa_squared_flip_symmetry_two_communities():
    g = two_triangles_bridge()
    asg = qaoa_squared(g, cap=3, seed=1)
    flipped = tuple(1 - b for b in asg.side)
    assert cut_value(g, flipped) == pytest.approx(asg.cut_value)


def test_qaoa_squared_merge_never_decreases():
    rng = np.random.default_rng(31)
    for trial in range(6):
        g = random_graph(rng, 10, p=0.35)
        asg, details = qaoa_squared(g, cap=4, seed=trial, shots=128,
                                    with_details=True)
        all_plus_cut = cut_value(g, details.pre_merge_side)
        assert asg.cut_value >= all_plus_cut - 1e-9
        # the reported assignment really is the pre-merge one plus flips
        members = details.partition.community_of()
        rebuilt = tuple(
            details.pre_merge_side[u] ^ details.flips[members[u]]
            for u in range(g.n_nodes)
        )
        assert rebuilt == asg.side


def test_qaoa_squared_local_merge_mode():
    g = two_triangles_bridge()
    asg = qaoa_squared(g, cap=3, seed=7, merge_mode="local")
    assert asg.cut_value == 5.0


def test_qaoa_squared_results_independent_of_worker_count():
    g = two_triangles_bridge()
    a = qaoa_squared(g, cap=3, seed=3, jobs=1)
    b = qaoa_squared(g, cap=3, seed=3, jobs=4)
    assert a == b


# -- baselines ---------------------------------------------------------------------


def test_greedy_path_p3_optimal():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    asg = baseline_greedy(g)
    assert asg.cut_value == brute_force_maxcut(g).cut_value == 2.0


def test_greedy_single_node():
    asg = baseline_greedy(Graph(1, ()))
    assert asg.cut_value == 0.0


def test_greedy_is_local_optimum():
    rng = np.random.default_rng(44)
    for _ in range(10):
        g = random_graph(rng, 8, p=0.5, weighted=True)
        asg = baseline_greedy(g)
        for u in range(8):
            flipped = list(asg.side)
            flipped[u] ^= 1
            assert cut_value(g, flipped) <= asg.cut_value + 1e-9


def test_random_exhaustive_fallback_finds_optimum():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 6, p=0.6)
    asg = baseline_random(g, trials=2**6, seed=0)
    assert asg.cut_value == brute_force_maxcut(g).cut_value


def test_random_seeded_reproducible():
    g = random_graph(np.random.default_rng(7), 12, p=0.3)
    a = baseline_random(g, trials=50, seed=9)
    b = baseline_random(g, trials=50, seed=9)
    assert a == b


# -- QAOA^2 jobs argument and the closed-form p = 1 objective ------------------------


def test_qaoa_squared_same_assignment_for_every_jobs_value():
    rng = np.random.default_rng(17)
    graphs = [two_triangles_bridge()] + [
        random_graph(rng, 9, p=0.4, weighted=True) for _ in range(2)
    ]
    for seed, g in enumerate(graphs):
        runs = [qaoa_squared(g, cap=3, seed=seed, shots=64, jobs=jobs)
                for jobs in (None, 1, 2, 3)]
        assert all(run == runs[0] for run in runs[1:]), seed


@pytest.mark.parametrize("jobs", [0, -1, -8])
def test_qaoa_squared_rejects_jobs_below_one(jobs):
    with pytest.raises(MaxCutError, match="jobs must be at least 1"):
        qaoa_squared(triangle(), cap=3, seed=0, jobs=jobs)


def test_expected_cut_matches_the_closed_form_p1_objective():
    from oracles import qaoa_p1_expected_cut

    rng = np.random.default_rng(23)
    graphs = [triangle(), two_triangles_bridge(),
              Graph(5, ((0, 1, 0.7), (1, 2, 1.3), (0, 2, 2.0))),  # two isolated nodes
              Graph(2, ((0, 1, 1.5),))]
    while len(graphs) < 40:
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, p=0.5, weighted=bool(rng.random() < 0.7))
        if g.edges:  # an edgeless graph has no gamma to bind
            graphs.append(g)
    for g in graphs:
        for gamma, beta in rng.uniform(-np.pi, np.pi, size=(3, 2)):
            params = QaoaParams(1, (gamma,), (beta,))
            assert abs(expected_cut(g, params) - qaoa_p1_expected_cut(g, gamma, beta)) <= 1e-12
