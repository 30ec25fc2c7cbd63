"""``qaoa``: the ``quilt maxcut --method qaoa`` path.

One operation is ``maxcut.optimize`` (p = 1, quilt's default multi-start
Nelder-Mead, about 1000 objective evaluations) followed by
``maxcut.sample_assignment`` on one seeded weighted graph.  A round is
four 5-node graphs and one 8-node graph.  The 5-node operations are 80% of
the samples, so the median and the 70th-percentile tail fall in their
upper part (their 62nd and 87th percentiles), well away from the step up
to the 8-node operations.  The upper part of a class moves least when the
machine's speed changes during a run.
"""

from __future__ import annotations

import reference as ref
from reference import require
from workloads import rng_for

from quilt import maxcut

# (label, nodes, edges, ops per round)
CLASSES = (("n5", 5, 6, 4), ("n8", 8, 10, 1))
TINY = (("n3", 3, 3, 1), ("n4", 4, 4, 1))
SHOTS = 512


def random_graph(rng, n: int, m: int):
    """Connected graph: a random spanning path plus random extra edges."""
    perm = rng.permutation(n)
    chosen = {tuple(sorted((int(perm[i]), int(perm[i + 1])))) for i in range(n - 1)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in chosen]
    for i in rng.choice(len(rest), size=m - (n - 1), replace=False):
        chosen.add(rest[int(i)])
    return tuple((u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(chosen))


class Workload:
    tail_pct = 70

    def __init__(self, seed: int, tiny: bool = False):
        rng = rng_for(seed, "qaoa")
        self.round = []
        for label, n, m, count in (TINY if tiny else CLASSES):
            for _ in range(count):
                edges = random_graph(rng, n, m)
                op = (maxcut.Graph(n, edges), int(rng.integers(2**31)),
                      int(rng.integers(2**31)))
                self.round.append((label, op))
        self._refs = {}

    def run(self, op):
        graph, opt_seed, sample_seed = op
        params, expected = maxcut.optimize(graph, p=1, seed=opt_seed)
        assignment = maxcut.sample_assignment(graph, params, shots=SHOTS, seed=sample_seed)
        return params, expected, assignment

    def warm_up(self):
        graph = maxcut.Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
        params, expected = maxcut.optimize(graph, p=1, seed=0, restarts=0, grid_points=8)
        assignment = maxcut.sample_assignment(graph, params, shots=SHOTS, seed=0)
        self.check((graph, 0, 0), (params, expected, assignment))

    def _reference(self, graph):
        key = graph.edges
        if key not in self._refs:
            cuts = ref.cut_values(graph.n_nodes, graph.edges)
            self._refs[key] = float(cuts.max())
        return self._refs[key]

    def check(self, op, out):
        graph, _, _ = op
        params, expected, assignment = out
        optimum = self._reference(graph)
        half = sum(w for _, _, w in graph.edges) / 2.0
        require(params.p == 1, f"asked for p=1, got p={params.p}")
        own = ref.qaoa_expected_cut(graph.n_nodes, graph.edges,
                                    params.gammas[0], params.betas[0])
        require(abs(own - expected) <= 1e-9,
                f"expected cut {expected!r} but the angles give {own!r}")
        require(half - 1e-9 <= expected <= optimum + 1e-9,
                f"expected cut {expected!r} outside [W/2={half!r}, optimum={optimum!r}]")
        side = assignment.side
        require(len(side) == graph.n_nodes and set(side) <= {0, 1},
                f"malformed assignment {side!r}")
        cut = sum(w for u, v, w in graph.edges if side[u] != side[v])
        require(abs(cut - assignment.cut_value) <= 1e-9,
                f"reported cut {assignment.cut_value!r}, edges give {cut!r}")
        require(cut <= optimum + 1e-9, f"sampled cut {cut!r} beats the optimum {optimum!r}")

    def close(self):
        return {}
