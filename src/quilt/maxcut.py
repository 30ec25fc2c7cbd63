"""MaxCut via the alternating-operator ansatz, a divide-and-conquer pipeline
over graph communities, and classical baselines.

The variational circuit is H on every qubit followed per layer ``j`` by
``RZZ(w * gamma_j)`` on each edge and ``RX(2 * beta_j)`` on each qubit; the
identity part of the cost observable is carried classically (it is a global
phase in the circuit).  Parameters are optimized by multi-start Nelder-Mead
(a coarse (gamma, beta) grid seeds the p=1 search, the (0, 0) start is
always retained).

The divide-and-conquer path partitions the graph into communities under a
qubit budget, solves each community independently (concurrently), then
chooses one sign per community by solving a community-level MaxCut whose
weights are the signed inter-edge agreements (brute force up to 20
communities, greedy single-flip local search beyond).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .circuit import Circuit, Gate, GateKind, PauliSum
from .simsv import MAX_QUBITS, expectation, sample, simulate


class MaxCutError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graphs and assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with finite, non-negative edge weights."""

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise MaxCutError("graph needs at least one node")
        seen = set()
        canon = []
        for e in self.edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise MaxCutError(f"self-loop on node {u}")
            if not 0 <= u < self.n_nodes or not 0 <= v < self.n_nodes:
                raise MaxCutError(f"edge ({u},{v}) out of range")
            if not math.isfinite(w):
                raise MaxCutError(f"non-finite weight {w} on edge ({u},{v})")
            if w < 0:
                raise MaxCutError(f"negative weight on edge ({u},{v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise MaxCutError(f"duplicate edge ({u},{v})")
            seen.add(key)
            canon.append((key[0], key[1], w))
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges)

    def neighbors(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    @classmethod
    def from_file(cls, path) -> "Graph":
        """Whitespace edge list ``u v [weight]`` with an ``n_nodes`` header."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        rows = []
        for ln, raw in enumerate(lines, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                rows.append((ln, text))
        if not rows:
            raise MaxCutError("empty graph file")
        try:
            n = int(rows[0][1].split()[0])
        except ValueError:
            raise MaxCutError(f"line {rows[0][0]}: header must be the node count")
        edges = []
        for ln, text in rows[1:]:
            parts = text.split()
            if len(parts) not in (2, 3):
                raise MaxCutError(f"line {ln}: expected 'u v [weight]'")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise MaxCutError(f"line {ln}: bad edge entry {text!r}")
            edges.append((u, v, w))
        try:
            return cls(n, tuple(edges))
        except MaxCutError as exc:
            raise MaxCutError(f"{path}: {exc}")


def cut_value(graph: Graph, side: Sequence[int]) -> float:
    if len(side) != graph.n_nodes:
        raise MaxCutError("assignment length does not match node count")
    return sum(w for u, v, w in graph.edges if side[u] != side[v])


@dataclass(frozen=True)
class CutAssignment:
    """Bipartition bits (side[i] of node i) plus its recomputable cut value."""

    side: tuple[int, ...]
    cut_value: float

    @classmethod
    def from_side(cls, graph: Graph, side: Sequence[int]) -> "CutAssignment":
        side = tuple(int(b) for b in side)
        if any(b not in (0, 1) for b in side):
            raise MaxCutError("assignment bits must be 0/1")
        return cls(side, cut_value(graph, side))


# ---------------------------------------------------------------------------
# ansatz and optimization
# ---------------------------------------------------------------------------


def cost_hamiltonian(graph: Graph) -> PauliSum:
    """sum_(u,v,w) (w/2)(I - Z_u Z_v); maximal expectation = max cut weight."""
    n = graph.n_nodes
    terms: list[tuple[float, str]] = []
    if graph.edges:
        terms.append((graph.total_weight / 2.0, "I" * n))
    for u, v, w in graph.edges:
        ops = ["I"] * n
        ops[u] = "Z"
        ops[v] = "Z"
        terms.append((-w / 2.0, "".join(ops)))
    return PauliSum(terms)


@dataclass(frozen=True)
class QaoaParams:
    p: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if self.p < 1:
            raise MaxCutError("need at least one layer")
        if len(self.gammas) != self.p or len(self.betas) != self.p:
            raise MaxCutError("parameter vectors must have length p")
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))

    def bindings(self) -> dict[str, float]:
        out = {}
        for j in range(self.p):
            out[f"gamma_{j + 1}"] = self.gammas[j]
            out[f"beta_{j + 1}"] = self.betas[j]
        return out


def qaoa_ansatz(graph: Graph, p: int) -> Circuit:
    """Parametric layered ansatz with 2p symbols gamma_j / beta_j."""
    if p < 1:
        raise MaxCutError("need at least one layer")
    gates: list[Gate] = [Gate(GateKind.H, (q,)) for q in range(graph.n_nodes)]
    for j in range(1, p + 1):
        for u, v, w in graph.edges:
            gates.append(Gate(GateKind.RZZ, (u, v), f"gamma_{j}", param_scale=w))
        for q in range(graph.n_nodes):
            gates.append(Gate(GateKind.RX, (q,), f"beta_{j}", param_scale=2.0))
    return Circuit(graph.n_nodes, tuple(gates))


def expected_cut(graph: Graph, params: QaoaParams, ansatz: Circuit | None = None) -> float:
    if ansatz is None:
        ansatz = qaoa_ansatz(graph, params.p)
    state = simulate(ansatz, bindings=params.bindings())
    return expectation(state, cost_hamiltonian(graph))


def _grid_best(objective, gammas, betas):
    best = None
    for g in gammas:
        for b in betas:
            val = objective(np.array([g, b]))
            if best is None or val > best[0]:
                best = (val, np.array([g, b]))
    return best[1]


def optimize(
    graph: Graph,
    p: int = 1,
    seed: int | None = None,
    restarts: int = 5,
    grid_points: int = 24,
    maxiter: int | None = None,
) -> tuple[QaoaParams, float]:
    """Multi-start Nelder-Mead maximization of the expected cut.

    Starts: the all-zero point (always retained), a coarse (gamma, beta)
    grid winner for p=1, and ``restarts`` seeded random points.  Determinism
    follows from the seed; a larger ``restarts`` only extends the start
    list, so best-of-k is monotone in k for a fixed seed.
    """
    if graph.n_nodes > MAX_QUBITS:
        raise MaxCutError(
            f"{graph.n_nodes} nodes exceeds the simulator cap of {MAX_QUBITS}"
        )
    ansatz = qaoa_ansatz(graph, p)
    ham = cost_hamiltonian(graph)
    if not graph.edges:
        zero = QaoaParams(p, (0.0,) * p, (0.0,) * p)
        return zero, 0.0

    def objective(vec: np.ndarray) -> float:
        params = QaoaParams(p, tuple(vec[:p]), tuple(vec[p:]))
        state = simulate(ansatz, bindings=params.bindings())
        return expectation(state, ham)

    rng = np.random.default_rng(seed)
    starts = [np.zeros(2 * p)]
    if p == 1:
        gammas = np.linspace(0, 2 * np.pi, grid_points, endpoint=False)
        betas = np.linspace(0, np.pi, max(2, grid_points // 2), endpoint=False)
        starts.append(_grid_best(objective, gammas, betas))
    for _ in range(restarts):
        g = rng.uniform(0, 2 * np.pi, size=p)
        b = rng.uniform(0, np.pi, size=p)
        starts.append(np.concatenate([g, b]))

    best_val = -math.inf
    best_vec = starts[0]
    for x0 in starts:
        res = minimize(
            lambda v: -objective(v),
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter or 250 * p, "xatol": 1e-6, "fatol": 1e-9},
        )
        val = -res.fun
        if val > best_val:
            best_val = val
            best_vec = res.x
    params = QaoaParams(p, tuple(best_vec[:p]), tuple(best_vec[p:]))
    return params, float(best_val)


def sample_assignment(
    graph: Graph, params: QaoaParams, shots: int = 512, seed: int | None = None
) -> CutAssignment:
    """Best measured bitstring, scored by the true cut value."""
    ansatz = qaoa_ansatz(graph, params.p)
    state = simulate(ansatz, bindings=params.bindings())
    counts = sample(state, shots, seed=seed)
    best_key = None
    best_val = -1.0
    for key in sorted(counts):
        side = tuple(int(ch) for ch in key)
        val = cut_value(graph, side)
        if val > best_val:
            best_val = val
            best_key = side
    return CutAssignment(best_key, best_val)


# ---------------------------------------------------------------------------
# classical baselines
# ---------------------------------------------------------------------------


def _local_improve(graph: Graph, side: list[int]) -> list[int]:
    """First-improvement single-node flips until no flip raises the cut."""
    adj = graph.neighbors()
    improved = True
    while improved:
        improved = False
        for u in range(graph.n_nodes):
            gain = sum(w if side[u] == side[v] else -w for v, w in adj[u])
            if gain > 1e-12:
                side[u] ^= 1
                improved = True
    return side


def baseline_greedy(graph: Graph) -> CutAssignment:
    """Greedy node pass (maximize incremental cut) plus single-flip descent."""
    adj = graph.neighbors()
    side = [0] * graph.n_nodes
    for u in range(graph.n_nodes):
        crossing_if_zero = sum(w for v, w in adj[u] if v < u and side[v] == 1)
        crossing_if_one = sum(w for v, w in adj[u] if v < u and side[v] == 0)
        side[u] = 1 if crossing_if_one > crossing_if_zero else 0
    side = _local_improve(graph, side)
    return CutAssignment.from_side(graph, side)


def baseline_random(graph: Graph, trials: int, seed: int | None = None) -> CutAssignment:
    """Best of ``trials`` uniform assignments; enumerates exhaustively when
    ``trials`` covers the whole assignment space of a small graph."""
    if trials < 1:
        raise MaxCutError("need at least one trial")
    n = graph.n_nodes
    best_side = (0,) * n
    best_val = cut_value(graph, best_side)
    if n <= 20 and trials >= 2**n:
        for code in range(2**n):
            side = tuple((code >> i) & 1 for i in range(n))
            val = cut_value(graph, side)
            if val > best_val:
                best_val, best_side = val, side
        return CutAssignment(best_side, best_val)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        side = tuple(int(b) for b in rng.integers(0, 2, size=n))
        val = cut_value(graph, side)
        if val > best_val:
            best_val, best_side = val, side
    return CutAssignment(best_side, best_val)


def brute_force_maxcut(graph: Graph) -> CutAssignment:
    """Exhaustive optimum (test oracle; 20-node cap)."""
    if graph.n_nodes > 20:
        raise MaxCutError("brute force capped at 20 nodes")
    return baseline_random(graph, trials=2**graph.n_nodes, seed=0)


# ---------------------------------------------------------------------------
# divide and conquer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """Disjoint node communities covering the graph, plus crossing edges."""

    communities: tuple[tuple[int, ...], ...]
    inter_edges: tuple[tuple[int, int, float], ...]

    def community_of(self) -> dict[int, int]:
        out = {}
        for k, nodes in enumerate(self.communities):
            for u in nodes:
                out[u] = k
        return out


def partition_graph(graph: Graph, max_community_size: int) -> Partition:
    """Greedy modularity-style agglomeration under a hard size cap.

    Communities connected by an edge keep merging (best modularity gain
    first) while the merged size fits the cap, so a budget of ``n`` or more
    yields one community per connected component.
    """
    if max_community_size < 2:
        raise MaxCutError("community size cap must be >= 2")
    n = graph.n_nodes
    comm = {u: {u} for u in range(n)}
    deg = {u: 0.0 for u in range(n)}
    between: dict[tuple[int, int], float] = {}
    for u, v, w in graph.edges:
        deg[u] += w
        deg[v] += w
        between[(min(u, v), max(u, v))] = between.get((min(u, v), max(u, v)), 0.0) + w
    total = graph.total_weight
    while total > 0:
        best = None
        for (a, b), w in between.items():
            if len(comm[a]) + len(comm[b]) > max_community_size:
                continue
            gain = w / total - deg[a] * deg[b] / (2.0 * total * total)
            key = (gain, -(min(a, b)), -(max(a, b)))
            if best is None or key > best[0]:
                best = (key, a, b)
        if best is None:
            break
        _, a, b = best
        comm[a] |= comm[b]
        deg[a] += deg[b]
        del comm[b], deg[b]
        merged: dict[tuple[int, int], float] = {}
        for (x, y), w in between.items():
            if (x, y) == (min(a, b), max(a, b)):
                continue
            x = a if x == b else x
            y = a if y == b else y
            if x == y:
                continue
            key = (min(x, y), max(x, y))
            merged[key] = merged.get(key, 0.0) + w
        between = merged
    communities = tuple(
        sorted((tuple(sorted(nodes)) for nodes in comm.values()), key=lambda c: c[0])
    )
    members = {}
    for k, nodes in enumerate(communities):
        for u in nodes:
            members[u] = k
    inter = tuple(
        (u, v, w) for u, v, w in graph.edges if members[u] != members[v]
    )
    return Partition(communities, inter)


def _induced_subgraph(graph: Graph, nodes: tuple[int, ...]) -> tuple[Graph, dict[int, int]]:
    index = {u: i for i, u in enumerate(nodes)}
    edges = tuple(
        (index[u], index[v], w)
        for u, v, w in graph.edges
        if u in index and v in index
    )
    return Graph(len(nodes), edges), index


def _merge_signs_value(b_weights: np.ndarray, flips: Sequence[int]) -> float:
    k = len(flips)
    return sum(
        b_weights[i, j]
        for i in range(k)
        for j in range(i + 1, k)
        if flips[i] != flips[j]
    )


def _optimize_signs(b_weights: np.ndarray, merge_mode: str) -> list[int]:
    k = b_weights.shape[0]
    if merge_mode not in ("brute", "local"):
        raise MaxCutError(f"unknown merge mode {merge_mode!r}")
    if merge_mode == "brute" and k <= 20:
        best_flips = [0] * k
        best_val = _merge_signs_value(b_weights, best_flips)
        for code in range(1 << max(k - 1, 0)):
            flips = [0] + [(code >> i) & 1 for i in range(k - 1)]
            val = _merge_signs_value(b_weights, flips)
            if val > best_val:
                best_val, best_flips = val, flips
        return best_flips
    flips = [0] * k
    improved = True
    while improved:
        improved = False
        for i in range(k):
            delta = sum(
                (b_weights[i, j] if flips[i] == flips[j] else -b_weights[i, j])
                for j in range(k)
                if j != i
            )
            if delta > 1e-12:
                flips[i] ^= 1
                improved = True
    return flips


@dataclass(frozen=True)
class QaoaSquaredDetails:
    """Merge diagnostics: the pre-merge assignment (all-plus signs), the
    chosen community flips and the partition."""

    pre_merge_side: tuple[int, ...]
    flips: tuple[int, ...]
    partition: Partition


def qaoa_squared(
    graph: Graph,
    cap: int,
    p: int = 1,
    merge_mode: str = "brute",
    seed: int | None = None,
    shots: int = 512,
    jobs: int | None = None,
    with_details: bool = False,
):
    """Divide-and-conquer MaxCut: independent per-community solves, then a
    community-sign merge maximizing the total cut.

    ``merge_mode="brute"`` enumerates sign vectors up to 20 communities and
    falls back to local search beyond; ``"local"`` always uses local search.
    The all-plus sign vector is in both search spaces, so the merged cut is
    never below the pre-merge (all-plus) cut.  ``with_details=True`` returns
    ``(assignment, QaoaSquaredDetails)``.  Communities are solved one after
    another: threads only contend for the GIL on these small solves.
    ``jobs`` is kept for compatibility; it must be at least 1 and is
    otherwise ignored.
    """
    if jobs is not None and jobs < 1:
        raise MaxCutError(f"jobs must be at least 1, got {jobs}")
    if cap > MAX_QUBITS:
        raise MaxCutError("community cap exceeds the simulator limit")
    part = partition_graph(graph, cap)
    k = len(part.communities)
    seeds = np.random.SeedSequence(seed).spawn(k)

    def solve_community(idx: int) -> tuple[int, ...]:
        nodes = part.communities[idx]
        sub, _ = _induced_subgraph(graph, nodes)
        if len(nodes) == 1 or not sub.edges:
            return (0,) * len(nodes)
        child = np.random.default_rng(seeds[idx])
        opt_seed = int(child.integers(0, 2**31 - 1))
        samp_seed = int(child.integers(0, 2**31 - 1))
        params, _ = optimize(sub, p=p, seed=opt_seed)
        return sample_assignment(sub, params, shots=shots, seed=samp_seed).side

    local_sides = [solve_community(idx) for idx in range(k)]

    side = [0] * graph.n_nodes
    for nodes, bits in zip(part.communities, local_sides):
        for u, b in zip(nodes, bits):
            side[u] = b
    members = part.community_of()
    b_weights = np.zeros((k, k))
    for u, v, w in part.inter_edges:
        a, b = members[u], members[v]
        if side[u] != side[v]:
            b_weights[a, b] -= w  # already crossing when signs agree
            b_weights[b, a] -= w
        else:
            b_weights[a, b] += w
            b_weights[b, a] += w
    flips = _optimize_signs(b_weights, merge_mode)
    final = tuple(side[u] ^ flips[members[u]] for u in range(graph.n_nodes))
    assignment = CutAssignment.from_side(graph, final)
    if with_details:
        details = QaoaSquaredDetails(tuple(side), tuple(flips), part)
        return assignment, details
    return assignment
