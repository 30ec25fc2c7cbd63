"""Benchmark the statevector kernels: numba fast path vs numpy fallback.

Usage::

    python benchmarks/bench_kernels.py [--qubits 20] [--gates 120] [--repeats 3]

The same random circuit is simulated under both backends (the numba side is
warmed up first so JIT compilation is not timed) and the results are checked
to agree before the timing table is printed.  Selecting the fallback in
production is done with ``QUILT_DISABLE_NUMBA=1``; here the switch is
explicit via ``quilt.kernels.use_backend``.

A second table gives QAOA objective evaluations per second (p = 1 on
6, 9 and 12 nodes, p = 2 on 16 nodes with fewer evaluations; ``expectation``
of the cost Hamiltonian) on the active backend: the lowered
``simulate(ansatz, bindings=...)`` path against
``simulate(ansatz.bind(...))``, after checking that both give the same
values.

A third table gives exact-mode knit term combinations per second on 12-site
Ising chains cut at the balanced bond, with 2, 3 and 4 Trotter steps (one
cut RZZ per step: 36, 216 and 1296 combinations), after checking each
knitted value against the uncut ``simulate``.  On the same chains it gives
shots-mode shots per second, after checking that the mean of the shots lies
within 5 standard errors of the uncut value.

A fourth table times ``hhl.pauli_decompose`` on random 1- to 5-qubit
Hermitian matrices (best of ``--repeats``): the bit-mask path against the
one-Kronecker-matrix-per-string loop kept as
``tests/oracles.reference_pauli_decompose``, after checking that both give
the same labels and coefficients within 1e-12.

A fifth table times ``kernels.apply_unitary`` (best of ``--repeats`` runs of
``UNITARY_CALLS`` calls) on 8 and 10 qubits for k = 2..7 targets, contiguous
and scattered: the tensor contraction it replaced (``tensordot``,
``moveaxis``, ``copyto``) against the matrix product over a transposed
view, after checking that both give the same state within 1e-12.

A sixth table times HHL circuit build plus simulation for one system of each
class of the ``hhl`` workload (dimension 2, 4 and 8 with 4, 5 and 6 clock
qubits) and for dimension 8 with 9 clock qubits: the computational-basis
builder that rebuilds every block on every call
(``tests/oracles.reference_hhl_circuit``) simulated with the tensor
contraction, against ``hhl.build_hhl_circuit`` (diagonal gates in the
matrix's eigenbasis) simulated with the current kernels, after checking
that both give the same state within 1e-12.

A seventh table times ``kernels.apply_diagonal`` (best of ``--repeats`` runs
of ``UNITARY_CALLS`` calls) on 8 and 10 qubits for k = 2..7 targets,
contiguous and scattered, against ``kernels.apply_unitary`` of the same
diagonal as a dense matrix, after checking that both give the same state
within 1e-12.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from quilt import hhl, kernels, knit
from quilt.circuit import Circuit, Gate, GateKind, PauliSum
from quilt.maxcut import Graph, cost_hamiltonian, qaoa_ansatz
from quilt.simsv import expectation, simulate

QAOA_ROWS = ((6, 1, 300), (9, 1, 300), (12, 1, 300), (16, 2, 30))  # (nodes, p, evaluations)
KNIT_SITES = 12
KNIT_CUTS = (2, 3, 4)
KNIT_SHOTS = 2000
PAULI_QUBITS = (1, 2, 3, 4, 5)
UNITARY_QUBITS = (8, 10)
UNITARY_TARGETS = (2, 3, 4, 5, 6, 7)
UNITARY_CALLS = 200
HHL_CLASSES = (("d2m4", 1, 4), ("d4m5", 2, 5), ("d8m6", 3, 6), ("d8m9", 3, 9))  # (label, n, m)


def load_oracles():
    """``tests/oracles.py``, where the replaced loops are kept as references;
    imported only by the tables that compare against them."""
    tests_dir = str(Path(__file__).resolve().parents[1] / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import oracles

    return oracles


def best_seconds(call, repeats: int, calls: int = 1) -> float:
    """Best of ``repeats`` timings of ``calls`` calls, per call."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - start)
    return best / calls


def random_layers(rng, n_qubits: int, n_gates: int) -> Circuit:
    gates = []
    one_q = ["h", "x", "rz", "rx", "ry", "s", "t"]
    while len(gates) < n_gates:
        kind = rng.choice(one_q + ["cx", "cz", "rzz"])
        if kind in ("cx", "cz", "rzz"):
            a = int(rng.integers(0, n_qubits - 1))
            qubits = (a, a + 1)
        else:
            qubits = (int(rng.integers(0, n_qubits)),)
        param = (
            float(rng.uniform(-np.pi, np.pi))
            if kind in ("rx", "ry", "rz", "rzz")
            else None
        )
        gates.append(Gate(GateKind(kind), qubits, param))
    return Circuit(n_qubits, tuple(gates))


def time_backend(name: str, circuit: Circuit, repeats: int) -> tuple[float, np.ndarray]:
    kernels.use_backend(name)
    state = simulate(circuit)  # warmup (JIT compile on the numba path)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        state = simulate(circuit)
        best = min(best, time.perf_counter() - start)
    return best, state.amps


def ring_with_chords(rng, n_nodes: int) -> Graph:
    """Weighted ring plus n/2 random chords."""
    edges = {tuple(sorted((i, (i + 1) % n_nodes))) for i in range(n_nodes)}
    while len(edges) < n_nodes + n_nodes // 2:
        edges.add(tuple(sorted(int(q) for q in rng.choice(n_nodes, size=2, replace=False))))
    return Graph(n_nodes, tuple((u, v, float(rng.uniform(0.5, 2.0))) for u, v in sorted(edges)))


def time_qaoa_objective(rng, n_nodes: int, p: int, evals: int) -> tuple[float, float]:
    """Objective evaluations per second: (bound circuit, lowered circuit)."""
    graph = ring_with_chords(rng, n_nodes)
    ansatz = qaoa_ansatz(graph, p)
    ham = cost_hamiltonian(graph)
    points = [dict(zip(ansatz.params, map(float, row)))
              for row in rng.uniform(-np.pi, np.pi, size=(evals, len(ansatz.params)))]
    objectives = (lambda v: expectation(simulate(ansatz.bind(v)), ham),
                  lambda v: expectation(simulate(ansatz, bindings=v), ham))
    agreement = max(abs(objectives[0](v) - objectives[1](v)) for v in points[:5])
    if agreement > 1e-12:
        raise SystemExit(f"lowered objective disagrees by {agreement:.2e}")
    rates = []
    for objective in objectives:
        start = time.perf_counter()
        for v in points:
            objective(v)
        rates.append(evals / (time.perf_counter() - start))
    return rates[0], rates[1]


def time_knit(rng, n_cuts: int, repeats: int) -> tuple[int, float, float]:
    """(term combinations, exact-mode combinations per second, shots-mode
    shots per second) for one ``n_cuts``-step chain."""
    n = KNIT_SITES
    spec = knit.SpinChainSpec(
        n, 1.0, n_cuts,
        couplings=tuple(rng.uniform(0.2, 1.2, size=n - 1)),
        transverse=tuple(rng.uniform(0.2, 0.8, size=n)),
        longitudinal=tuple(rng.uniform(0.0, 0.4, size=n)),
    )
    circuit = knit.build_spinchain_circuit(spec)
    plan = knit.baseline_plan(circuit)
    obs = PauliSum([(1.0, "Z" + "I" * (n - 1)), (0.5, "I" * (n - 1) + "X"),
                    (0.8, "I" * (n // 2 - 1) + "ZZ" + "I" * (n - n // 2 - 1))])
    result = knit.knit_execute(circuit, plan, obs)
    uncut = expectation(simulate(circuit), obs)
    if abs(result.value - uncut) > 1e-9:
        raise SystemExit(f"knitted value {result.value!r} differs from uncut {uncut!r}")
    sampled = knit.knit_execute(circuit, plan, obs, mode="shots", shots=KNIT_SHOTS, seed=0)
    sem = np.std(sampled.per_term_values, ddof=1) / np.sqrt(KNIT_SHOTS)
    if abs(sampled.value - uncut) > 5 * sem:
        raise SystemExit(f"shots mean {sampled.value!r} is more than 5 standard errors "
                         f"({sem:.3g}) from uncut {uncut!r}")
    seconds = [best_seconds(lambda kw=kw: knit.knit_execute(circuit, plan, obs, **kw), repeats)
               for kw in ({}, {"mode": "shots", "shots": KNIT_SHOTS, "seed": 0})]
    combinations = len(result.per_term_values)
    return combinations, combinations / seconds[0], KNIT_SHOTS / seconds[1]


def time_pauli_decompose(rng, n: int, repeats: int) -> tuple[int, float, float]:
    """(terms, Kronecker-loop seconds, mask seconds) for one random Hermitian
    ``2**n`` x ``2**n`` matrix, best of ``repeats``."""
    reference_pauli_decompose = load_oracles().reference_pauli_decompose
    dim = 1 << n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = a + a.conj().T
    got, want = hhl.pauli_decompose(a), reference_pauli_decompose(a)
    if [p.ops for _, p in got.terms] != [p.ops for _, p in want.terms]:
        raise SystemExit(f"pauli_decompose labels differ from the reference at n = {n}")
    worst = max(abs(c - d) for (c, _), (d, _) in zip(got.terms, want.terms))
    if worst > 1e-12:
        raise SystemExit(f"pauli_decompose differs from the reference by {worst:.2e}")
    seconds = [best_seconds(lambda f=f: f(a), repeats)
               for f in (reference_pauli_decompose, hhl.pauli_decompose)]
    return len(got), seconds[0], seconds[1]


def tensordot_unitary(amps: np.ndarray, targets, matrix: np.ndarray) -> None:
    """The tensor contraction ``kernels.apply_unitary`` replaced."""
    k = len(targets)
    n = amps.size.bit_length() - 1
    psi = amps.reshape([2] * n)
    u = np.asarray(matrix, dtype=np.complex128).reshape([2] * (2 * k))
    in_axes = [n - 1 - targets[k - 1 - j] for j in range(k)]
    res = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), in_axes))
    res = np.moveaxis(res, list(range(k)), in_axes)
    np.copyto(psi, res)


def time_apply_unitary(rng, n: int, targets, repeats: int) -> tuple[float, float]:
    """(tensordot seconds, matmul seconds) per call of a random unitary on
    ``targets`` of an ``n``-qubit state."""
    k = len(targets)
    z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    u = np.linalg.qr(z)[0]
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    want, got = psi.copy(), psi.copy()
    tensordot_unitary(want, targets, u)
    kernels.apply_unitary(got, targets, u)
    worst = float(np.max(np.abs(got - want)))
    if worst > 1e-12:
        raise SystemExit(f"apply_unitary differs from tensordot by {worst:.2e} "
                         f"on targets {targets} of {n} qubits")
    return tuple(best_seconds(lambda f=f: f(psi, targets, u), repeats, UNITARY_CALLS)
                 for f in (tensordot_unitary, kernels.apply_unitary))


def time_apply_diagonal(rng, n: int, targets, repeats: int) -> tuple[float, float]:
    """(dense apply_unitary seconds, apply_diagonal seconds) per call of a
    random phase vector on ``targets`` of an ``n``-qubit state."""
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=1 << len(targets)))
    dense = np.diag(phases)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    want, got = psi.copy(), psi.copy()
    kernels.apply_unitary(want, targets, dense)
    kernels.apply_diagonal(got, targets, phases)
    worst = float(np.max(np.abs(got - want)))
    if worst > 1e-12:
        raise SystemExit(f"apply_diagonal differs from apply_unitary by {worst:.2e} "
                         f"on targets {targets} of {n} qubits")
    return (best_seconds(lambda: kernels.apply_unitary(psi, targets, dense),
                         repeats, UNITARY_CALLS),
            best_seconds(lambda: kernels.apply_diagonal(psi, targets, phases),
                         repeats, UNITARY_CALLS))


def scattered_targets(n: int, k: int) -> tuple:
    """Every other qubit downward from the top, then the rest: k of them."""
    return (tuple(range(n - 1, -1, -2)) + tuple(range(n - 2, -1, -2)))[:k]


def time_hhl(rng, n: int, m: int, repeats: int) -> tuple[float, float]:
    """(seconds before, seconds now) to build and simulate the HHL circuit of
    one random SPD system of dimension ``2**n`` with ``m`` clock qubits."""
    reference_hhl_circuit = load_oracles().reference_hhl_circuit
    system = hhl.random_spd_system(rng, 1 << n, cond=2.0, m=m)

    def before():
        saved = kernels.apply_unitary
        kernels.apply_unitary = tensordot_unitary
        try:
            return simulate(reference_hhl_circuit(system)).amps
        finally:
            kernels.apply_unitary = saved

    def now():
        return simulate(hhl.build_hhl_circuit(system)).amps

    worst = float(np.max(np.abs(before() - now())))
    if worst > 1e-12:
        raise SystemExit(f"HHL state differs from the reference path by {worst:.2e}")
    return best_seconds(before, repeats), best_seconds(now, repeats)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, default=20)
    parser.add_argument("--gates", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    circuit = random_layers(rng, args.qubits, args.gates)
    print(
        f"circuit: {args.qubits} qubits, {len(circuit.gates)} gates, "
        f"best of {args.repeats} runs"
    )

    saved = kernels.active_backend()
    try:
        t_numpy, amps_numpy = time_backend("numpy", circuit, args.repeats)
        rows = [("numpy", t_numpy)]
        if kernels.HAVE_NUMBA:
            t_numba, amps_numba = time_backend("numba", circuit, args.repeats)
            agreement = float(np.max(np.abs(amps_numba - amps_numpy)))
            if agreement > 1e-12:
                raise SystemExit(f"backends disagree by {agreement:.2e}")
            rows.append(("numba", t_numba))
        else:
            print("numba not installed: timing the fallback only")
    finally:
        kernels.use_backend(saved)

    print(f"{'backend':<10}{'seconds':>10}{'gates/s':>12}")
    for name, seconds in rows:
        print(f"{name:<10}{seconds:>10.3f}{len(circuit.gates) / seconds:>12.0f}")
    if len(rows) == 2:
        print(f"speedup (numpy/numba): {rows[0][1] / rows[1][1]:.2f}x")

    print(f"\nQAOA objective ({kernels.active_backend()} kernels)")
    print(f"{'qubits':<8}{'p':>3}{'evals':>7}{'bind evals/s':>14}{'lowered evals/s':>17}"
          f"{'speedup':>9}")
    for n_nodes, p, evals in QAOA_ROWS:
        bound, lowered = time_qaoa_objective(rng, n_nodes, p, evals)
        print(f"{n_nodes:<8}{p:>3}{evals:>7}{bound:>14.0f}{lowered:>17.0f}"
              f"{lowered / bound:>8.1f}x")

    knit_rng = np.random.default_rng([args.seed, 1])  # independent of the tables above
    print(f"\nKnitting ({KNIT_SITES}-site chain, balanced cut, {KNIT_SHOTS} shots, "
          f"best of {args.repeats}, {kernels.active_backend()} kernels)")
    print(f"{'cuts':<6}{'combinations':>13}{'combinations/s':>16}{'shots/s':>10}")
    for n_cuts in KNIT_CUTS:
        combinations, rate, shot_rate = time_knit(knit_rng, n_cuts, args.repeats)
        print(f"{n_cuts:<6}{combinations:>13}{rate:>16.0f}{shot_rate:>10.0f}")

    pauli_rng = np.random.default_rng([args.seed, 2])
    print(f"\nPauli decomposition (random Hermitian matrix, best of {args.repeats})")
    print(f"{'qubits':<8}{'terms':>6}{'kron ms':>10}{'masks ms':>10}{'speedup':>9}")
    for n in PAULI_QUBITS:
        terms, kron_s, mask_s = time_pauli_decompose(pauli_rng, n, args.repeats)
        print(f"{n:<8}{terms:>6}{kron_s * 1e3:>10.3f}{mask_s * 1e3:>10.3f}"
              f"{kron_s / mask_s:>8.1f}x")

    unitary_rng = np.random.default_rng([args.seed, 3])
    print(f"\napply_unitary (random k-qubit unitary, best of {args.repeats} x "
          f"{UNITARY_CALLS} calls)")
    print(f"{'qubits':<8}{'k':>3}{'targets':>11}{'tensordot us':>14}{'matmul us':>11}"
          f"{'speedup':>9}")
    for n in UNITARY_QUBITS:
        for k in UNITARY_TARGETS:
            for layout, targets in (("contiguous", tuple(range(k))),
                                    ("scattered", scattered_targets(n, k))):
                old_s, new_s = time_apply_unitary(unitary_rng, n, targets, args.repeats)
                print(f"{n:<8}{k:>3}{layout:>11}{old_s * 1e6:>14.1f}{new_s * 1e6:>11.1f}"
                      f"{old_s / new_s:>8.1f}x")

    hhl_rng = np.random.default_rng([args.seed, 4])
    print(f"\nHHL build + simulate (random SPD system, best of {args.repeats})")
    print(f"{'class':<8}{'before ms':>10}{'now ms':>8}{'speedup':>9}")
    for label, n, m in HHL_CLASSES:
        old_s, new_s = time_hhl(hhl_rng, n, m, args.repeats)
        print(f"{label:<8}{old_s * 1e3:>10.3f}{new_s * 1e3:>8.3f}{old_s / new_s:>8.1f}x")

    diagonal_rng = np.random.default_rng([args.seed, 5])
    print(f"\napply_diagonal (random phase vector, best of {args.repeats} x "
          f"{UNITARY_CALLS} calls)")
    print(f"{'qubits':<8}{'k':>3}{'targets':>11}{'dense us':>10}{'diagonal us':>13}"
          f"{'speedup':>9}")
    for n in UNITARY_QUBITS:
        for k in UNITARY_TARGETS:
            for layout, targets in (("contiguous", tuple(range(k))),
                                    ("scattered", scattered_targets(n, k))):
                old_s, new_s = time_apply_diagonal(diagonal_rng, n, targets, args.repeats)
                print(f"{n:<8}{k:>3}{layout:>11}{old_s * 1e6:>10.1f}{new_s * 1e6:>13.1f}"
                      f"{old_s / new_s:>8.1f}x")


if __name__ == "__main__":
    main()
