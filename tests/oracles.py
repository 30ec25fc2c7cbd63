"""Independent dense-matrix oracles shared by the test suite.

Everything here is built from first principles (kron chains over
hand-written 2x2 matrices) so it never reuses the simulator kernels it is
meant to check.  Qubit 0 is the least-significant bit of a basis index.
The references at the end keep the loops that faster code replaced: the
one-combination-at-a-time knitting loop and the one-shot-at-a-time
trajectory loop that ``knit.knit_execute``'s batch engine replaced, the
per-policy scan loops that ``sched.schedule`` replaced with one event loop,
and the one-trace-per-string Pauli decomposition that ``hhl.pauli_decompose``
replaced with bit masks.  ``qaoa_p1_expected_cut`` is the closed form of the
p = 1 QAOA objective.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from quilt import simsv
from quilt.circuit import Gate, GateKind, PauliString, PauliSum
from quilt.dispatch.sched import (
    JobBlock,
    Placement,
    Schedule,
    ScheduleError,
    ScheduleMetrics,
)
from quilt.knit import (
    _MEAS_ROTATION,
    CutPlan,
    KnitResult,
    _fragment_programs,
    _split_observable,
)
from quilt.simsv import _apply_gate, string_expectation

SQ2 = 1.0 / np.sqrt(2.0)

P2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

H2 = np.array([[SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)
S2 = np.diag([1, 1j]).astype(complex)
SDG2 = np.diag([1, -1j]).astype(complex)
T2 = np.diag([1, np.exp(0.25j * np.pi)]).astype(complex)


def rx2(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry2(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz2(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]).astype(complex)


def embed_1q(m: np.ndarray, q: int, n: int) -> np.ndarray:
    """Embed a 2x2 matrix on qubit q into the full 2^n space."""
    out = np.array([[1.0 + 0j]])
    for i in range(n):
        out = np.kron(m if i == q else P2["I"], out)
    return out


def embed_multi(ms: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kron product placing each 2x2 matrix on its qubit (identity elsewhere)."""
    out = np.array([[1.0 + 0j]])
    for i in range(n):
        out = np.kron(ms.get(i, P2["I"]), out)
    return out


def pauli_matrix(ops: str) -> np.ndarray:
    """Dense matrix of a Pauli string; ops[i] acts on qubit i."""
    return embed_multi({i: P2[c] for i, c in enumerate(ops)}, len(ops))


def reference_pauli_decompose(matrix) -> PauliSum:
    """``hhl.pauli_decompose`` by one Kronecker-built string matrix and one
    trace per string, in ``itertools.product("IXYZ")`` order."""
    from quilt.hhl import HhlError

    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise HhlError("matrix must be square")
    dim = a.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise HhlError(f"dimension {dim} is not a power of two")
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise HhlError("matrix is not Hermitian within 1e-10")
    terms = []
    for ops in itertools.product("IXYZ", repeat=n):
        label = "".join(ops)
        coeff = np.trace(pauli_matrix(label) @ a) / dim
        if abs(coeff.imag) > 1e-10:
            raise HhlError("non-real Pauli coefficient on a Hermitian input")
        if abs(coeff.real) > 1e-12:
            terms.append((float(coeff.real), label))
    return PauliSum(terms)


def qaoa_p1_zz(graph, gamma: float, beta: float, u: int, v: int) -> float:
    """<Z_u Z_v> after one QAOA layer, in closed form.

    Wang, Hadfield, Jiang and Rieffel, PRA 97, 022304 (2018), for weighted
    couplings as in Ozaeta, van Dam and McMahon, arXiv:2012.03421.  quilt's
    RZZ(gamma * w) is exp(-i theta Z Z) with theta = gamma * w / 2, and the
    mixer is RX(2 beta).  k runs over the nodes other than u and v; theta is 0
    between nodes with no edge.
    """
    theta = np.zeros((graph.n_nodes, graph.n_nodes))
    for a, b, w in graph.edges:
        theta[a, b] = theta[b, a] = gamma * w / 2.0
    others = [k for k in range(graph.n_nodes) if k not in (u, v)]
    tu, tv = theta[u, others], theta[v, others]
    return float(
        0.5 * np.sin(4 * beta) * np.sin(2 * theta[u, v])
        * (np.prod(np.cos(2 * tu)) + np.prod(np.cos(2 * tv)))
        - 0.5 * np.sin(2 * beta) ** 2
        * (np.prod(np.cos(2 * (tu + tv))) - np.prod(np.cos(2 * (tu - tv))))
    )


def qaoa_p1_expected_cut(graph, gamma: float, beta: float) -> float:
    """``maxcut.expected_cut`` at p = 1: sum over edges of (w/2)(1 - <Z_u Z_v>)."""
    return sum(w / 2.0 * (1.0 - qaoa_p1_zz(graph, gamma, beta, u, v))
               for u, v, w in graph.edges)


def cx_full(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        j = i ^ (1 << target) if (i >> control) & 1 else i
        m[j, i] = 1.0
    return m


def cz_full(qa: int, qb: int, n: int) -> np.ndarray:
    dim = 1 << n
    d = np.ones(dim, dtype=complex)
    for i in range(dim):
        if (i >> qa) & 1 and (i >> qb) & 1:
            d[i] = -1.0
    return np.diag(d)


def rzz_full(qa: int, qb: int, t: float, n: int) -> np.ndarray:
    dim = 1 << n
    d = np.empty(dim, dtype=complex)
    for i in range(dim):
        same = ((i >> qa) ^ (i >> qb)) & 1 == 0
        d[i] = np.exp(-0.5j * t) if same else np.exp(0.5j * t)
    return np.diag(d)


def gate_full(gate, n: int) -> np.ndarray:
    """Full-space matrix for a quilt Gate, derived independently."""
    from quilt.circuit import GateKind

    k = gate.kind
    fixed = {
        GateKind.H: H2,
        GateKind.X: P2["X"],
        GateKind.Y: P2["Y"],
        GateKind.Z: P2["Z"],
        GateKind.S: S2,
        GateKind.SDG: SDG2,
        GateKind.T: T2,
    }
    if k in fixed:
        return embed_1q(fixed[k], gate.qubits[0], n)
    if k is GateKind.RX:
        return embed_1q(rx2(gate.param), gate.qubits[0], n)
    if k is GateKind.RY:
        return embed_1q(ry2(gate.param), gate.qubits[0], n)
    if k is GateKind.RZ:
        return embed_1q(rz2(gate.param), gate.qubits[0], n)
    if k is GateKind.RZZ:
        return rzz_full(gate.qubits[0], gate.qubits[1], gate.param, n)
    if k is GateKind.CX:
        return cx_full(gate.qubits[0], gate.qubits[1], n)
    if k is GateKind.CZ:
        return cz_full(gate.qubits[0], gate.qubits[1], n)
    if k is GateKind.UNITARY:
        return unitary_full(gate.matrix, gate.qubits, n)
    raise ValueError(f"no oracle matrix for {k}")


def unitary_full(matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Embed a little-endian k-qubit matrix on ``targets`` into 2^n space."""
    k = len(targets)
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for col in range(dim):
        sub_in = 0
        for j, q in enumerate(targets):
            sub_in |= ((col >> q) & 1) << j
        base = 0
        for q in rest:
            base |= ((col >> q) & 1) << q
        for sub_out in range(1 << k):
            row = base
            for j, q in enumerate(targets):
                row |= ((sub_out >> j) & 1) << q
            m[row, col] += matrix[sub_out, sub_in]
    return m


def circuit_unitary(circuit) -> np.ndarray:
    """Matrix-chain product of a whole circuit (measures rejected)."""
    n = circuit.n_qubits
    u = np.eye(1 << n, dtype=complex)
    for g in circuit.gates:
        u = gate_full(g, n) @ u
    return u


def statevector_oracle(circuit, initial=None) -> np.ndarray:
    n = circuit.n_qubits
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    if initial is not None:
        psi = np.asarray(initial, dtype=complex).copy()
    for g in circuit.gates:
        from quilt.circuit import GateKind

        if g.kind is GateKind.MEASURE:
            continue
        psi = gate_full(g, n) @ psi
    return psi


def parity_signs(n_qubits: int, z_mask: int) -> np.ndarray:
    """(-1)**|i & z_mask| for every i < 2**n_qubits, one concatenation per
    qubit (``simsv._parity_signs`` before it filled one array in place)."""
    signs = np.ones(1)
    for q in range(n_qubits):
        signs = np.concatenate((signs, -signs if (z_mask >> q) & 1 else signs))
    return signs


def entropies_from_statevector(psi: np.ndarray, n: int) -> np.ndarray:
    """Schmidt entropies (bits) of every bond from reduced density matrices.

    Bond k separates qubits 0..k from k+1..n-1; qubit 0 is the fastest axis.
    """
    out = np.empty(n - 1)
    for k in range(n - 1):
        m = psi.reshape(1 << (n - k - 1), 1 << (k + 1))  # rows: high qubits
        svals = np.linalg.svd(m, compute_uv=False)
        p = svals**2
        p = p[p > 1e-16]
        out[k] = float(-np.sum(p * np.log2(p)))
    return out


def random_circuit(rng, n_qubits, n_gates, nearest_neighbor=False, parametric=False):
    """Random test circuit over the full gate vocabulary (no measures)."""
    from quilt import circuit as cir

    gates = []
    names = iter(f"p{i}" for i in range(n_gates))
    for _ in range(n_gates):
        roll = rng.integers(0, 10)
        q = int(rng.integers(0, n_qubits))
        if roll < 5 or n_qubits == 1:
            kind = rng.choice(["h", "x", "y", "z", "s", "sdg", "t", "rx", "ry", "rz"])
            if kind in ("rx", "ry", "rz"):
                theta = next(names) if parametric and rng.random() < 0.3 else float(
                    rng.uniform(-np.pi, np.pi)
                )
                gates.append(cir.Gate(cir.GateKind(kind), (q,), theta))
            else:
                gates.append(cir.Gate(cir.GateKind(kind), (q,)))
        else:
            if nearest_neighbor:
                a = int(rng.integers(0, n_qubits - 1))
                b = a + 1
                if rng.random() < 0.5:
                    a, b = b, a
            else:
                a, b = rng.choice(n_qubits, size=2, replace=False)
                a, b = int(a), int(b)
            kind = rng.choice(["rzz", "cx", "cz"])
            if kind == "rzz":
                theta = next(names) if parametric and rng.random() < 0.3 else float(
                    rng.uniform(-np.pi, np.pi)
                )
                gates.append(cir.Gate(cir.GateKind.RZZ, (a, b), theta))
            else:
                gates.append(cir.Gate(cir.GateKind(kind), (a, b)))
    return cir.Circuit(n_qubits, tuple(gates))


# The knitting reference: every term combination run on its own, one
# statevector per signed measurement branch (``knit_execute``'s exact mode
# before it ran all combinations of a fragment as one batch).


def _project(amps: np.ndarray, q: int, bit: int) -> np.ndarray:
    out = amps.copy()
    view = out.reshape(-1, 2, 1 << q)
    view[:, 1 - bit, :] = 0.0
    return out


def _run_branches(prog, n_frag: int, plan: CutPlan, combo, side: str):
    """Evaluate one fragment with signed branch expansion over measurements.

    Returns [(sign, unnormalized amplitudes)] covering the term channels.
    """
    amps = np.zeros(1 << n_frag, dtype=np.complex128)
    amps[0] = 1.0
    branches = [(1.0, amps)]
    for item in prog:
        if item[0] == "gate":
            for _, a in branches:
                _apply_gate(a, item[1])
            continue
        _, ordinal, q = item
        term = plan.decompositions[ordinal].terms[combo[ordinal]]
        ops = term.left_ops if side == "left" else term.right_ops
        meas = term.left_meas if side == "left" else term.right_meas
        for op in ops:
            g = op.gate(q)
            for _, a in branches:
                _apply_gate(a, g)
        if meas is not None:
            v = _MEAS_ROTATION[meas]
            rot = Gate(GateKind.UNITARY, (q,), matrix=v)
            rot_back = Gate(GateKind.UNITARY, (q,), matrix=v.conj().T)
            new_branches = []
            for sign, a in branches:
                _apply_gate(a, rot)
                for bit in (0, 1):
                    proj = _project(a, q, bit)
                    _apply_gate(proj, rot_back)
                    new_branches.append((sign if bit == 0 else -sign, proj))
            branches = new_branches
    return branches


def _branch_expectations(branches, strings: dict[str, PauliString]):
    return {
        key: sum(sign * string_expectation(amps, ps).real for sign, amps in branches)
        for key, ps in strings.items()
    }


def reference_knit_exact(circuit, plan, observable) -> KnitResult:
    """``knit_execute(circuit, plan, observable, mode="exact")``, one
    combination at a time."""
    n_left = plan.cut_bond + 1
    n_right = circuit.n_qubits - n_left
    left_prog, right_prog = _fragment_programs(circuit, plan)
    split, left_strings, right_strings = _split_observable(observable, plan)

    contributions = []
    total = 0.0
    term_counts = [len(d.terms) for d in plan.decompositions]
    for combo in itertools.product(*(range(c) for c in term_counts)):
        weight = 1.0
        for ordinal, t in enumerate(combo):
            weight *= plan.decompositions[ordinal].terms[t].coefficient
        lb = _run_branches(left_prog, n_left, plan, combo, "left")
        rb = _run_branches(right_prog, n_right, plan, combo, "right")
        le = _branch_expectations(lb, left_strings)
        re_ = _branch_expectations(rb, right_strings)
        contrib = weight * sum(c * le[a] * re_[b] for c, a, b in split)
        contributions.append(contrib)
        total += contrib
    return KnitResult(total, tuple(contributions), plan.total_overhead)


# The sampled knitting reference: one statevector per shot and fragment,
# its measurements collapsed one at a time (``knit_execute``'s shots mode
# before it ran every shot of a fragment as one batch).


def reference_knit_shots(circuit, plan, observable, shots, seed=None) -> KnitResult:
    """``knit_execute(circuit, plan, observable, mode="shots", shots=shots,
    seed=seed)``, one shot at a time.  It draws its randomness in another
    order, so it agrees with the batch engine in distribution only."""
    n_left = plan.cut_bond + 1
    n_right = circuit.n_qubits - n_left
    left_prog, right_prog = _fragment_programs(circuit, plan)
    split, left_strings, right_strings = _split_observable(observable, plan)
    rng = np.random.default_rng(seed)
    gamma_total = 1.0
    samplers = []
    for dec in plan.decompositions:
        gamma_total *= dec.gamma
        coeffs = np.array([t.coefficient for t in dec.terms])
        samplers.append((np.abs(coeffs) / dec.gamma, np.sign(coeffs)))
    estimates = []
    for _ in range(shots):
        combo = []
        sign = 1.0
        for probs, signs in samplers:
            t = int(rng.choice(len(probs), p=probs))
            combo.append(t)
            sign *= signs[t]
        combo = tuple(combo)
        le, lsign = _run_trajectory(left_prog, n_left, plan, combo, "left",
                                    left_strings, rng)
        re_, rsign = _run_trajectory(right_prog, n_right, plan, combo, "right",
                                     right_strings, rng)
        est = gamma_total * sign * lsign * rsign * sum(
            c * le[a] * re_[b] for c, a, b in split
        )
        estimates.append(est)
    return KnitResult(
        float(np.mean(estimates)), tuple(estimates), plan.total_overhead
    )


def _run_trajectory(prog, n_frag, plan, combo, side, strings, rng):
    """Single stochastic pass through a fragment: measurement channels collapse
    with Born probabilities and contribute outcome signs."""
    amps = np.zeros(1 << n_frag, dtype=np.complex128)
    amps[0] = 1.0
    sign = 1.0
    for item in prog:
        if item[0] == "gate":
            _apply_gate(amps, item[1])
            continue
        _, ordinal, q = item
        term = plan.decompositions[ordinal].terms[combo[ordinal]]
        ops = term.left_ops if side == "left" else term.right_ops
        meas = term.left_meas if side == "left" else term.right_meas
        for op in ops:
            _apply_gate(amps, op.gate(q))
        if meas is not None:
            v = _MEAS_ROTATION[meas]
            _apply_gate(amps, Gate(GateKind.UNITARY, (q,), matrix=v))
            view = amps.reshape(-1, 2, 1 << q)
            p0 = float(np.sum(np.abs(view[:, 0, :]) ** 2))
            bit = 0 if rng.random() < p0 else 1
            view[:, 1 - bit, :] = 0.0
            norm = np.linalg.norm(amps)
            if norm > 0:
                amps /= norm
            if bit == 1:
                sign = -sign
            _apply_gate(amps, Gate(GateKind.UNITARY, (q,), matrix=v.conj().T))
    state = simsv.StateVector(n_frag, amps)
    values = {}
    for key, ps in strings.items():
        if ps.is_identity:
            values[key] = 1.0
        else:
            values[key] = simsv.expectation(state, PauliSum([(1.0, ps)]))
    return values, sign


# The list scheduler's reference: one FIFO scan loop per policy, which
# rescans every pending block (or job) at every event.


def _schedule_split(blocks: Sequence[JobBlock], n_classical: int, n_qpu: int):
    placements: dict[str, Placement] = {}
    free = {
        "classical": [f"cpu{i}" for i in range(n_classical)],
        "quantum": [f"qpu{i}" for i in range(n_qpu)],
    }
    done_at: dict[str, int] = {}
    running: list[tuple[int, str, str, str]] = []  # (end, block_id, kind, resource)
    pending = list(blocks)
    time = 0
    while pending or running:
        # finish everything ending at the current time
        for end, bid, kind, res in sorted(running):
            if end <= time:
                free[kind].append(res)
                done_at[bid] = end
        running = [r for r in running if r[0] > time]
        free["classical"].sort()
        free["quantum"].sort()
        started = True
        while started:
            started = False
            for b in list(pending):
                if any(d not in done_at or done_at[d] > time for d in b.deps):
                    continue
                if not free[b.kind]:
                    continue
                res = free[b.kind].pop(0)
                placements[b.block_id] = Placement(res, time, time + b.duration)
                running.append((time + b.duration, b.block_id, b.kind, res))
                pending.remove(b)
                started = True
        if pending or running:
            future = [end for end, *_ in running]
            if not future:
                raise ScheduleError("deadlock: blocks pending but nothing running")
            time = min(future)
    kind_of = {b.block_id: b.kind for b in blocks}
    reservations = tuple(
        (p.resource, p.start, p.end)
        for bid, p in placements.items()
        if kind_of[bid] == "quantum"
    )
    return placements, reservations


def _schedule_monolithic(blocks: Sequence[JobBlock], n_classical: int, n_qpu: int):
    jobs: dict[int, list[JobBlock]] = {}
    for b in blocks:
        jobs.setdefault(b.job, []).append(b)
    order = sorted(jobs)
    for i in order:
        jobs[i].sort(key=lambda b: b.order)
    job_deps: dict[int, set[int]] = {}
    by_id = {b.block_id: b for b in blocks}
    for i in order:
        ext = set()
        for b in jobs[i]:
            for d in b.deps:
                if by_id[d].job != i:
                    ext.add(by_id[d].job)
        job_deps[i] = ext

    placements: dict[str, Placement] = {}
    reservations: list[tuple[str, int, int]] = []
    free = {
        "classical": [f"cpu{i}" for i in range(n_classical)],
        "quantum": [f"qpu{i}" for i in range(n_qpu)],
    }
    finished: dict[int, int] = {}
    running: list[tuple[int, int, dict[str, str]]] = []  # (end, job, held resources)
    pending = list(order)
    time = 0
    while pending or running:
        for end, job, held in sorted(running, key=lambda r: (r[0], r[1])):
            if end <= time:
                finished[job] = end
                for kind, res in held.items():
                    free[kind].append(res)
        running = [r for r in running if r[0] > time]
        free["classical"].sort()
        free["quantum"].sort()
        started = True
        while started:
            started = False
            for job in list(pending):
                if any(d not in finished or finished[d] > time for d in job_deps[job]):
                    continue
                kinds = {b.kind for b in jobs[job]}
                if any(not free[k] for k in kinds):
                    continue
                held = {k: free[k].pop(0) for k in sorted(kinds)}
                t = time
                for b in jobs[job]:
                    placements[b.block_id] = Placement(held[b.kind], t, t + b.duration)
                    t += b.duration
                for k, res in held.items():
                    reservations.append((res, time, t))
                running.append((t, job, held))
                pending.remove(job)
                started = True
        if pending or running:
            future = [end for end, *_ in running]
            if not future:
                raise ScheduleError("deadlock: jobs pending but nothing running")
            time = min(future)
    return placements, tuple(reservations)


def reference_schedule(blocks, n_classical: int, n_qpu: int, policy: str) -> Schedule:
    """``sched.schedule`` computed by the per-policy scan loops above."""
    run = {"split": _schedule_split, "monolithic": _schedule_monolithic}[policy]
    placements, reservations = run(blocks, n_classical, n_qpu)
    busy = sum(b.duration for b in blocks if b.kind == "quantum")
    reserved = sum(end - start for res, start, end in reservations if res.startswith("qpu"))
    idle_fraction = 0.0 if reserved == 0 else (reserved - busy) / reserved
    makespan = max((p.end for p in placements.values()), default=0)
    return Schedule(
        policy, placements, reservations, ScheduleMetrics(busy, reserved, idle_fraction, makespan)
    )
