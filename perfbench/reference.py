"""The benchmark's own dense statevector reference.

Nothing here imports quilt: the workloads check the program's outputs
against these functions, so a fault in quilt's kernels, gate matrices or
expectation routine cannot hide in both sides of a comparison.

A circuit is a list of ``(name, qubits, angle)`` tuples with quilt's
documented conventions: qubit 0 is the least-significant bit of a basis
index, ``RZ(t) = diag(e^{-it/2}, e^{it/2})``, ``RZZ(t) = exp(-i t/2 Z(x)Z)``
and RX/RY use the same half-angle forms.  Each gate is applied by gathering
amplitudes through index arrays, a different formulation from quilt's
strided kernels.
"""

from __future__ import annotations

import numpy as np

_SQ2 = 1.0 / np.sqrt(2.0)
_FIXED = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(0.25j * np.pi)]], dtype=complex),
}


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def one_qubit_matrix(name: str, angle: float | None = None) -> np.ndarray:
    if name in _FIXED:
        return _FIXED[name]
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])
    raise ValueError(f"no one-qubit gate {name!r}")


def simulate(n_qubits: int, gates) -> np.ndarray:
    """Amplitudes of ``gates`` applied to |0...0>."""
    idx = np.arange(1 << n_qubits)
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[0] = 1.0
    for name, qubits, angle in gates:
        if name == "cx":
            c, t = qubits
            psi = psi[idx ^ (((idx >> c) & 1) << t)]
        elif name == "cz":
            a, b = qubits
            psi = psi * np.where((idx >> a) & (idx >> b) & 1, -1.0, 1.0)
        elif name == "rzz":
            a, b = qubits
            differ = ((idx >> a) ^ (idx >> b)) & 1
            psi = psi * np.exp(0.5j * angle * np.where(differ, 1.0, -1.0))
        else:
            (q,) = qubits
            m = one_qubit_matrix(name, angle)
            bit = (idx >> q) & 1
            psi = m[bit, bit] * psi + m[bit, 1 - bit] * psi[idx ^ (1 << q)]
    return psi


def pauli_expectation(psi: np.ndarray, ops: str) -> float:
    """<psi|P|psi> for a Pauli string, ``ops[i]`` acting on qubit i.

    ``P|i> = i^{#Y} (-1)^{parity(i & zy)} |i ^ x>`` with ``x`` the mask of
    X/Y positions and ``zy`` the mask of Z/Y positions.
    """
    x_mask = zy_mask = 0
    n_y = 0
    for q, op in enumerate(ops):
        if op in "XY":
            x_mask |= 1 << q
        if op in "ZY":
            zy_mask |= 1 << q
        n_y += op == "Y"
    idx = np.arange(psi.size)
    sign = 1.0 - 2.0 * (np.bitwise_count(idx & zy_mask) & 1)
    value = (1j**n_y) * np.sum(np.conj(psi[idx ^ x_mask]) * sign * psi)
    return float(value.real)


def observable_value(psi: np.ndarray, terms) -> float:
    """Expectation of ``[(coeff, ops), ...]``."""
    return sum(c * pauli_expectation(psi, ops) for c, ops in terms)


def cut_values(n_nodes: int, edges) -> np.ndarray:
    """Cut weight of every basis-state bipartition (bit u = side of node u)."""
    idx = np.arange(1 << n_nodes)
    cut = np.zeros(idx.size)
    for u, v, w in edges:
        cut += w * (((idx >> u) ^ (idx >> v)) & 1)
    return cut


def qaoa_expected_cut(n_nodes: int, edges, gamma: float, beta: float) -> float:
    """Expected cut of the p=1 QAOA state H^n, RZZ(w*gamma) per edge,
    RX(2*beta) per node."""
    gates = [("h", (q,), None) for q in range(n_nodes)]
    gates += [("rzz", (u, v), w * gamma) for u, v, w in edges]
    gates += [("rx", (q,), 2.0 * beta) for q in range(n_nodes)]
    psi = simulate(n_nodes, gates)
    return float(np.sum(np.abs(psi) ** 2 * cut_values(n_nodes, edges)))


def pauli_matrix(ops: str) -> np.ndarray:
    """Dense matrix of a Pauli string, ``ops[i]`` on qubit i (little-endian)."""
    table = {"I": np.eye(2, dtype=complex), "X": _FIXED["x"],
             "Y": _FIXED["y"], "Z": _FIXED["z"]}
    out = np.ones((1, 1), dtype=complex)
    for op in ops:
        out = np.kron(table[op], out)
    return out


def aligned_deviation(x_quantum: np.ndarray, x_classical: np.ndarray) -> float:
    """min over a global phase of || x_q e^{i phi} - x_c/||x_c|| ||."""
    xc = x_classical / np.linalg.norm(x_classical)
    overlap = np.vdot(xc, x_quantum)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(x_quantum * np.conj(phase) - xc))


def qasm_text(n_qubits: int, gates) -> str:
    """OpenQASM 2 text of a gate list; angles as round-tripping decimals."""
    lines = ["OPENQASM 2.0;", f"qreg q[{n_qubits}];"]
    for name, qubits, angle in gates:
        args = ",".join(f"q[{q}]" for q in qubits)
        head = name if angle is None else f"{name}({angle!r})"
        lines.append(f"{head} {args};")
    return "\n".join(lines) + "\n"


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)
