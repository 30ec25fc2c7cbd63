"""Quantum linear solver with end-to-end classical comparison.

Pipeline for a Hermitian positive-definite system ``A x = b``:

1.  Classical pre-processing: rescale the spectrum into (0, 1/2] with
    ``scale = 1 / (2 * gershgorin_bound)`` and (separately) expand ``A``
    over the Pauli basis from bit masks: one gather ``A[i, i ^ x]`` per X
    mask, then one product with the +-1 Walsh-Hadamard matrix over Z masks.
    The gather index, Walsh matrix, masks, phases and labels depend only on
    ``n`` and are built once per size.
2.  Circuit synthesis on ``n + m + 1`` qubits (system, clock, ancilla):
    amplitude-encode ``b``, phase-estimate ``exp(2*pi*i*A*scale)`` with
    controlled matrix powers injected as exact unitaries, rotate the
    ancilla by ``2*arcsin(C / lambda_estimate)`` per clock value with
    ``C = 2**-m``, then un-compute the phase estimation.  The clock blocks
    (the inverse QFT, the inversion and the QFT) depend only on ``(n, m)``:
    they are built and checked once per size and shared, read-only, by
    every circuit of that size.
3.  Exact simulation, postselection on ancilla=1 with the clock returned
    to zero, and normalization of the system register.
4.  Comparison against LAPACK's pivoted LU solve, reporting the
    phase-aligned relative L2 deviation.

Controlled powers, the clock Fourier transform and the eigenvalue-inversion
block enter through the simulator's unitary escape hatch; they never appear
in assembly output.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, Gate, GateKind, PauliSum
from .simsv import MAX_QUBITS, _parity_signs, simulate

_I_POW = np.array([1, 1j, -1, -1j])  # i**k for k = 0..3


class HhlError(ValueError):
    pass


def gershgorin_bound(matrix: np.ndarray) -> float:
    """Upper bound on the largest eigenvalue of a Hermitian matrix."""
    a = np.asarray(matrix)
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    return float(np.max(np.real(np.diag(a)) + radii))


@dataclass(frozen=True)
class LinearSystem:
    """Hermitian positive-definite system prepared for the quantum solver.

    ``scale`` maps the spectrum of ``matrix`` into (0, 1); it is derived
    from the Gershgorin bound at construction.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n: int
    m: int
    scale: float

    @classmethod
    def build(cls, matrix, rhs, m: int = 6) -> "LinearSystem":
        a = np.asarray(matrix, dtype=complex)
        b = np.asarray(rhs, dtype=complex).ravel()
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise HhlError("matrix must be square")
        dim = a.shape[0]
        n = dim.bit_length() - 1
        if 1 << n != dim:
            raise HhlError(f"dimension {dim} is not a power of two")
        if b.shape != (dim,):
            raise HhlError("right-hand side length does not match the matrix")
        _check_finite(a)
        if not np.isfinite(b).all():
            raise HhlError("right-hand side has a non-finite entry")
        if np.max(np.abs(a - a.conj().T)) > 1e-10:
            raise HhlError("matrix is not Hermitian within 1e-10")
        if np.linalg.norm(b) == 0:
            raise HhlError("right-hand side is zero")
        if m < 1:
            raise HhlError("need at least one clock qubit")
        scale = 1.0 / (2.0 * gershgorin_bound(a))
        evals = np.linalg.eigvalsh(a) * scale
        if evals[0] <= 0 or evals[-1] >= 1:
            raise HhlError(
                "rescaled spectrum must lie in (0, 1): matrix must be "
                "positive definite"
            )
        return cls(a, b, n, m, scale)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @property
    def total_qubits(self) -> int:
        return self.n + self.m + 1


@dataclass(frozen=True)
class HhlResult:
    """Normalized quantum solution, classical solution and their distance."""

    x_quantum: np.ndarray
    x_classical: np.ndarray
    deviation: float
    success_prob: float


# ---------------------------------------------------------------------------
# classical pre/post-processing
# ---------------------------------------------------------------------------


def _check_finite(a: np.ndarray) -> None:
    # NaN would slip through the Hermitian check: a NaN maximum compares False
    if not np.isfinite(a).all():
        raise HhlError("matrix has a non-finite entry")


@functools.lru_cache(maxsize=8)
def _pauli_tables(n: int) -> tuple:
    """Read-only tables of :func:`pauli_decompose` on ``n`` qubits: the
    gather index ``[x, i] -> i ^ x``, the Walsh matrix, each term's X and Z
    masks and ``i**n_y``, and the labels, in ``itertools.product("IXYZ")``
    order."""
    dim = 1 << n
    idx = np.arange(dim)
    walsh = np.stack([_parity_signs(n, z) for z in idx])  # symmetric: [i, z]
    # term t's digit for qubit j is base-4 digit n-1-j of t: 0..3 = I, X, Y, Z
    digits = (np.arange(dim * dim)[:, None] >> 2 * np.arange(n - 1, -1, -1)) & 3
    bits = 1 << np.arange(n)
    x_masks, z_masks = ((digits == 1) | (digits == 2)) @ bits, (digits >= 2) @ bits
    phases = _I_POW[np.sum(digits == 2, axis=1) % 4]
    arrays = (idx, idx[:, None] ^ idx, walsh, x_masks, z_masks, phases)
    for arr in arrays:
        arr.flags.writeable = False
    labels = tuple("".join("IXYZ"[d] for d in row) for row in digits)
    return arrays + (labels,)


def pauli_decompose(matrix) -> PauliSum:
    """Expand a Hermitian matrix over Pauli strings: c_P = Tr(P A) / 2^n.

    ``Tr(P A) = i**n_y sum_i (-1)**|i & z| A[i, i ^ x]`` for ``P``'s masks
    ``(x, z, n_y)``.  Terms come in ``itertools.product("IXYZ")`` order, zeros dropped.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise HhlError("matrix must be square")
    dim = a.shape[0]
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise HhlError(f"dimension {dim} is not a power of two")
    _check_finite(a)
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise HhlError("matrix is not Hermitian within 1e-10")
    idx, gather, walsh, x_masks, z_masks, phases, labels = _pauli_tables(n)
    traces = a[idx, gather] @ walsh  # [x, z]: Tr(P A) / i**n_y
    coeffs = traces[x_masks, z_masks] * phases / dim
    if np.any(np.abs(coeffs.imag) > 1e-10):
        raise HhlError("non-real Pauli coefficient on a Hermitian input")
    keep = np.flatnonzero(np.abs(coeffs.real) > 1e-12)
    return PauliSum((float(coeffs.real[k]), labels[k]) for k in keep)


def pauli_string_matrix(ops: str) -> np.ndarray:
    """Dense matrix of a Pauli string (ops[i] acts on qubit i, little-endian)."""
    return pauli_sum_matrix(PauliSum([(1.0, ops)]))


def pauli_sum_matrix(psum: PauliSum) -> np.ndarray:
    """Dense matrix: string (x, z, n_y) adds i**n_y (-1)**|i & z| at [i ^ x, i]."""
    if not psum.terms:
        raise HhlError("empty Pauli sum has no definite dimension")
    n = psum.num_qubits
    cols = np.arange(1 << n)
    out = np.zeros((1 << n, 1 << n), dtype=complex)
    for coeff, string in psum.terms:
        x_mask, z_mask, n_y = string.masks
        out[cols ^ x_mask, cols] += coeff * _I_POW[n_y % 4] * _parity_signs(n, z_mask)
    return out


def classical_solve(system, rhs=None) -> np.ndarray:
    """Reference solution via LAPACK's pivoted LU factorization.

    Accepts a :class:`LinearSystem` or an explicit (matrix, rhs) pair, and
    verifies the relative residual is below 1e-10.
    """
    if isinstance(system, LinearSystem):
        a, b = system.matrix, system.rhs
    else:
        a = np.asarray(system, dtype=complex)
        b = np.asarray(rhs, dtype=complex).ravel()
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise HhlError("matrix is singular to working precision")
    residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    if residual > 1e-10:
        raise HhlError(f"solver residual {residual:.2e} exceeds 1e-10")
    return x


def _completion_unitary(vec: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the given unit vector (Gram-Schmidt)."""
    dim = vec.shape[0]
    cols = [vec]
    for k in range(dim):
        cand = np.zeros(dim, dtype=complex)
        cand[k] = 1.0
        for c in cols:
            cand = cand - np.vdot(c, cand) * c
        norm = np.linalg.norm(cand)
        if norm > 1e-9:
            cols.append(cand / norm)
        if len(cols) == dim:
            break
    return np.stack(cols, axis=1)


def _qft_matrix(m: int) -> np.ndarray:
    dim = 1 << m
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)


@functools.lru_cache(maxsize=8)
def _clock_gates(n: int, m: int) -> tuple[Gate, Gate, Gate]:
    """The blocks of :func:`build_hhl_circuit` that depend only on the
    register sizes: the inverse QFT on the clock, the eigenvalue inversion
    on clock + ancilla, and the QFT on the clock.  Each is checked once per
    ``(n, m)`` and its matrix is read-only, since every circuit of that size
    shares it."""
    clock = tuple(range(n, n + m))
    qft = _qft_matrix(m)
    # clock value v encodes lambda = v / 2^m
    mdim = 1 << m
    inv = np.zeros((2 * mdim, 2 * mdim), dtype=complex)
    inv[0, 0] = inv[mdim, mdim] = 1.0  # clock 0: leave the ancilla alone
    for v in range(1, mdim):
        sin = 1.0 / v  # C / lambda with C = 2^-m
        cos = np.sqrt(1.0 - sin * sin)
        inv[v, v] = cos
        inv[v + mdim, v] = sin
        inv[v, v + mdim] = -sin
        inv[v + mdim, v + mdim] = cos
    gates = (Gate(GateKind.UNITARY, clock, matrix=qft.conj().T),
             Gate(GateKind.UNITARY, clock + (n + m,), matrix=inv),
             Gate(GateKind.UNITARY, clock, matrix=qft))
    for gate in gates:
        gate.matrix.flags.writeable = False
    return gates


# ---------------------------------------------------------------------------
# circuit synthesis
# ---------------------------------------------------------------------------


def build_hhl_circuit(sys: LinearSystem) -> Circuit:
    """Full solver circuit on ``n + m + 1`` qubits.

    Register layout: system = qubits ``0..n-1``, clock = ``n..n+m-1``,
    ancilla = ``n+m``.  When ``m`` cannot resolve the smallest rescaled
    eigenvalue a warning is printed (estimation still proceeds).
    """
    n, m = sys.n, sys.m
    dim = sys.dim
    clock = tuple(range(n, n + m))
    evals, evecs = np.linalg.eigh(sys.matrix)
    smallest = evals[0] * sys.scale
    if smallest < 1.0 / (1 << m):
        import warnings

        warnings.warn(
            f"clock register of {m} qubit(s) cannot resolve the smallest "
            f"rescaled eigenvalue {smallest:.3g}",
            stacklevel=2,
        )
    gates: list[Gate] = []

    # (1) amplitude-encode b
    b_hat = sys.rhs / np.linalg.norm(sys.rhs)
    gates.append(Gate(GateKind.UNITARY, tuple(range(n)),
                      matrix=_completion_unitary(b_hat)))

    # (2) phase estimation of exp(2 pi i A scale)
    qpe: list[Gate] = [Gate(GateKind.H, (q,)) for q in clock]
    for j, cq in enumerate(clock):
        phases = np.exp(2j * np.pi * sys.scale * evals * (1 << j))
        u_pow = (evecs * phases) @ evecs.conj().T
        ctrl = np.eye(2 * dim, dtype=complex)
        ctrl[1::2, 1::2] = u_pow
        ctrl[1::2, 0::2] = 0.0
        ctrl[0::2, 1::2] = 0.0
        gates_target = (cq,) + tuple(range(n))
        qpe.append(Gate(GateKind.UNITARY, gates_target, matrix=ctrl))
    qft_dagger, inversion, qft = _clock_gates(n, m)
    gates.extend(qpe)
    gates.append(qft_dagger)

    # (3) eigenvalue inversion
    gates.append(inversion)

    # (4) inverse phase estimation
    gates.append(qft)
    gates.extend(g.adjoint() for g in reversed(qpe))
    return Circuit(sys.total_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def phase_align(
    x_quantum: np.ndarray, x_classical: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(x_q * e^{i phi}, x_c / ||x_c||)`` with the global phase
    ``phi`` chosen to minimize the distance between the two vectors.

    The minimizing phase is the conjugate phase of ``<x_c, x_q>``; a zero
    overlap leaves ``x_q`` unrotated.
    """
    xc_hat = x_classical / np.linalg.norm(x_classical)
    overlap = np.vdot(xc_hat, x_quantum)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return x_quantum * np.conj(phase), xc_hat


def phase_aligned_deviation(x_quantum: np.ndarray, x_classical: np.ndarray) -> float:
    """min over a global phase of || x_q * e^{i phi} - x_c / ||x_c|| ||_2.

    Computed as the norm of the aligned difference rather than from the
    overlap as ``sqrt(2 - 2|<x_c, x_q>|)``: that form loses everything
    below ~1e-8 to cancellation and assumes ``||x_q|| = 1``.
    """
    xq_aligned, xc_hat = phase_align(x_quantum, x_classical)
    return float(np.linalg.norm(xq_aligned - xc_hat))


def solve(sys: LinearSystem) -> HhlResult:
    """Simulate the solver exactly and compare with the classical solution."""
    if sys.total_qubits > MAX_QUBITS:
        raise HhlError(
            f"{sys.total_qubits} qubits exceeds the simulator cap of {MAX_QUBITS}"
        )
    circuit = build_hhl_circuit(sys)
    state = simulate(circuit)
    # keep amplitudes with clock = 0 and ancilla = 1
    offset = 1 << (sys.n + sys.m)
    x_raw = state.amps[offset:offset + sys.dim]
    success = float(np.linalg.norm(x_raw) ** 2)
    if success < 1e-12:
        raise HhlError("postselection probability is zero")
    x_q = x_raw / np.linalg.norm(x_raw)
    x_c = classical_solve(sys)
    return HhlResult(x_q, x_c, phase_aligned_deviation(x_q, x_c), success)


# ---------------------------------------------------------------------------
# file interface
# ---------------------------------------------------------------------------


def _entry_to_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise HhlError(f"bad matrix/vector entry {value!r}")


def load_system(path, m: int | None = None) -> LinearSystem:
    """Read a system from JSON: {"A": rows, "b": vector, "m": clock qubits}.

    Entries are numbers or [real, imag] pairs.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise HhlError(f"cannot read system file {path}: {exc}")
    try:
        a = np.array([[_entry_to_complex(v) for v in row] for row in data["A"]])
        b = np.array([_entry_to_complex(v) for v in data["b"]])
    except (KeyError, TypeError) as exc:
        raise HhlError(f"bad system file {path}: {exc}")
    clock = m if m is not None else int(data.get("m", 6))
    return LinearSystem.build(a, b, m=clock)


def random_spd_system(
    rng: np.random.Generator, dim: int = 4, cond: float = 8.0, m: int = 6
) -> LinearSystem:
    """Random well-conditioned SPD system: eigenvalues uniform in
    [1/cond, 1] over a random orthogonal basis, Gaussian right-hand side."""
    evals = rng.uniform(1.0 / cond, 1.0, size=dim)
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    a = basis @ np.diag(evals) @ basis.T
    a = 0.5 * (a + a.T)
    b = rng.normal(size=dim)
    return LinearSystem.build(a, b, m=m)
