"""Quantum linear solver with end-to-end classical comparison.

Pipeline for a Hermitian positive-definite system ``A x = b``:

1.  Classical pre-processing: rescale the spectrum into (0, 1/2] with
    ``scale = 1 / (2 * gershgorin_bound)`` and (separately) expand ``A``
    over the Pauli basis from bit masks: one gather ``A[i, i ^ x]`` per X
    mask, then one product with the +-1 Walsh-Hadamard matrix over Z masks.
    The gather index, Walsh matrix, masks, phases and labels depend only on
    ``n`` and are built once per size.
2.  Circuit synthesis on ``n + m + 1`` qubits (system, clock, ancilla),
    laid out in ``A``'s eigenbasis ``V``: one unitary on system + ancilla
    encodes ``b`` and moves the system into the eigenbasis
    (``V^dagger U_b``, with ``U_b`` a Householder reflector whose first
    column is ``b / |b|``) and the ancilla into ``B^dagger``'s frame, where
    ``RY(t) = B RZ(t) B^dagger``.  Phase estimation of
    ``exp(2*pi*i*A*scale)`` then needs only diagonal controlled powers: the
    power on clock qubit ``j`` multiplies eigen-index ``k`` by
    ``exp(2*pi*i*scale*lambda_k*2**j)`` when that clock qubit is 1.  The
    inversion rotates the ancilla by ``2*arcsin(C / lambda_estimate)`` per
    clock value with ``C = 2**-m``: in ``B``'s frame an RZ multiplexed by
    the clock, one diagonal over clock + ancilla.  The phase estimation is
    then un-computed and one unitary returns the system and the ancilla to
    the computational basis (``V`` and ``B``).
3.  Exact simulation, postselection on ancilla=1 with the clock returned
    to zero, and normalization of the system register.
4.  Comparison against LAPACK's pivoted LU solve, reporting the
    phase-aligned relative L2 deviation.

The clock blocks (the Hadamards, the inverse QFT, the inversion and the
QFT) depend only on ``(n, m)``: they are built and checked once per size
and shared, read-only, by every circuit of that size, in a cache bounded
by count and by bytes.  The basis changes and the clock Fourier transforms
enter through the simulator's unitary escape hatch, the controlled powers
and the inversion through its diagonal one (a phase vector, applied by one
broadcast multiply); they never appear in assembly output.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, Gate, GateKind, PauliSum
from .simsv import _TO_AXIS, MAX_QUBITS, _parity_signs, simulate

_I_POW = np.array([1, 1j, -1, -1j])  # i**k for k = 0..3
_B = _TO_AXIS[GateKind.RY]  # RY(t) = B RZ(t) B^dagger
_B_DAGGER = _B.conj().T
_CLOCK_CACHE_KEYS = 8  # sizes whose clock blocks are kept, at most
_CLOCK_CACHE_BYTES = 64 << 20  # and the bytes their matrices hold, at most


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


def _state_prep(b_hat: np.ndarray) -> np.ndarray:
    """Unitary whose first column is the unit vector ``b_hat``: the
    Householder reflector ``alpha (I - 2 u u^dagger / u^dagger u)`` with
    ``u = e_0 - conj(alpha) b_hat`` and ``alpha = b_hat[0] / |b_hat[0]|``
    (1 when ``b_hat[0]`` is 0)."""
    b_hat = np.asarray(b_hat, dtype=complex)
    head = abs(b_hat[0])
    alpha = b_hat[0] / head if head > 0 else 1.0
    u = -np.conj(alpha) * b_hat
    tail = np.vdot(u[1:], u[1:]).real
    # u[0] = 1 - |b_hat[0]|, written without cancellation near b_hat = e_0
    u[0] = tail / (1.0 + head)
    prep = np.eye(len(b_hat), dtype=complex)
    if tail > 0:
        prep -= (2.0 / (u[0].real ** 2 + tail)) * np.outer(u, u.conj())
    return alpha * prep


def _qft_matrix(m: int) -> np.ndarray:
    dim = 1 << m
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)


def _build_clock_gates(n: int, m: int) -> tuple:
    """The Hadamards on the clock, the inverse QFT, the eigenvalue
    inversion on clock + ancilla and the QFT, each matrix read-only."""
    clock = tuple(range(n, n + m))
    qft = _qft_matrix(m)
    # clock value v encodes lambda = v / 2^m; sin(theta_v / 2) = C / lambda
    # = 1 / v with C = 2^-m, and clock 0 leaves the ancilla alone
    half = np.zeros(1 << m)
    half[1:] = np.arcsin(1.0 / np.arange(1, 1 << m))
    rz = np.exp(1j * np.concatenate([-half, half]))  # RZ(theta_v) on the ancilla
    blocks = (Gate(GateKind.UNITARY, clock, matrix=qft.conj().T),
              Gate(GateKind.DIAGONAL, clock + (n + m,), matrix=rz),
              Gate(GateKind.UNITARY, clock, matrix=qft))
    for gate in blocks:
        gate.matrix.flags.writeable = False
    return (tuple(Gate(GateKind.H, (q,)) for q in clock),) + blocks


_CacheInfo = namedtuple("_CacheInfo", "hits misses currsize nbytes")


class _ClockCache:
    """:func:`_build_clock_gates` per ``(n, m)``, least recently used first
    out, holding at most ``_CLOCK_CACHE_KEYS`` sizes and
    ``_CLOCK_CACHE_BYTES`` bytes of matrices.  A size larger than the byte
    budget is built on every call and not kept."""

    def __init__(self):
        self._lock = threading.Lock()
        self.cache_clear()

    def __call__(self, n: int, m: int) -> tuple:
        key = (n, m)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[0]
            self._misses += 1
        gates = _build_clock_gates(n, m)
        size = sum(g.matrix.nbytes for g in gates[1:])
        with self._lock:
            if size <= _CLOCK_CACHE_BYTES and key not in self._entries:
                self._entries[key] = (gates, size)
                self._nbytes += size
                while (len(self._entries) > _CLOCK_CACHE_KEYS
                       or self._nbytes > _CLOCK_CACHE_BYTES):
                    self._nbytes -= self._entries.popitem(last=False)[1][1]
        return gates

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, len(self._entries), self._nbytes)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries: OrderedDict = OrderedDict()
            self._hits = self._misses = self._nbytes = 0


_clock_gates = _ClockCache()


def _on_system_and_ancilla(system: np.ndarray, ancilla: np.ndarray) -> np.ndarray:
    """``system`` on the system qubits times the 2x2 ``ancilla`` on the
    ancilla, little-endian over (system..., ancilla): ``kron(ancilla, system)``."""
    dim = len(system)
    return (ancilla[:, None, :, None] * system[None, :, None, :]).reshape(2 * dim, 2 * dim)


# ---------------------------------------------------------------------------
# circuit synthesis
# ---------------------------------------------------------------------------


def build_hhl_circuit(sys: LinearSystem) -> Circuit:
    """Full solver circuit on ``n + m + 1`` qubits.

    Register layout: system = qubits ``0..n-1``, clock = ``n..n+m-1``,
    ancilla = ``n+m``.  Gate 0 encodes ``b`` in ``A``'s eigenbasis, gates
    ``1..2m+1`` are the phase estimation (``m`` Hadamards, ``m`` diagonal
    controlled powers, the inverse QFT), gate ``2m+2`` is the inversion, and
    the rest un-compute the estimation and change the basis back.  When
    ``m`` cannot resolve the smallest rescaled eigenvalue a warning is
    printed (estimation still proceeds).
    """
    n, m = sys.n, sys.m
    dim = sys.dim
    system = tuple(range(n))
    outer = system + (n + m,)  # the qubits of the two basis changes
    evals, evecs = np.linalg.eigh(sys.matrix)
    smallest = evals[0] * sys.scale
    if smallest < 1.0 / (1 << m):
        import warnings

        warnings.warn(
            f"clock register of {m} qubit(s) cannot resolve the smallest "
            f"rescaled eigenvalue {smallest:.3g}",
            stacklevel=2,
        )
    hadamards, qft_dagger, inversion, qft = _clock_gates(n, m)

    # (1) amplitude-encode b in the eigenbasis; the ancilla into B's frame
    prep = evecs.conj().T @ _state_prep(sys.rhs / np.linalg.norm(sys.rhs))

    # (2) phase estimation of exp(2 pi i A scale): clock qubit j multiplies
    # eigen-index k by exp(2 pi i scale lambda_k 2^j)
    powers = np.ones((m, 2 * dim), dtype=complex)
    powers[:, dim:] = np.exp(1j * np.outer(2.0 ** np.arange(m),
                                           2 * np.pi * sys.scale * evals))
    controlled = [Gate(GateKind.DIAGONAL, system + (n + j,), matrix=row)
                  for j, row in enumerate(powers)]
    undo = [Gate(GateKind.DIAGONAL, system + (n + j,), matrix=row)
            for j, row in enumerate(powers.conj())]

    # (3) eigenvalue inversion, then (4) the inverse phase estimation
    gates = [Gate(GateKind.UNITARY, outer, matrix=_on_system_and_ancilla(prep, _B_DAGGER)),
             *hadamards, *controlled, qft_dagger,
             inversion,
             qft, *reversed(undo), *hadamards,
             Gate(GateKind.UNITARY, outer, matrix=_on_system_and_ancilla(evecs, _B))]
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
