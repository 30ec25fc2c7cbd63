"""Dense statevector simulator: ground truth for every other module.

Gates are applied by in-place stride iteration over amplitude pairs (no
full-matrix construction), which keeps 20+ qubits workable on a desk
machine.  Sampling draws one multinomial from numpy's seeded PCG64
generator over the fixed little-endian amplitude ordering, so counts are
reproducible for a given seed.

One compiler (:func:`_compile`) turns a gate list into batch ops for both
the lowering below and knitting's fragments: each maximal run of diagonal
gates, bound or symbolic, becomes one phase-vector multiply; each maximal
run of symbolic RX/RY gates on distinct qubits becomes one layer, a phase
vector between two basis changes of dense matrices on at most four adjacent
qubits each; and each other 1q gate one 2x2 kernel call.  A parametric
circuit simulated with ``bindings`` is lowered once and the lowering is
kept on the circuit (:attr:`Circuit.memo`): the gates before the first
symbolic one are applied to |0...0> once, and the rest are compiled, so
repeated evaluations (variational optimizers) build no gates.  Pauli
strings are evaluated from their bit masks without applying gates to a
state copy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import kernels
from .circuit import Circuit, Gate, GateKind, PauliString, PauliSum

MAX_QUBITS = 24

# phi of each fixed diagonal 1q gate, diag(1, e^{i phi})
_DIAG_1Q = {GateKind.Z: np.pi, GateKind.S: np.pi / 2,
            GateKind.SDG: -np.pi / 2, GateKind.T: np.pi / 4}
_Y_PHASE = (1.0 + 0j, 1j, -1.0 + 0j, -1j)  # i**n_y

# The basis B of each symbolic rotation's axis, B Z B^dagger = X or Y, and the
# most adjacent qubits whose basis change is one dense matrix.
_TO_AXIS = {GateKind.RX: np.array([[1, 1], [1, -1]]) / np.sqrt(2),
            GateKind.RY: np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)}
_CHUNK_QUBITS = 4


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over 2**n_qubits little-endian basis states."""

    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128)
        if a.shape != (1 << self.n_qubits,):
            raise SimulationError(
                f"amplitude length {a.shape} does not match {self.n_qubits} qubit(s)"
            )
        object.__setattr__(self, "amps", a)

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2 (phase-insensitive overlap)."""
        return float(abs(np.vdot(self.amps, other.amps)) ** 2)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def _apply_gate(amps: np.ndarray, gate) -> None:
    kind = gate.kind
    if kind is GateKind.MEASURE:
        return
    if kind is GateKind.CX:
        kernels.apply_cx(amps, gate.qubits[0], gate.qubits[1])
    elif kind is GateKind.CZ:
        kernels.apply_cz(amps, gate.qubits[0], gate.qubits[1])
    elif kind is GateKind.RZZ:
        kernels.apply_rzz(amps, gate.qubits[0], gate.qubits[1], float(gate.param))
    elif kind is GateKind.UNITARY:
        if len(gate.qubits) == 1:
            kernels.apply_single(amps, gate.qubits[0], gate.matrix)
        elif len(gate.qubits) == 2:
            kernels.apply_two(amps, gate.qubits[0], gate.qubits[1], gate.matrix)
        else:
            kernels.apply_unitary(amps, gate.qubits, gate.matrix)
    elif kind in _DIAG_1Q or kind is GateKind.RZ:
        kernels.apply_diag_single(amps, gate.qubits[0], *gate.unitary().diagonal())
    else:
        kernels.apply_single(amps, gate.qubits[0], gate.unitary())


def simulate(
    circuit: Circuit,
    initial: StateVector | None = None,
    bindings: Mapping[str, float] | None = None,
) -> StateVector:
    """Run ``circuit`` on ``initial`` (default |0...0>); measures are ignored.

    ``bindings`` gives a value to every symbolic parameter, as
    :meth:`Circuit.bind` would (the same ``GateError`` for a missing or
    unknown name), without building the bound circuit.
    """
    if circuit.n_qubits > MAX_QUBITS:
        raise SimulationError(
            f"{circuit.n_qubits} qubits exceeds the simulator cap of {MAX_QUBITS}"
        )
    if bindings is None and not circuit.is_bound:
        raise SimulationError(f"unbound parameters: {circuit.params}")
    if bindings is not None:
        circuit.check_bindings(bindings)
    if initial is not None and initial.n_qubits != circuit.n_qubits:
        raise SimulationError("initial state width does not match circuit")
    if circuit.is_bound:
        amps = _start_amps(circuit.n_qubits, initial)
        for gate in circuit.gates:
            _apply_gate(amps, gate)
        return StateVector(circuit.n_qubits, amps)
    program = circuit.memo.get("simsv.lowered")
    if program is None:
        program = circuit.memo["simsv.lowered"] = _Lowered(circuit)
    values = {name: float(v) for name, v in bindings.items()}
    return StateVector(circuit.n_qubits, program.run(values, initial))


def _start_amps(n_qubits: int, initial: StateVector | None) -> np.ndarray:
    """A fresh copy of ``initial``'s amplitudes, or of |0...0>."""
    if initial is not None:
        return initial.amps.astype(np.complex128, copy=True)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _parity_signs(n_qubits: int, z_mask: int) -> np.ndarray:
    """(-1)**|i & z_mask| for every basis index i < 2**n_qubits."""
    signs = np.empty(1 << n_qubits)
    signs[0] = 1.0
    for q in range(n_qubits):  # signs[:2**q] is done; qubit q doubles it in place
        low, high = signs[:1 << q], signs[1 << q:2 << q]
        if (z_mask >> q) & 1:
            np.negative(low, out=high)
        else:
            high[...] = low
    return signs


def _phase_weights(gate) -> dict[int, float] | None:
    """A diagonal gate as real weights ``w_m`` on parity masks ``m``, its
    phase being ``exp(-i/2 * sum_m w_m (-1)**|i & m|)`` (a symbolic angle's
    weight is per unit of its value), or None for any other gate.  Mask 0,
    a global phase, makes Z/S/SDG/T/CZ exact up to rounding."""
    kind = gate.kind
    bits = [1 << q for q in gate.qubits]
    if kind in (GateKind.RZ, GateKind.RZZ):
        return {sum(bits): gate.param if gate.is_bound else gate.param_scale}
    if kind in _DIAG_1Q:
        phi = _DIAG_1Q[kind]
        return {0: -phi, bits[0]: phi}
    if kind is GateKind.CZ:  # e^{i pi a b}, with a b = (1 - z_a - z_b + z_a z_b) / 4
        h = np.pi / 2
        return {0: -h, bits[0]: h, bits[1]: h, sum(bits): -h}
    return None


def _compile(gates, n_qubits: int) -> list[tuple]:
    """Batch ops for ``gates``, each applied by :func:`_apply_op` to one
    state or to a 2-D batch (one state per row):

    * ``("phase", fixed, generators)`` per maximal run of diagonal gates:
      ``fixed * exp(-i/2 * sum_s value_s * generator_s)``, where ``fixed``
      (or None) is the run's bound part, exponentiated here, and each
      symbol's generator is a real vector that includes ``param_scale``;
    * ``("layer", chunks, phase)`` per maximal run of symbolic RX/RY gates
      on distinct qubits (a repeated qubit starts the next layer).  RX(t)
      is ``H RZ(t) H`` and RY(t) is ``(S H) RZ(t) (S H)^dagger``, so the
      layer is a basis change to Z, the "phase" op of its RZ(t) gates, and
      the change back.  The basis change acts on runs of at most
      ``_CHUNK_QUBITS`` adjacent layer qubits: each chunk is ``(lo, to_z,
      back)``, two dense matrices over qubits ``lo, lo+1, ...``;
    * ``("single", q, 2x2)`` per other bound 1q gate;
    * ``("gate", gate)`` per other gate, applied row by row (the numpy
      multi-qubit kernels take n from the array size).

    Measures are dropped.  An item that is not a :class:`Gate` (a caller's
    own marker) ends the current run and is passed through unchanged.
    """
    ops: list[tuple] = []
    signs: dict[int, np.ndarray] = {}  # each parity vector, built once
    run: dict = {}  # symbol (None: the bound gates) -> {mask: weight}
    layer: dict[int, Gate] = {}  # qubit -> the symbolic RX/RY on it

    def phase_op(weights: dict) -> tuple:
        vectors = {}
        for name, by_mask in weights.items():
            for m in by_mask.keys() - signs.keys():
                signs[m] = _parity_signs(n_qubits, m)
            vectors[name] = sum(w * signs[m] for m, w in by_mask.items())
        fixed = np.exp(-0.5j * vectors.pop(None)) if None in vectors else None
        return ("phase", fixed, tuple(vectors.items()))

    def layer_op() -> tuple:
        weights: dict = {}
        for q, g in layer.items():
            weights.setdefault(g.param, {})[1 << q] = g.param_scale
        chunks, qubits = [], sorted(layer)
        while qubits:
            k = 1
            while (k < min(_CHUNK_QUBITS, len(qubits))
                   and qubits[k] == qubits[0] + k):
                k += 1
            back = functools.reduce(
                np.kron, [_TO_AXIS[layer[q].kind] for q in reversed(qubits[:k])])
            chunks.append((qubits[0], np.ascontiguousarray(back.conj().T), back))
            qubits = qubits[k:]
        return ("layer", tuple(chunks), phase_op(weights))

    def end_runs():
        if run:
            ops.append(phase_op(run))
            run.clear()
        if layer:
            ops.append(layer_op())
            layer.clear()

    for gate in gates:
        is_gate = isinstance(gate, Gate)
        weights = _phase_weights(gate) if is_gate else None
        if weights is not None:
            if layer:
                end_runs()
            acc = run.setdefault(None if gate.is_bound else gate.param, {})
            for m, w in weights.items():
                acc[m] = acc.get(m, 0.0) + w
        elif is_gate and not gate.is_bound:  # a symbolic RX or RY
            if run or gate.qubits[0] in layer:
                end_runs()
            layer[gate.qubits[0]] = gate
        else:
            end_runs()
            if not is_gate:
                ops.append(gate)
            elif len(gate.qubits) > 1:
                ops.append(("gate", gate))
            elif gate.kind is not GateKind.MEASURE:
                ops.append(("single", gate.qubits[0], gate.unitary()))
    end_runs()
    return ops


def _apply_op(op, amps: np.ndarray, values: Mapping[str, float] | None = None) -> None:
    """Apply one :func:`_compile` op in place to ``amps``, one state or a 2-D
    batch; ``values`` binds the symbols of "phase" and "layer" ops."""
    kind = op[0]
    if kind == "phase":
        _, fixed, generators = op
        if generators:
            amps *= np.exp(-0.5j * sum(values[s] * gen for s, gen in generators))
        if fixed is not None:
            amps *= fixed
    elif kind == "layer":
        _, chunks, phase = op
        for lo, to_z, _ in chunks:
            _apply_chunk(amps, lo, to_z)
        _apply_op(phase, amps, values)
        for lo, _, back in chunks:
            _apply_chunk(amps, lo, back)
    elif kind == "single":
        kernels.apply_single(amps.reshape(-1), op[1], op[2])
    else:
        for row in amps.reshape(-1, amps.shape[-1]):
            _apply_gate(row, op[1])


def _apply_chunk(amps: np.ndarray, lo: int, m: np.ndarray) -> None:
    """Apply the dense ``m`` in place to qubits ``lo, lo+1, ...`` of one state
    or a 2-D batch.  A real ``m`` (an RX-only chunk) acts on the amplitudes
    viewed as (real, imaginary) float pairs, half the arithmetic."""
    x = amps.view(m.dtype)
    view = x.reshape(-1, len(m), (x.size // amps.size) << lo)
    view[...] = np.matmul(m, view)


class _Lowered:
    """A parametric circuit compiled for repeated evaluation: the gates
    before the first symbolic one, as ops and applied once to |0...0>, and
    :func:`_compile`'s ops for the rest."""

    def __init__(self, circuit: Circuit):
        n = circuit.n_qubits
        gates = circuit.gates
        start = next(i for i, g in enumerate(gates) if not g.is_bound)
        self.prefix = _compile(gates[:start], n)
        self.start_amps = _start_amps(n, None)
        for op in self.prefix:
            _apply_op(op, self.start_amps)
        self.ops = _compile(gates[start:], n)

    def run(self, values: Mapping[str, float], initial: StateVector | None) -> np.ndarray:
        if initial is None:
            amps = self.start_amps.copy()
        else:
            amps = _start_amps(initial.n_qubits, initial)
            for op in self.prefix:
                _apply_op(op, amps)
        for op in self.ops:
            _apply_op(op, amps, values)
        return amps


def _string_layout(string: PauliString) -> tuple:
    """How :func:`string_expectation` reads ``string``, kept on the string.

    The amplitudes are viewed as a tensor whose axes are maximal runs of
    adjacent qubits with the same (x, z) mask bits.  Reversing an axis of
    ``2**k`` entries flips all its ``k`` bits, so ``psi[i ^ x_mask]`` is
    the tensor with every x axis reversed (a view).  The parity signs
    (-1)**|i & z_mask| depend only on the z axes, so they are kept as a
    tensor of ``2**|z_mask|`` entries that broadcasts over the others
    (None when ``z_mask`` is 0).
    """
    layout = string.memo.get("simsv.layout")
    if layout is not None:
        return layout
    x_mask, z_mask, n_y = string.masks
    shape, flip, sign_shape = [], [], []
    q = len(string) - 1  # axis 0 is the most significant qubit
    while q >= 0:
        role = ((x_mask >> q) & 1, (z_mask >> q) & 1)
        k = 1
        while q - k >= 0 and ((x_mask >> (q - k)) & 1, (z_mask >> (q - k)) & 1) == role:
            k += 1
        shape.append(1 << k)
        flip.append(slice(None, None, -1) if role[0] else slice(None))
        sign_shape.append(1 << k if role[1] else 1)
        q -= k
    signs = None
    if z_mask:
        n_z = bin(z_mask).count("1")
        signs = _parity_signs(n_z, (1 << n_z) - 1).reshape(sign_shape)
    layout = (tuple(shape), tuple(flip), signs, _Y_PHASE[n_y % 4])
    string.memo["simsv.layout"] = layout
    return layout


def string_expectation(amps: np.ndarray, string: PauliString) -> complex:
    """``<amps| P |amps>`` for one Pauli string P of matching width.

    Evaluates ``sum_i conj(psi[i ^ x]) (-1)**|i & z| i**n_y psi[i]`` from
    the string's bit masks (:attr:`PauliString.masks`); the amplitudes
    need not be normalized, and the imaginary part is returned unchecked.
    A 2-D ``amps`` is a batch of states, one per row, and gives one value
    per row.
    """
    shape, flip, signs, phase = _string_layout(string)
    if amps.ndim == 2:
        psi = amps.reshape((len(amps),) + shape)
        bra = psi[(slice(None),) + flip].conj()
        if signs is not None:
            bra *= signs
        return phase * (bra * psi).reshape(len(amps), -1).sum(axis=1)
    psi = amps.reshape(shape)
    if signs is None:
        return np.vdot(psi[flip], psi)
    return phase * np.vdot(psi[flip] * signs, psi)


def _observable_split(obs: PauliSum, n_qubits: int) -> tuple:
    """(diagonal or None, off-diagonal terms), kept on the observable.

    Every I/Z term is folded into one real diagonal ``sum_t c_t (-1)**|i & z_t|``.
    """
    split = obs.memo.get("simsv.split")
    if split is not None:
        return split
    diagonal = None
    rest = []
    for coeff, string in obs.terms:
        x_mask, z_mask, _ = string.masks
        if x_mask:
            rest.append((coeff, string))
            continue
        term = _parity_signs(n_qubits, z_mask)
        term *= coeff
        if diagonal is None:
            diagonal = term
        else:
            diagonal += term
    split = (diagonal, tuple(rest))
    obs.memo["simsv.split"] = split
    return split


def expectation(state: StateVector, obs: PauliSum) -> float:
    """<psi| obs |psi> as a real number.

    The imaginary residue must stay below ``1e-10 * max(1, sum|c| * |psi|^2)``,
    so rounding on large weights or norms is not mistaken for a bad input.
    """
    if obs.num_qubits is not None and obs.num_qubits != state.n_qubits:
        raise SimulationError(
            f"observable width {obs.num_qubits} does not match state "
            f"width {state.n_qubits}"
        )
    diagonal, rest = _observable_split(obs, state.n_qubits)
    amps = state.amps
    value = 0.0 + 0.0j
    if diagonal is not None:
        value += np.dot(amps.real**2, diagonal) + np.dot(amps.imag**2, diagonal)
    for coeff, string in rest:
        value += coeff * string_expectation(amps, string)
    if abs(value.imag) > 1e-10 and abs(value.imag) > 1e-10 * max(
        1.0, sum(abs(c) for c, _ in obs.terms) * float(np.vdot(amps, amps).real)
    ):
        raise SimulationError(f"expectation has imaginary residue {value.imag:g}")
    return float(value.real)


def sample(state: StateVector, shots: int, seed: int | None = None) -> dict[str, int]:
    """Draw ``shots`` bitstrings from |amps|^2; deterministic for a seed.

    Keys are little-endian: character ``i`` is the value of qubit ``i``.
    Keys appear in ascending basis-index order.
    """
    if (isinstance(shots, bool) or not isinstance(shots, (int, np.integer))
            or not 1 <= shots < 2**63):
        raise SimulationError(f"shots must be an integer in [1, 2**63), got {shots!r}")
    probs = state.probabilities()
    support = np.flatnonzero(probs)
    weights = probs[support]
    # One multinomial draw over the nonzero bins: memory grows with 2**n, not
    # with ``shots``, and any remainder lands on a bin of nonzero probability.
    cnts = np.random.default_rng(seed).multinomial(shots, weights / weights.sum())
    hit = cnts > 0
    width = f"0{state.n_qubits}b"
    return {format(v, width)[::-1]: c
            for v, c in zip(support[hit].tolist(), cnts[hit].tolist())}
