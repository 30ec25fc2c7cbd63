"""Dense statevector simulator: ground truth for every other module.

Gates are applied by in-place stride iteration over amplitude pairs (no
full-matrix construction), which keeps 20+ qubits workable on a desk
machine.  Sampling uses numpy's seeded PCG64 generator with inverse-CDF
lookup over the fixed little-endian amplitude ordering, so counts are
reproducible for a given seed.

A parametric circuit simulated with ``bindings`` is lowered once and the
lowering is kept on the circuit (:attr:`Circuit.memo`): the gates before
the first symbolic one are applied to |0...0> once, each later run of
diagonal gates that holds a symbolic angle becomes one phase-vector
multiply, and each symbolic RX/RY one 2x2 kernel call, so repeated
evaluations (variational optimizers) build no gates.  Pauli strings are
evaluated from their bit masks without applying gates to a state copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import kernels
from .circuit import Circuit, GateKind, PauliString, PauliSum, rotation_unitary

MAX_QUBITS = 24

_DIAG_1Q = {
    GateKind.Z: (1.0 + 0j, -1.0 + 0j),
    GateKind.S: (1.0 + 0j, 1j),
    GateKind.SDG: (1.0 + 0j, -1j),
    GateKind.T: (1.0 + 0j, np.exp(0.25j * np.pi)),
}
_DIAGONAL_KINDS = frozenset(_DIAG_1Q) | {GateKind.RZ, GateKind.RZZ, GateKind.CZ}
_Y_PHASE = (1.0 + 0j, 1j, -1.0 + 0j, -1j)  # i**n_y


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
    elif kind in _DIAG_1Q:
        p0, p1 = _DIAG_1Q[kind]
        kernels.apply_diag_single(amps, gate.qubits[0], p0, p1)
    elif kind is GateKind.RZ:
        t = float(gate.param)
        kernels.apply_diag_single(
            amps, gate.qubits[0], np.exp(-0.5j * t), np.exp(0.5j * t)
        )
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
    signs = np.ones(1)
    for q in range(n_qubits):
        signs = np.concatenate((signs, -signs if (z_mask >> q) & 1 else signs))
    return signs


def _diagonal_phase(gates, n_qubits: int) -> np.ndarray | None:
    """Product of the phase vectors of bound diagonal ``gates``
    (Z/S/SDG/T/RZ/RZZ/CZ) over all 2**n_qubits basis indices, or None for
    no gates: multiplying amplitudes by it applies the whole run."""
    fixed = None
    for g in gates:
        # (-1)**(parity of g's qubits in i): Z, or ZZ for a 2q gate
        z = _parity_signs(n_qubits, sum(1 << q for q in g.qubits))
        if g.kind in _DIAG_1Q:
            p0, p1 = _DIAG_1Q[g.kind]
            phase = np.where(z < 0, p1, p0)
        elif g.kind is GateKind.CZ:  # -1 only where both bits are set
            a, b = (_parity_signs(n_qubits, 1 << q) for q in g.qubits)
            phase = 0.5 * (1.0 + a + b - z)
        else:  # RZ / RZZ: exp(-i t/2 * Z...Z)
            phase = np.exp(-0.5j * g.param * z)
        fixed = phase.astype(np.complex128) if fixed is None else fixed * phase
    return fixed


class _Lowered:
    """A parametric circuit compiled for repeated evaluation.

    ``ops`` covers the gates after the first symbolic one, as
    ``("gate", gate)`` (a bound gate, applied by its kernel),
    ``("rotation", gate)`` (a symbolic RX/RY, one 2x2 kernel call) or
    ``("diagonal", fixed, generators)``: a maximal run of diagonal gates
    holding at least one symbolic angle, applied as
    ``fixed * exp(-i/2 * sum_s value_s * generator_s)``.  ``fixed`` (or
    None) carries the run's bound gates; each generator is a real diagonal
    that already includes ``param_scale``.
    """

    def __init__(self, circuit: Circuit):
        n = circuit.n_qubits
        gates = circuit.gates
        start = next(i for i, g in enumerate(gates) if not g.is_bound)
        self.prefix = gates[:start]
        self.start_amps = _start_amps(n, None)
        for gate in self.prefix:
            _apply_gate(self.start_amps, gate)
        self.ops: list[tuple] = []
        run: list = []
        for gate in gates[start:]:
            if gate.kind in _DIAGONAL_KINDS:
                run.append(gate)
                continue
            self._add_diagonal_run(run, n)
            run = []
            if gate.kind is not GateKind.MEASURE:
                self.ops.append(("gate" if gate.is_bound else "rotation", gate))
        self._add_diagonal_run(run, n)

    def _add_diagonal_run(self, run, n_qubits: int) -> None:
        if all(g.is_bound for g in run):
            self.ops.extend(("gate", g) for g in run)
            return
        generators: dict[str, np.ndarray] = {}
        for g in run:
            if g.is_bound:
                continue
            term = g.param_scale * _parity_signs(n_qubits, sum(1 << q for q in g.qubits))
            prev = generators.get(g.param)
            generators[g.param] = term if prev is None else prev + term
        fixed = _diagonal_phase([g for g in run if g.is_bound], n_qubits)
        self.ops.append(("diagonal", fixed, tuple(generators.items())))

    def run(self, values: Mapping[str, float], initial: StateVector | None) -> np.ndarray:
        if initial is None:
            amps = self.start_amps.copy()
        else:
            amps = _start_amps(initial.n_qubits, initial)
            for gate in self.prefix:
                _apply_gate(amps, gate)
        for op in self.ops:
            kind = op[0]
            if kind == "gate":
                _apply_gate(amps, op[1])
            elif kind == "rotation":
                g = op[1]
                theta = g.param_scale * values[g.param]
                kernels.apply_single(amps, g.qubits[0], rotation_unitary(g.kind, theta))
            else:
                _, fixed, generators = op
                angle = sum(values[name] * gen for name, gen in generators)
                phase = np.exp(-0.5j * angle)
                if fixed is not None:
                    phase *= fixed
                amps *= phase
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
    if shots < 1:
        raise SimulationError("shots must be >= 1")
    probs = state.probabilities()
    probs = probs / probs.sum()
    cdf = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    idx = np.searchsorted(cdf, draws, side="right")
    idx = np.minimum(idx, probs.size - 1)
    values, cnts = np.unique(idx, return_counts=True)
    n = state.n_qubits
    return {
        "".join(str((int(v) >> q) & 1) for q in range(n)): int(c)
        for v, c in zip(values, cnts)
    }
