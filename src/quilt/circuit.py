"""Gate-level circuit IR and Pauli-algebra observables.

Conventions fixed here and shared by every other module:

* Qubit 0 is the least-significant bit of a basis-state index
  (little-endian amplitudes).  Bitstrings render with the same alignment:
  character ``i`` of a counts key is the measured value of qubit ``i``.
* Rotation angles use half-angle forms: ``RZ(t) = diag(exp(-it/2),
  exp(+it/2))``, ``RZZ(t) = exp(-i t/2 Z (x) Z)``, and RX/RY analogously.
* Measure gates are terminal-only markers; once one appears, only further
  measures may follow.
* A ``UNITARY`` escape-hatch gate injects an explicit matrix for exact
  simulation (state preparation, QFT blocks, controlled matrix powers).
  It is excluded from the assembly-text format.

Circuits, gates and Pauli sums are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Union

import numpy as np

ParamValue = Union[float, str]


class GateKind(str, Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    RZZ = "rzz"
    CX = "cx"
    CZ = "cz"
    MEASURE = "measure"
    UNITARY = "unitary"


ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.RZZ})
TWO_QUBIT_KINDS = frozenset({GateKind.RZZ, GateKind.CX, GateKind.CZ})

_SQ2 = 1.0 / np.sqrt(2.0)
_FIXED_1Q = {
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=complex),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=complex),
    GateKind.T: np.array([[1, 0], [0, np.exp(0.25j * np.pi)]], dtype=complex),
}

_T_DAGGER = np.array([[1, 0], [0, np.exp(-0.25j * np.pi)]], dtype=complex)


class GateError(ValueError):
    """Invalid gate construction or use (arity, range, parameter shape)."""


def rotation_unitary(kind: GateKind, theta: float) -> np.ndarray:
    """Matrix of the rotation ``kind`` (RX, RY, RZ or RZZ) at angle ``theta``."""
    t = float(theta)
    c, s = np.cos(t / 2), np.sin(t / 2)
    if kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind is GateKind.RZ:
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex)
    if kind is GateKind.RZZ:
        same, diff = np.exp(-0.5j * t), np.exp(0.5j * t)
        return np.diag([same, diff, diff, same]).astype(complex)
    raise GateError(f"{kind.value} is not a rotation")


@dataclass(frozen=True)
class Gate:
    """One circuit operation: a gate kind, target qubits and optional angle.

    ``param`` is a float angle in radians or a string naming a symbolic
    parameter (rotations only).  A symbolic angle may carry a numeric
    ``param_scale``: binding yields ``param_scale * value`` (used for
    weighted-edge rotations sharing one layer parameter).  ``matrix``
    carries the payload of the UNITARY escape hatch.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    param: ParamValue | None = None
    matrix: np.ndarray | None = None
    param_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if any(q < 0 for q in self.qubits):
            raise GateError(f"negative qubit index in {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise GateError(f"{self.kind.value} qubits must be distinct, got {self.qubits}")
        if self.param_scale != 1.0 and not isinstance(self.param, str):
            raise GateError("param_scale applies to symbolic parameters only")
        if self.kind is GateKind.UNITARY:
            if not self.qubits:
                raise GateError("unitary gate needs at least one qubit")
            if self.param is not None:
                raise GateError("unitary gate carries no angle parameter")
            self._check_matrix()
            return
        if self.matrix is not None:
            raise GateError(f"{self.kind.value} does not take a matrix payload")
        arity = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != arity:
            raise GateError(
                f"{self.kind.value} expects {arity} qubit(s), got {len(self.qubits)}"
            )
        if self.kind in ROTATION_KINDS:
            if self.param is None:
                raise GateError(f"{self.kind.value} requires an angle parameter")
            if not isinstance(self.param, str):
                object.__setattr__(self, "param", float(self.param))
        elif self.param is not None:
            raise GateError(f"{self.kind.value} takes no parameter")

    def _check_matrix(self):
        m = np.asarray(self.matrix, dtype=complex)
        dim = 1 << len(self.qubits)
        if m.shape != (dim, dim):
            raise GateError(
                f"unitary payload shape {m.shape} does not match {len(self.qubits)} qubit(s)"
            )
        # accepts exactly what np.allclose(m^H m, I, atol=1e-9) accepts:
        # |m^H m - I| <= 1e-9 + 1e-5 |I| entrywise, where NaN and inf fail
        eye = np.eye(dim)
        if not (np.abs(m.conj().T @ m - eye) <= 1e-9 + 1e-5 * eye).all():
            raise GateError("unitary payload is not unitary within 1e-9")
        object.__setattr__(self, "matrix", m)

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        mine = (self.kind, self.qubits, self.param, self.param_scale)
        theirs = (other.kind, other.qubits, other.param, other.param_scale)
        if mine != theirs:
            return False
        if self.matrix is None or other.matrix is None:
            return self.matrix is other.matrix
        return np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.kind, self.qubits, self.param, self.param_scale))

    @property
    def is_bound(self) -> bool:
        return not isinstance(self.param, str)

    def unitary(self) -> np.ndarray:
        """Dense matrix of the gate, little-endian over ``self.qubits``.

        Row/column index is ``sum_j bit(qubits[j]) << j``.
        """
        if self.kind is GateKind.MEASURE:
            raise GateError("measure has no unitary")
        if not self.is_bound:
            raise GateError(f"unbound parameter {self.param!r}")
        if self.kind is GateKind.UNITARY:
            return self.matrix
        if self.kind in _FIXED_1Q:
            return _FIXED_1Q[self.kind]
        if self.kind in ROTATION_KINDS:
            return rotation_unitary(self.kind, self.param)
        if self.kind is GateKind.CX:
            # qubits = (control, target); index bit 0 is the control
            return np.array(
                [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
            )
        if self.kind is GateKind.CZ:
            return np.diag([1, 1, 1, -1]).astype(complex)
        raise GateError(f"no unitary for {self.kind}")  # pragma: no cover

    def adjoint(self) -> "Gate":
        """Adjoint gate.  T has no dagger kind, so it maps to a unitary gate."""
        if self.kind is GateKind.MEASURE:
            raise GateError("measure has no adjoint")
        if not self.is_bound:
            raise GateError(f"cannot invert unbound parameter {self.param!r}")
        if self.kind in ROTATION_KINDS:
            return Gate(self.kind, self.qubits, -float(self.param))
        if self.kind is GateKind.S:
            return Gate(GateKind.SDG, self.qubits)
        if self.kind is GateKind.SDG:
            return Gate(GateKind.S, self.qubits)
        if self.kind is GateKind.T:
            return Gate(GateKind.UNITARY, self.qubits, matrix=_T_DAGGER)
        if self.kind is GateKind.UNITARY:
            return Gate(GateKind.UNITARY, self.qubits, matrix=self.matrix.conj().T)
        return self  # H, X, Y, Z, CX, CZ are self-inverse


# Gate builders -------------------------------------------------------------


def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def y(q: int) -> Gate:
    return Gate(GateKind.Y, (q,))


def z(q: int) -> Gate:
    return Gate(GateKind.Z, (q,))


def s(q: int) -> Gate:
    return Gate(GateKind.S, (q,))


def sdg(q: int) -> Gate:
    return Gate(GateKind.SDG, (q,))


def t(q: int) -> Gate:
    return Gate(GateKind.T, (q,))


def rx(q: int, theta: ParamValue) -> Gate:
    return Gate(GateKind.RX, (q,), theta)


def ry(q: int, theta: ParamValue) -> Gate:
    return Gate(GateKind.RY, (q,), theta)


def rz(q: int, theta: ParamValue) -> Gate:
    return Gate(GateKind.RZ, (q,), theta)


def rzz(qa: int, qb: int, theta: ParamValue) -> Gate:
    return Gate(GateKind.RZZ, (qa, qb), theta)


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, (control, target))


def cz(qa: int, qb: int) -> Gate:
    return Gate(GateKind.CZ, (qa, qb))


def measure(q: int) -> Gate:
    return Gate(GateKind.MEASURE, (q,))


def unitary(qubits: Iterable[int], matrix: np.ndarray) -> Gate:
    return Gate(GateKind.UNITARY, tuple(qubits), matrix=matrix)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n_qubits`` with optional symbolic parameters."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n_qubits < 1:
            raise GateError("circuit needs at least one qubit")
        object.__setattr__(self, "gates", tuple(self.gates))
        seen_measure = False
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise GateError(
                    f"gate {g.kind.value} on {g.qubits} out of range for "
                    f"{self.n_qubits} qubit(s)"
                )
            if seen_measure and g.kind is not GateKind.MEASURE:
                raise GateError("measure gates are terminal: no gate may follow one")
            if g.kind is GateKind.MEASURE:
                seen_measure = True

    @cached_property
    def params(self) -> tuple[str, ...]:
        """Symbolic parameter names in order of first appearance."""
        names: list[str] = []
        for g in self.gates:
            if isinstance(g.param, str) and g.param not in names:
                names.append(g.param)
        return tuple(names)

    @property
    def is_bound(self) -> bool:
        return not self.params

    @property
    def has_measure(self) -> bool:
        return any(g.kind is GateKind.MEASURE for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)

    def with_gate(self, gate: Gate) -> "Circuit":
        return Circuit(self.n_qubits, self.gates + (gate,))

    @cached_property
    def memo(self) -> dict:
        """Data other modules derive from this circuit and keep for reuse
        (the statevector simulator's lowering); freed with the circuit."""
        return {}

    def check_bindings(self, values: Mapping[str, float]) -> None:
        """Raise ``GateError`` unless ``values`` names exactly :attr:`params`."""
        unknown = set(values) - set(self.params)
        if unknown:
            raise GateError(f"unknown parameter name(s): {sorted(unknown)}")
        missing = set(self.params) - set(values)
        if missing:
            raise GateError(f"missing binding(s) for: {sorted(missing)}")

    def bind(self, values: Mapping[str, float]) -> "Circuit":
        """Substitute every symbolic parameter; the result is fully numeric."""
        self.check_bindings(values)
        bound = []
        for g in self.gates:
            if isinstance(g.param, str):
                bound.append(
                    Gate(g.kind, g.qubits, g.param_scale * float(values[g.param]))
                )
            else:
                bound.append(g)
        return Circuit(self.n_qubits, tuple(bound))

    def inverse(self) -> "Circuit":
        """Adjoint circuit: reversed order, each gate replaced by its adjoint."""
        if self.has_measure:
            raise GateError("cannot invert a circuit containing measurements")
        if not self.is_bound:
            raise GateError(f"cannot invert with unbound parameters {self.params}")
        return Circuit(self.n_qubits, tuple(g.adjoint() for g in reversed(self.gates)))

    def concat(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise GateError("cannot concatenate circuits of different width")
        return Circuit(self.n_qubits, self.gates + other.gates)


def append(circuit: Circuit, gate: Gate) -> Circuit:
    """Return ``circuit`` with ``gate`` appended (validated against its width)."""
    return circuit.with_gate(gate)


def bind(circuit: Circuit, values: Mapping[str, float]) -> Circuit:
    return circuit.bind(values)


def inverse(circuit: Circuit) -> Circuit:
    return circuit.inverse()


# Pauli observables ---------------------------------------------------------

_PAULI_CHARS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis; ``ops[i]`` acts on qubit i."""

    ops: str

    def __post_init__(self):
        if not self.ops:
            raise ValueError("empty Pauli string")
        bad = set(self.ops) - _PAULI_CHARS
        if bad:
            raise ValueError(f"invalid Pauli character(s) {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        return self.ops

    @property
    def is_diagonal(self) -> bool:
        return set(self.ops) <= {"I", "Z"}

    @property
    def is_identity(self) -> bool:
        return set(self.ops) == {"I"}

    @cached_property
    def masks(self) -> tuple[int, int, int]:
        """``(x_mask, z_mask, n_y)``: ``P|i> = i**n_y (-1)**|i & z_mask| |i ^ x_mask>``.

        Bit ``q`` of a mask is set when qubit ``q`` carries X or Y (x) or
        Z or Y (z); ``n_y`` counts the Y factors.
        """
        x_mask = z_mask = 0
        for q, op in enumerate(self.ops):
            if op in "XY":
                x_mask |= 1 << q
            if op in "ZY":
                z_mask |= 1 << q
        return x_mask, z_mask, self.ops.count("Y")

    @cached_property
    def memo(self) -> dict:
        """Data other modules derive from this string and keep for reuse
        (the statevector simulator's evaluation layout)."""
        return {}

    def restrict(self, qubits: Iterable[int]) -> "PauliString":
        """Substring acting on the given qubits (in the given order)."""
        return PauliString("".join(self.ops[q] for q in qubits))


class PauliSum:
    """Real-weighted sum of Pauli strings (a Hermitian observable).

    Duplicate strings are merged and exactly-cancelled terms dropped at
    construction, so term lists are canonical.
    """

    __slots__ = ("terms", "memo")

    def __init__(self, terms: Iterable[tuple[float, PauliString | str]] = ()):
        acc: dict[str, float] = {}
        strings: dict[str, PauliString] = {}
        width = None
        for coeff, string in terms:
            if isinstance(coeff, complex):
                if abs(coeff.imag) > 1e-12:
                    raise ValueError(f"coefficient {coeff} is not real")
                coeff = coeff.real
            ps = string if isinstance(string, PauliString) else PauliString(string)
            if width is None:
                width = len(ps)
            elif len(ps) != width:
                raise ValueError("all strings in a PauliSum must have equal length")
            acc[ps.ops] = acc.get(ps.ops, 0.0) + float(coeff)
            strings.setdefault(ps.ops, ps)  # keeps what is cached on the string
        merged = tuple(
            (c, strings[ops]) for ops, c in acc.items() if c != 0.0
        )
        object.__setattr__(self, "terms", merged)
        # derived data other modules keep for reuse (the simulator's diagonal)
        object.__setattr__(self, "memo", {})

    def __setattr__(self, *args):  # immutable after construction
        raise AttributeError("PauliSum is immutable")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return sorted((p.ops, c) for c, p in self.terms) == sorted(
            (p.ops, c) for c, p in other.terms
        )

    def __repr__(self):
        body = " + ".join(f"{c:g}*{p.ops}" for c, p in self.terms) or "0"
        return f"PauliSum({body})"

    @property
    def num_qubits(self) -> int | None:
        return len(self.terms[0][1]) if self.terms else None

    @property
    def is_diagonal(self) -> bool:
        return all(p.is_diagonal for _, p in self.terms)

    def weight_bound(self) -> float:
        """Sum of |coefficients|: a bound on any expectation value."""
        return sum(abs(c) for c, _ in self.terms)


def pauli_expectation_terms(psum: PauliSum, counts: Mapping[str, int]) -> float:
    """Expectation of a diagonal (I/Z-only) observable from measured counts.

    Bitstring keys align with qubit index: character ``i`` is qubit ``i``.
    """
    if not counts:
        raise ValueError("empty counts")
    for _, p in psum.terms:
        if not p.is_diagonal:
            raise ValueError(f"non-diagonal string {p.ops} cannot be scored from counts")
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts sum to zero")
    value = 0.0
    for bits, cnt in counts.items():
        for coeff, p in psum.terms:
            if len(p) != len(bits):
                raise ValueError(
                    f"string width {len(p)} does not match bitstring width {len(bits)}"
                )
            eig = 1.0
            for op, b in zip(p.ops, bits):
                if op == "Z" and b == "1":
                    eig = -eig
            value += coeff * eig * cnt
    return value / total
