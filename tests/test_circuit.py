import numpy as np
import pytest

from quilt.circuit import (
    Circuit,
    Gate,
    GateError,
    GateKind,
    PauliString,
    PauliSum,
    append,
    bind,
    cx,
    h,
    inverse,
    measure,
    pauli_expectation_terms,
    rz,
    unitary,
)
from quilt.simsv import simulate

from oracles import gate_full, random_circuit


def test_append_basics():
    c = Circuit(2)
    c2 = append(c, h(0))
    assert len(c2) == 1 and len(c) == 0
    assert c2.gates[0].kind is GateKind.H


def test_append_rejects_out_of_range():
    c = Circuit(2)
    with pytest.raises(GateError):
        append(c, h(5))


def test_cx_requires_distinct_qubits():
    with pytest.raises(GateError):
        cx(0, 0)


def test_arity_mismatch_rejected():
    with pytest.raises(GateError):
        Gate(GateKind.CX, (0,))
    with pytest.raises(GateError):
        Gate(GateKind.H, (0, 1))


def test_rotation_param_rules():
    with pytest.raises(GateError):
        Gate(GateKind.RZ, (0,))  # rotation without angle
    with pytest.raises(GateError):
        Gate(GateKind.H, (0,), 0.5)  # non-rotation with angle


def test_symbolic_param_registered_once():
    c = Circuit(2, (rz(0, "gamma_1"),))
    c = append(c, rz(1, "gamma_1"))
    assert c.params == ("gamma_1",)


def test_bind_missing_and_unknown():
    c = Circuit(1, (rz(0, "a"),))
    with pytest.raises(GateError):
        c.bind({})
    with pytest.raises(GateError):
        c.bind({"a": 0.0, "nope": 1.0})


def test_bind_zero_angle_acts_as_identity():
    c = Circuit(1, (rz(0, "a"),))
    st = simulate(bind(c, {"a": 0.0}))
    assert abs(st.amps[0] - 1.0) < 1e-12


def test_inverse_simple_gates():
    c = Circuit(1, (h(0),))
    assert inverse(c).gates == (h(0),)
    c = Circuit(1, (rz(0, 0.3),))
    assert inverse(c).gates == (rz(0, -0.3),)


def test_inverse_rejects_measure_and_unbound():
    with pytest.raises(GateError):
        inverse(Circuit(1, (measure(0),)))
    with pytest.raises(GateError):
        inverse(Circuit(1, (rz(0, "a"),)))


def test_inverse_roundtrip_is_identity_vector_level():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_circuit(rng, 4, 25)
        total = c.concat(c.inverse())
        st = simulate(total)
        ref = np.zeros(16, dtype=complex)
        ref[0] = 1.0
        assert np.allclose(st.amps, ref, atol=1e-12)


def test_inverse_roundtrip_fidelity_property():
    rng = np.random.default_rng(5)
    for _ in range(30):
        c = random_circuit(rng, 4, 30, parametric=True)
        values = {p: float(rng.uniform(-np.pi, np.pi)) for p in c.params}
        b = bind(c, values)
        st = simulate(b.concat(inverse(b)))
        assert abs(st.amps[0]) ** 2 >= 1 - 1e-10


def test_measure_is_terminal_only():
    with pytest.raises(GateError):
        Circuit(2, (measure(0), h(1)))
    # measures may pile up at the end
    Circuit(2, (h(0), measure(0), measure(1)))


def test_gate_validation_rejects_random_malformed(seed=3):
    rng = np.random.default_rng(seed)
    rejected = 0
    cases = 0
    for _ in range(200):
        roll = rng.integers(0, 3)
        cases += 1
        try:
            if roll == 0:  # wrong arity
                Gate(GateKind.CX, (int(rng.integers(0, 4)),))
            elif roll == 1:  # duplicate qubits on 2q gate
                q = int(rng.integers(0, 4))
                Gate(GateKind.CZ, (q, q))
            else:  # out-of-range index inside a circuit
                Circuit(2, (h(int(rng.integers(2, 12))),))
        except GateError:
            rejected += 1
    assert rejected == cases


def test_unitary_gate_payload_checked():
    with pytest.raises(GateError):
        unitary((0,), np.array([[1, 1], [0, 1]], dtype=complex))
    g = unitary((0, 1), np.eye(4, dtype=complex))
    assert g.matrix.shape == (4, 4)


def test_gate_matrices_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        c = random_circuit(rng, 3, 1)
        g = c.gates[0]
        full = gate_full(g, 3)
        assert np.allclose(full.conj().T @ full, np.eye(8), atol=1e-12)
        # the gate's own little-endian matrix embeds to the same operator
        from oracles import unitary_full

        assert np.allclose(unitary_full(g.unitary(), g.qubits, 3), full, atol=1e-12)


def test_t_adjoint_exact():
    c = Circuit(1, (Gate(GateKind.T, (0,)), h(0)))
    st = simulate(c.concat(c.inverse()))
    ref = np.zeros(2, dtype=complex)
    ref[0] = 1.0
    assert np.allclose(st.amps, ref, atol=1e-12)


# Pauli algebra ---------------------------------------------------------------


def test_pauli_sum_merges_terms():
    ps = PauliSum([(0.5, "Z"), (0.5, "Z")])
    assert len(ps) == 1
    coeff, string = ps.terms[0]
    assert coeff == 1.0 and string.ops == "Z"


def test_pauli_sum_drops_cancelled_terms():
    ps = PauliSum([(0.5, "Z"), (-0.5, "Z"), (1.0, "X")])
    assert len(ps) == 1 and ps.terms[0][1].ops == "X"


def test_pauli_sum_rejects_complex_coeff_and_mixed_width():
    with pytest.raises(ValueError):
        PauliSum([(1j, "Z")])
    with pytest.raises(ValueError):
        PauliSum([(1.0, "Z"), (1.0, "ZZ")])


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString("ZQ")
    with pytest.raises(ValueError):
        PauliString("")


def test_expectation_terms_z_all_zeros():
    assert pauli_expectation_terms(PauliSum([(1.0, "Z")]), {"0": 100}) == 1.0


def test_expectation_terms_zz_bell_counts():
    val = pauli_expectation_terms(PauliSum([(1.0, "ZZ")]), {"00": 50, "11": 50})
    assert val == 1.0


def test_expectation_terms_balanced_mix():
    # hand enumeration: IZ on 01 -> -1, ZI on 01 -> +1 (and mirrored for 10)
    ps = PauliSum([(0.5, "IZ"), (0.5, "ZI")])
    assert pauli_expectation_terms(ps, {"01": 50, "10": 50}) == 0.0


def test_expectation_terms_rejects_nondiagonal_and_empty():
    with pytest.raises(ValueError):
        pauli_expectation_terms(PauliSum([(1.0, "X")]), {"0": 1})
    with pytest.raises(ValueError):
        pauli_expectation_terms(PauliSum([(1.0, "Z")]), {})


def test_circuits_shareable_and_immutable():
    c = Circuit(2, (h(0),))
    with pytest.raises(Exception):
        c.n_qubits = 3  # frozen dataclass
    ps = PauliSum([(1.0, "ZZ")])
    with pytest.raises(AttributeError):
        ps.terms = ()


# -- the unitary check accepts exactly what np.allclose(M^H M, I, atol=1e-9) does --


def _accepted(matrix, qubits) -> bool:
    try:
        Gate(GateKind.UNITARY, qubits, matrix=matrix)
    except GateError:
        return False
    return True


def _allclose_accepts(matrix) -> bool:
    return bool(np.allclose(matrix.conj().T @ matrix, np.eye(matrix.shape[0]), atol=1e-9))


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
def test_unitary_check_matches_allclose_at_its_tolerances(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    dim = 1 << n_qubits
    qubits = tuple(range(n_qubits))
    diag_tol = 1e-9 + 1e-5  # atol + rtol * |I| on the diagonal
    for _ in range(5):
        u = _random_unitary(rng, dim)
        i, j = (int(k) for k in rng.choice(dim, size=2, replace=False))
        cases = []
        for scale, inside in ((0.999, True), (1.001, False)):
            # (I + eps E_ij)^H (I + eps E_ij) has eps at [i, j] and [j, i]
            off = np.eye(dim, dtype=complex)
            off[i, j] = scale * 1e-9
            cases.append((u @ off, inside))
            for sign in (1.0, -1.0):
                # (1 + d)^2 = 1 + sign * scale * diag_tol at [i, i]
                on = np.eye(dim, dtype=complex)
                on[i, i] = np.sqrt(1.0 + sign * scale * diag_tol)
                cases.append((u @ on, inside))
        for matrix, inside in cases:
            assert _allclose_accepts(matrix) is inside
            assert _accepted(matrix, qubits) is inside
        # right at the bounds rounding decides; the two must still agree
        for step in range(-4, 5):
            off = np.eye(dim, dtype=complex)
            off[i, j] = 1e-9 * (1.0 + step * 1e-15)
            on = np.eye(dim, dtype=complex)
            on[i, i] = np.sqrt(1.0 + diag_tol * (1.0 + step * 1e-12))
            for matrix in (u @ off, u @ on):
                assert _accepted(matrix, qubits) == _allclose_accepts(matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_unitary_check_rejects_non_finite_entries(bad):
    rng = np.random.default_rng(7)
    for n_qubits in (1, 2):
        dim = 1 << n_qubits
        for _ in range(3):
            matrix = _random_unitary(rng, dim)
            matrix[rng.integers(dim), rng.integers(dim)] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                assert not _allclose_accepts(matrix)
                assert not _accepted(matrix, tuple(range(n_qubits)))
    with np.errstate(invalid="ignore"):
        assert not _accepted(np.diag([bad, 1.0]).astype(complex), (0,))


@pytest.mark.parametrize("shape, qubits", [
    ((2,), (0,)), ((2, 3), (0,)), ((4, 4), (0,)), ((2, 2), (0, 1)), ((1, 1), (0,)),
    ((2, 2, 2), (0,)),
])
def test_unitary_check_rejects_wrong_shapes(shape, qubits):
    matrix = np.zeros(shape, dtype=complex)
    if len(shape) == 2 and shape[0] == shape[1]:
        matrix = np.eye(shape[0], dtype=complex)  # unitary, but the wrong size
    with pytest.raises(GateError, match="shape"):
        Gate(GateKind.UNITARY, qubits, matrix=matrix)
