import numpy as np
import pytest

from quilt.circuit import Circuit, PauliSum, cx, h, measure, ry
from quilt.simsv import SimulationError, StateVector, expectation, sample, simulate

from oracles import random_circuit, statevector_oracle


def test_h_on_zero():
    st = simulate(Circuit(1, (h(0),)))
    assert np.allclose(st.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_bell_state():
    st = simulate(Circuit(2, (h(0), cx(0, 1))))
    ref = np.zeros(4, dtype=complex)
    ref[0] = ref[3] = 1 / np.sqrt(2)
    assert np.allclose(st.amps, ref, atol=1e-12)


def test_random_circuits_match_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        c = random_circuit(rng, 5, 30)
        st = simulate(c)
        assert np.allclose(st.amps, statevector_oracle(c), atol=1e-12)


def test_five_qubit_circuit_matches_matrix_chain_product():
    from oracles import circuit_unitary

    rng = np.random.default_rng(17)
    for _ in range(5):
        c = random_circuit(rng, 5, 25)
        u = circuit_unitary(c)  # explicit 32x32 product of embedded gates
        psi0 = np.zeros(32, dtype=complex)
        psi0[0] = 1.0
        assert np.allclose(simulate(c).amps, u @ psi0, atol=1e-12)


def test_measure_gates_ignored():
    c = Circuit(2, (h(0), cx(0, 1), measure(0), measure(1)))
    st = simulate(c)
    assert abs(st.norm() - 1.0) < 1e-12


def test_initial_state_and_width_check():
    init = StateVector(1, np.array([0, 1], dtype=complex))
    st = simulate(Circuit(1, (h(0),)), initial=init)
    assert np.allclose(st.amps, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)
    with pytest.raises(SimulationError):
        simulate(Circuit(2, (h(0),)), initial=init)


def test_qubit_cap_enforced():
    with pytest.raises(SimulationError):
        simulate(Circuit(25))


def test_twenty_qubits_supported():
    gates = [h(0)] + [cx(i, i + 1) for i in range(19)]
    st = simulate(Circuit(20, tuple(gates)))  # 20-qubit GHZ chain
    assert abs(st.norm() - 1.0) < 1e-10
    assert abs(abs(st.amps[0]) ** 2 - 0.5) < 1e-12
    assert abs(abs(st.amps[-1]) ** 2 - 0.5) < 1e-12


def test_unbound_params_rejected():
    from quilt.circuit import rz

    with pytest.raises(SimulationError):
        simulate(Circuit(1, (rz(0, "a"),)))


def test_norm_preserved_over_many_random_gates():
    rng = np.random.default_rng(0)
    amps = np.zeros(1 << 6, dtype=np.complex128)
    amps[0] = 1.0
    st = StateVector(6, amps)
    for _ in range(500):
        c = random_circuit(rng, 6, 20)
        st = simulate(c, initial=st)
        assert abs(st.norm() - 1.0) < 1e-10


def test_unitarity_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = random_circuit(rng, 5, 40)
        st = simulate(c.concat(c.inverse()))
        assert abs(st.amps[0]) ** 2 >= 1 - 1e-10


# expectation ------------------------------------------------------------------


def test_expectation_z_on_zero():
    st = simulate(Circuit(1))
    assert expectation(st, PauliSum([(1.0, "Z")])) == pytest.approx(1.0, abs=1e-12)


def test_expectation_zz_on_ghz3():
    st = simulate(Circuit(3, (h(0), cx(0, 1), cx(1, 2))))
    assert expectation(st, PauliSum([(1.0, "ZZI")])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1])
def test_expectation_x_after_ry(theta):
    st = simulate(Circuit(1, (ry(0, theta),)))
    assert expectation(st, PauliSum([(1.0, "X")])) == pytest.approx(
        np.sin(theta), abs=1e-12
    )


def test_expectation_bounded_by_weight():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = random_circuit(rng, 4, 20)
        st = simulate(c)
        terms = []
        for _ in range(5):
            ops = "".join(rng.choice(list("IXYZ")) for _ in range(4))
            terms.append((float(rng.uniform(-2, 2)), ops))
        ps = PauliSum(terms)
        val = expectation(st, ps)
        assert abs(val) <= ps.weight_bound() + 1e-12


def test_expectation_width_mismatch():
    st = simulate(Circuit(2))
    with pytest.raises(SimulationError):
        expectation(st, PauliSum([(1.0, "Z")]))


# sampling ---------------------------------------------------------------------


def test_sample_deterministic_state():
    st = simulate(Circuit(1))
    assert sample(st, 100, seed=0) == {"0": 100}


def test_sample_bell_statistics():
    st = simulate(Circuit(2, (h(0), cx(0, 1))))
    counts = sample(st, 10000, seed=123)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 10000
    # binomial 4 sigma bound around p=0.5
    assert abs(counts.get("00", 0) / 10000 - 0.5) < 0.02


def test_sample_seed_reproducible():
    st = simulate(Circuit(3, (h(0), cx(0, 1), h(2))))
    assert sample(st, 500, seed=77) == sample(st, 500, seed=77)


def test_sample_rejects_nonpositive_shots():
    st = simulate(Circuit(1))
    with pytest.raises(SimulationError):
        sample(st, 0)


@pytest.mark.parametrize("shots", [True, False, 2.0, "3", None, np.float64(4.0)])
def test_sample_rejects_non_integer_shots(shots):
    st = simulate(Circuit(1))
    with pytest.raises(SimulationError, match="integer"):
        sample(st, shots)


def test_sample_accepts_numpy_integer_shots():
    st = simulate(Circuit(2, (h(0), cx(0, 1))))
    assert sample(st, np.int64(300), seed=4) == sample(st, 300, seed=4)


def test_sample_bitstring_orientation():
    # X on qubit 0 of 2 -> index 1 -> bitstring "10" (char i = qubit i)
    from quilt.circuit import x

    st = simulate(Circuit(2, (x(0),)))
    assert sample(st, 10, seed=1) == {"10": 10}


def test_sample_huge_shot_count_allocates_with_the_state_not_the_shots():
    import tracemalloc

    st = simulate(Circuit(3, (h(0), cx(0, 1), h(2))))
    tracemalloc.start()
    try:
        counts = sample(st, 10**12, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**12
    assert set(counts) == {"000", "110", "001", "111"}
    assert peak < 1 << 20  # one float per shot would be 8 TB


def test_sample_keys_ascend_and_counts_follow_the_probabilities():
    rng = np.random.default_rng(8)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    amps[rng.choice(64, size=20, replace=False)] = 0.0
    st = StateVector(6, amps / np.linalg.norm(amps))
    shots = 200_000
    counts = sample(st, shots, seed=9)
    indices = [sum(1 << q for q, ch in enumerate(key) if ch == "1") for key in counts]
    assert indices == sorted(indices)
    probs = st.probabilities()
    assert all(probs[i] > 0 for i in indices)
    observed = np.zeros(64)
    observed[indices] = list(counts.values())
    sigma = np.sqrt(shots * probs * (1 - probs))
    assert np.all(np.abs(observed - shots * probs) <= 5 * sigma + 1)
    few = sample(st, 5, seed=3)
    assert sum(few.values()) == 5 and all(c > 0 for c in few.values())


@pytest.mark.parametrize("shots", [2**63, 10**30])
def test_sample_rejects_shot_counts_beyond_int64(shots):
    with pytest.raises(SimulationError, match="integer"):
        sample(simulate(Circuit(1)), shots)


# parametric circuits simulated with bindings ---------------------------------


def _scaled_parametric_circuit(rng, n_qubits, n_gates, names=("a", "b", "c")):
    """Diagonal-heavy circuit with shared, scaled symbols among bound gates."""
    from quilt.circuit import Gate, GateKind

    gates = []
    for _ in range(n_gates):
        kind = GateKind(rng.choice(["z", "s", "sdg", "t", "rz", "rzz", "cz", "rx", "ry", "h"]))
        if kind in (GateKind.RZZ, GateKind.CZ):
            qubits = tuple(int(q) for q in rng.choice(n_qubits, size=2, replace=False))
        else:
            qubits = (int(rng.integers(n_qubits)),)
        if kind in (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.RZZ):
            if rng.random() < 0.6:
                gates.append(Gate(kind, qubits, str(rng.choice(names)),
                                  param_scale=float(rng.uniform(-2.5, 2.5))))
            else:
                gates.append(Gate(kind, qubits, float(rng.uniform(-np.pi, np.pi))))
        else:
            gates.append(Gate(kind, qubits))
    return Circuit(n_qubits, tuple(gates))


def _random_values(rng, circuit):
    return {name: float(rng.uniform(-np.pi, np.pi)) for name in circuit.params}


def _random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def test_bindings_match_bound_circuit_on_random_circuits():
    rng = np.random.default_rng(2024)
    checked = 0
    for trial in range(60):
        n = int(rng.integers(1 if trial % 2 else 2, 6))
        if trial % 2:
            c = random_circuit(rng, n, 30, parametric=True)
        else:
            c = _scaled_parametric_circuit(rng, n, 30)
        if c.is_bound:
            continue
        checked += 1
        for rep in range(4):  # later evaluations reuse the cached lowering
            values = _random_values(rng, c)
            init = _random_state(rng, n) if rep % 2 else None
            got = simulate(c, initial=init, bindings=values).amps
            ref = simulate(c.bind(values), initial=init).amps
            assert np.max(np.abs(got - ref)) <= 1e-12
    assert checked >= 40


def test_bindings_symbolic_first_gate_measures_and_initial_state():
    from quilt.circuit import cz, rx, rz, rzz, s, t

    c = Circuit(3, (rzz(0, 2, "g"), rz(1, "g"), cz(0, 1), t(2), rx(0, "b"),
                    h(1), s(1), rz(1, 0.4), measure(0), measure(2)))
    assert c.gates[0].param == "g"
    rng = np.random.default_rng(5)
    for _ in range(4):
        values = {"g": float(rng.uniform(-4, 4)), "b": float(rng.uniform(-4, 4))}
        init = _random_state(rng, 3)
        ref = simulate(c.bind(values), initial=init).amps
        assert np.max(np.abs(simulate(c, initial=init, bindings=values).amps - ref)) <= 1e-12
        ref0 = simulate(c.bind(values)).amps
        assert np.max(np.abs(simulate(c, bindings=values).amps - ref0)) <= 1e-12
    assert np.allclose(statevector_oracle(c.bind(values)), ref0, atol=1e-12)


def test_bindings_on_fully_bound_circuit():
    rng = np.random.default_rng(8)
    c = random_circuit(rng, 4, 25)
    assert c.is_bound
    init = _random_state(rng, 4)
    assert np.array_equal(simulate(c, bindings={}).amps, simulate(c).amps)
    assert np.array_equal(simulate(c, initial=init, bindings={}).amps,
                          simulate(c, initial=init).amps)


def test_bindings_errors_match_bind():
    from quilt.circuit import GateError, rx, rz

    c = Circuit(2, (h(0), rz(0, "a"), rx(1, "b")))
    for values in ({"a": 1.0}, {"a": 1.0, "b": 2.0, "c": 3.0}, {"c": 1.0}):
        with pytest.raises(GateError) as via_bind:
            c.bind(values)
        with pytest.raises(GateError) as via_simulate:
            simulate(c, bindings=values)
        assert str(via_simulate.value) == str(via_bind.value)
    with pytest.raises(GateError):
        simulate(Circuit(1, (h(0),)), bindings={"a": 1.0})
    with pytest.raises(SimulationError):
        simulate(c)


def test_bindings_build_no_gates_after_lowering(monkeypatch):
    from quilt import circuit as cir
    from quilt.maxcut import Graph, qaoa_ansatz

    ansatz = qaoa_ansatz(Graph(4, ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0))), 2)
    values = {"gamma_1": 0.3, "beta_1": 0.2, "gamma_2": -0.7, "beta_2": 1.1}
    first = simulate(ansatz, bindings=values)
    built = []
    real_post_init = cir.Gate.__post_init__
    monkeypatch.setattr(cir.Gate, "__post_init__",
                        lambda self: built.append(self) or real_post_init(self))
    monkeypatch.setattr(cir.Circuit, "bind", lambda self, v: pytest.fail("bind called"))
    again = simulate(ansatz, bindings=values)
    assert built == []
    assert np.array_equal(again.amps, first.amps)


# the gate compiler ------------------------------------------------------------------


def _bound_diagonal_run(rng, n_qubits, length):
    from quilt.circuit import Gate, GateKind

    gates = []
    kinds = ["z", "s", "sdg", "t", "rz"] + (["cz", "rzz"] if n_qubits > 1 else [])
    for _ in range(length):
        kind = GateKind(rng.choice(kinds))
        if kind in (GateKind.CZ, GateKind.RZZ):
            qubits = tuple(int(q) for q in rng.choice(n_qubits, size=2, replace=False))
        else:
            qubits = (int(rng.integers(n_qubits)),)
        angle = float(rng.uniform(-4, 4)) if kind in (GateKind.RZ, GateKind.RZZ) else None
        gates.append(Gate(kind, qubits, angle))
    return tuple(gates)


def _bound_runs_after_symbolic_gate(rng, n_qubits):
    """Symbolic gates, each followed by an all-bound diagonal run."""
    from quilt.circuit import rx, ry, rz

    gates = [h(q) for q in range(n_qubits)]
    for symbolic in (ry(0, "a"), rz(n_qubits - 1, "b"), rx(0, "a")):
        gates.append(symbolic)
        gates.extend(_bound_diagonal_run(rng, n_qubits, int(rng.integers(1, 8))))
        gates.append(h(int(rng.integers(n_qubits))))
    return Circuit(n_qubits, tuple(gates))


@pytest.mark.parametrize("batch", [1, 3, 7])
def test_compiled_ops_on_a_batch_match_each_row_of_the_bound_circuit(batch):
    from quilt.simsv import _apply_op, _compile

    rng = np.random.default_rng(300 + batch)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(1, 6))
        if trial % 2:
            c = random_circuit(rng, n, 30, parametric=True)
        else:
            c = _bound_runs_after_symbolic_gate(rng, n)
        if c.is_bound:
            continue
        checked += 1
        values = _random_values(rng, c)
        rows = np.array([_random_state(rng, n).amps for _ in range(batch)])
        amps = rows.copy()
        for op in _compile(c.gates, n):
            _apply_op(op, amps, values)
        bound = c.bind(values)
        for got, row in zip(amps, rows):
            ref = simulate(bound, initial=StateVector(n, row)).amps
            assert np.max(np.abs(got - ref)) <= 1e-12
        lowered = simulate(c, initial=StateVector(n, rows[0]), bindings=values).amps
        assert np.max(np.abs(lowered - amps[0])) <= 1e-12
    assert checked >= 30


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_phase_of_each_diagonal_gate_matches_its_unitary(n):
    from quilt.circuit import Gate, GateKind
    from quilt.simsv import _compile

    gates = [Gate(kind, (q,)) for kind in (GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T)
             for q in range(n)]
    gates += [Gate(GateKind.RZ, (q,), t) for q in range(n) for t in (0.7, -2.3, np.pi, 9.1)]
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]  # both orders
    gates += [Gate(GateKind.CZ, pair) for pair in pairs]
    gates += [Gate(GateKind.RZZ, pair, t) for pair in pairs for t in (0.7, -2.3, 9.1)]
    for gate in gates:
        d = gate.unitary().diagonal()
        want = [d[sum(((i >> q) & 1) << j for j, q in enumerate(gate.qubits))]
                for i in range(1 << n)]
        (op,) = _compile([gate], n)
        assert op[0] == "phase" and op[2] == ()
        assert np.max(np.abs(op[1] - want)) <= 1e-15, gate


def test_compile_builds_each_parity_vector_once(monkeypatch):
    from quilt import simsv
    from quilt.circuit import rx, rz, rzz

    steps = [(rzz(0, 1, 0.3), rzz(1, 2, "j"), rz(0, 0.2), rz(2, "g"), rx(1, 0.5))] * 4
    c = Circuit(3, tuple(g for step in steps for g in step))
    built = []
    real = simsv._parity_signs
    monkeypatch.setattr(simsv, "_parity_signs",
                        lambda n, mask: built.append(mask) or real(n, mask))
    ops = simsv._compile(c.gates, 3)
    assert sorted(built) == [0b001, 0b011, 0b100, 0b110]
    assert [op[0] for op in ops] == ["phase", "single"] * 4


def test_parity_signs_match_the_one_qubit_at_a_time_loop():
    from oracles import parity_signs
    from quilt.simsv import _parity_signs

    for n in range(9):
        for mask in range(1 << n):
            got = _parity_signs(n, mask)
            assert got.dtype == np.float64
            assert np.array_equal(got, parity_signs(n, mask)), (n, mask)
    rng = np.random.default_rng(6)
    for n in (12, 16):
        for mask in [0, (1 << n) - 1] + [int(m) for m in rng.integers(1 << n, size=6)]:
            assert np.array_equal(_parity_signs(n, mask), parity_signs(n, mask)), (n, mask)


# symbolic RX/RY layers ----------------------------------------------------------


def _layer_circuit(rng, n_qubits, layers):
    """Random entangled gates, then each layer in ``layers`` (a list of qubits)
    as symbolic RX/RY gates of random kind, symbol and ``param_scale``, with
    random gates between the layers."""
    from quilt.circuit import Gate, GateKind

    gates = list(random_circuit(rng, n_qubits, 3 * n_qubits).gates)
    for qubits in layers:
        for q in qubits:
            kind = GateKind.RX if rng.random() < 0.5 else GateKind.RY
            gates.append(Gate(kind, (q,), str(rng.choice(["a", "b", "c"])),
                              param_scale=float(rng.uniform(-3, 3))))
        gates.extend(random_circuit(rng, n_qubits, 2).gates)
    return Circuit(n_qubits, tuple(gates))


def _assert_lowered_matches_bound(rng, c):
    values = _random_values(rng, c)
    ref = simulate(c.bind(values)).amps
    assert np.max(np.abs(simulate(c, bindings=values).amps - ref)) <= 1e-12
    init = _random_state(rng, c.n_qubits)
    ref = simulate(c.bind(values), initial=init).amps
    assert np.max(np.abs(simulate(c, initial=init, bindings=values).amps - ref)) <= 1e-12


@pytest.mark.parametrize("n", range(1, 11))
def test_full_layers_match_the_bound_circuit(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        _assert_lowered_matches_bound(rng, _layer_circuit(rng, n, [range(n), range(n)]))


def test_layers_on_scattered_qubits_match_the_bound_circuit():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        layers = [sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
                  for _ in range(3)]
        _assert_lowered_matches_bound(rng, _layer_circuit(rng, n, layers))


def test_layer_chunks_split_runs_of_adjacent_qubits():
    from quilt.circuit import rx, ry
    from quilt.simsv import _compile

    def chunks(n, qubits):
        (op,) = _compile([rx(q, "a") if q % 2 else ry(q, "b") for q in qubits], n)
        assert op[0] == "layer"
        return [(lo, len(back)) for lo, _, back in op[1]]

    assert chunks(9, range(9)) == [(0, 16), (4, 16), (8, 2)]
    assert chunks(10, [8, 0, 1, 2, 6, 5]) == [(0, 8), (5, 4), (8, 2)]
    assert chunks(12, [3, 11, 7]) == [(3, 2), (7, 2), (11, 2)]


def test_a_repeated_qubit_ends_the_layer():
    from quilt.circuit import Gate, GateKind, rx, ry, rz
    from quilt.simsv import _compile

    gates = (rx(0, "a"), ry(2, "b"), Gate(GateKind.RX, (1,), "a", param_scale=0.5),
             ry(2, "a"), rx(0, "c"),
             rz(1, "b"), ry(1, "c"))
    ops = _compile(gates, 3)
    assert [op[0] for op in ops] == ["layer", "layer", "phase", "layer"]
    assert [len(op[1][0][2]) for op in (ops[0], ops[1], ops[3])] == [8, 2, 2]
    assert [lo for lo, _, _ in ops[1][1]] == [0, 2]
    rng = np.random.default_rng(4)
    for _ in range(5):
        _assert_lowered_matches_bound(rng, Circuit(3, (h(0), cx(0, 1), h(2)) + gates))


@pytest.mark.parametrize("batch", [1, 3, 7])
def test_layer_op_on_a_batch_matches_each_row(batch):
    from quilt.simsv import _apply_op, _compile

    rng = np.random.default_rng(70 + batch)
    for n in (1, 4, 5, 9, 10):
        layers = [range(n), sorted(rng.choice(n, size=max(1, n // 2), replace=False))]
        c = _layer_circuit(rng, n, layers)
        values = _random_values(rng, c)
        rows = np.array([_random_state(rng, n).amps for _ in range(batch)])
        amps = rows.copy()
        ops = _compile(c.gates, n)
        assert "layer" in [op[0] for op in ops]
        for op in ops:
            _apply_op(op, amps, values)
        bound = c.bind(values)
        for got, row in zip(amps, rows):
            ref = simulate(bound, initial=StateVector(n, row)).amps
            assert np.max(np.abs(got - ref)) <= 1e-12


# Pauli-string evaluator -----------------------------------------------------------


def _dense_value(amps, psum):
    from oracles import pauli_matrix

    n = int(np.log2(amps.size))
    m = np.zeros((1 << n, 1 << n), dtype=complex)
    for coeff, string in psum.terms:
        m += coeff * pauli_matrix(string.ops)
    return np.vdot(amps, m @ amps)


def test_expectation_matches_dense_pauli_sums():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        st = _random_state(rng, n)
        terms = [(float(rng.uniform(-2, 2)), "".join(rng.choice(list("IXYZ"), size=n)))
                 for _ in range(int(rng.integers(1, 9)))]
        terms.append((float(rng.uniform(-2, 2)), "Y" * n))  # all-Y phase signs
        terms.append((float(rng.uniform(-2, 2)), "I" * n))
        ps = PauliSum(terms)
        ref = _dense_value(st.amps, ps)
        assert abs(ref.imag) <= 1e-12
        assert abs(expectation(st, ps) - ref.real) <= 1e-12


def test_expectation_near_zero_and_identity_only():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        st = _random_state(rng, n)
        terms = [(float(rng.uniform(-1, 1)), "".join(rng.choice(list("XYZ"), size=n)))
                 for _ in range(4)]
        shift = _dense_value(st.amps, PauliSum(terms)).real
        ps = PauliSum(terms + [(-shift, "I" * n)])  # true value ~1e-16
        assert abs(expectation(st, ps)) <= 1e-12
    st = _random_state(rng, 3)
    assert expectation(st, PauliSum([(2.5, "III")])) == pytest.approx(2.5, abs=1e-12)
    assert expectation(simulate(Circuit(2)), PauliSum([(1.0, "XI"), (1.0, "YY")])) == 0.0


def test_string_expectation_matches_dense_on_unnormalized_amps():
    from oracles import pauli_matrix
    from quilt.circuit import PauliString
    from quilt.simsv import string_expectation

    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        amps = 3.0 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        ops = "".join(rng.choice(list("IXYZ"), size=n))
        ref = np.vdot(amps, pauli_matrix(ops) @ amps)
        got = string_expectation(amps, PauliString(ops))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_expectation_rejects_forced_complex_residue(monkeypatch):
    from quilt import simsv

    st = _random_state(np.random.default_rng(1), 2)
    monkeypatch.setattr(simsv, "string_expectation", lambda amps, string: 0.5 + 1e-6j)
    with pytest.raises(SimulationError, match="imaginary residue"):
        expectation(st, PauliSum([(1.0, "XZ")]))


def test_batched_string_expectation_matches_rows():
    from quilt.circuit import PauliString
    from quilt.simsv import string_expectation

    rng = np.random.default_rng(31)
    for rows in (1, 3, 5, 7):
        n = int(rng.integers(1, 7))
        batch = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
        string = PauliString("".join(rng.choice(list("IXYZ"), size=n)))
        got = string_expectation(batch, string)
        assert got.shape == (rows,)
        for row, value in zip(batch, got):
            assert abs(value - string_expectation(row, string)) <= 1e-12 * max(1.0, abs(value))


def test_expectation_residue_bound_scales_with_weight(monkeypatch):
    from oracles import pauli_matrix
    from quilt import simsv

    rng = np.random.default_rng(8)
    strings = ["".join(rng.choice(list("XYZ"), size=10)) for _ in range(4)]
    dense = {ops: pauli_matrix(ops) for s in strings for ops in (s, s[::-1])}
    for weight in 10.0 ** np.arange(-8, 9, 2):
        for ops in strings:
            st = _random_state(rng, 10)
            value = expectation(st, PauliSum([(weight, ops), (-0.5 * weight, ops[::-1])]))
            ref = weight * (np.vdot(st.amps, dense[ops] @ st.amps)
                            - 0.5 * np.vdot(st.amps, dense[ops[::-1]] @ st.amps)).real
            assert abs(value - ref) <= 1e-12 * weight
    # a residue above the scaled bound still raises, and one below it passes
    st = _random_state(rng, 3)
    obs = PauliSum([(1e8, "XYZ")])
    monkeypatch.setattr(simsv, "string_expectation", lambda amps, string: 0.5 + 1e-3j)
    with pytest.raises(SimulationError, match="imaginary residue"):
        expectation(st, obs)
    monkeypatch.setattr(simsv, "string_expectation", lambda amps, string: 0.5 + 1e-11j)
    assert expectation(st, obs) == pytest.approx(0.5e8)
