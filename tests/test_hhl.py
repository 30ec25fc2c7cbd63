import json

import numpy as np
import pytest

from quilt.circuit import Circuit
from quilt.hhl import (
    HhlError,
    LinearSystem,
    build_hhl_circuit,
    classical_solve,
    gershgorin_bound,
    load_system,
    pauli_decompose,
    pauli_sum_matrix,
    phase_aligned_deviation,
    random_spd_system,
    solve,
)
from quilt.simsv import simulate

from oracles import pauli_matrix


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


# -- Pauli decomposition -------------------------------------------------------


def test_decompose_identity():
    ps = pauli_decompose(np.eye(4))
    assert len(ps) == 1
    coeff, string = ps.terms[0]
    assert string.ops == "II" and coeff == pytest.approx(1.0)


def test_decompose_single_x():
    ps = pauli_decompose(np.array([[0, 1], [1, 0]], dtype=float))
    assert len(ps) == 1
    coeff, string = ps.terms[0]
    assert string.ops == "X" and coeff == pytest.approx(1.0)


def test_decompose_random_hermitian_reconstructs():
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        a = random_hermitian(rng, 1 << n)
        ps = pauli_decompose(a)
        assert len(ps) <= 4**n
        recon = pauli_sum_matrix(ps)
        assert np.max(np.abs(recon - a)) < 1e-12
        # cross-check the string convention against the test-side oracle
        for coeff, string in ps.terms:
            assert np.allclose(
                pauli_string_matrix_oracle(string.ops),
                pauli_matrix(string.ops),
                atol=1e-12,
            )


def pauli_string_matrix_oracle(ops):
    from quilt.hhl import pauli_string_matrix

    return pauli_string_matrix(ops)


def test_decompose_rejects_bad_inputs():
    with pytest.raises(HhlError):
        pauli_decompose(np.array([[0, 1], [0, 0]], dtype=float))  # not Hermitian
    with pytest.raises(HhlError):
        pauli_decompose(np.eye(3))  # not a power of two


# -- system construction ---------------------------------------------------------


def test_gershgorin_bounds_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_hermitian(rng, 4)
        assert np.linalg.eigvalsh(a)[-1] <= gershgorin_bound(a) + 1e-12


def test_system_validation():
    with pytest.raises(HhlError):
        LinearSystem.build(np.array([[0, 1], [0, 0]]), [1, 0])
    with pytest.raises(HhlError):
        LinearSystem.build(np.eye(3), [1, 0, 0])
    with pytest.raises(HhlError):
        LinearSystem.build(np.eye(2), [0, 0])
    with pytest.raises(HhlError):
        LinearSystem.build(np.diag([1.0, -0.5]), [1, 1])  # indefinite


def test_system_scale_puts_spectrum_in_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(10):
        sys_ = random_spd_system(rng, 4, cond=8.0)
        scaled = np.linalg.eigvalsh(sys_.matrix) * sys_.scale
        assert np.all(scaled > 0) and np.all(scaled <= 0.5 + 1e-12)


# -- circuit synthesis ------------------------------------------------------------


def test_qubit_count():
    sys_ = LinearSystem.build(np.eye(4), [1, 0, 0, 0], m=4)
    assert build_hhl_circuit(sys_).n_qubits == 7


def test_qpe_exactly_peaked_for_dyadic_eigenvalues():
    # A = diag(4, 2)/8 with scale 1: eigenphases 4/16 and 2/16 for m = 4
    a = np.diag([0.5, 0.25])
    sys_ = LinearSystem.build(a, [1.0, 0.0], m=4)
    assert sys_.scale == pytest.approx(1.0)
    circ = build_hhl_circuit(sys_)
    m = sys_.m
    prep_and_qpe = Circuit(sys_.total_qubits, circ.gates[: 1 + 2 * m + 1])
    state = simulate(prep_and_qpe)
    probs = state.probabilities().reshape(2, 1 << m, sys_.dim).sum(axis=(0, 2))
    # b = e_0 is the eigenvector with eigenvalue 0.5 -> clock value 8
    assert probs[8] == pytest.approx(1.0, abs=1e-10)


def test_qpe_uncomputes_to_encoded_rhs():
    rng = np.random.default_rng(5)
    sys_ = random_spd_system(rng, 4, cond=4.0, m=5)
    circ = build_hhl_circuit(sys_)
    m = sys_.m
    qpe_len = 2 * m + 1
    gates = circ.gates[: 1 + qpe_len] + circ.gates[1 + qpe_len + 1 :]
    state = simulate(Circuit(sys_.total_qubits, gates))
    b_hat = sys_.rhs / np.linalg.norm(sys_.rhs)
    expected = np.zeros(1 << sys_.total_qubits, dtype=complex)
    expected[: sys_.dim] = b_hat
    fidelity = abs(np.vdot(expected, state.amps)) ** 2
    assert fidelity >= 1 - 1e-10


def test_warns_when_clock_too_small():
    a = np.diag([1.0, 0.004])
    sys_ = LinearSystem.build(a, [1.0, 1.0], m=3)
    with pytest.warns(UserWarning):
        build_hhl_circuit(sys_)


# -- solve -------------------------------------------------------------------------


def test_identity_system_recovers_rhs():
    b = np.array([0.3, 0.5, 0.1, 0.8])
    res = solve(LinearSystem.build(np.eye(4), b, m=4))
    assert res.deviation < 1e-6
    assert abs(np.linalg.norm(res.x_quantum) - 1.0) < 1e-12
    assert 0 < res.success_prob <= 1


def test_dyadic_diagonal_closed_form():
    sys_ = LinearSystem.build(np.diag([0.25, 0.5]), np.array([1, 1]) / np.sqrt(2), m=3)
    res = solve(sys_)
    assert res.deviation < 1e-6
    expected = np.array([4.0, 2.0])
    expected /= np.linalg.norm(expected)
    assert np.max(np.abs(np.abs(res.x_quantum) - expected)) < 1e-8


def test_random_spd_under_two_percent():
    rng = np.random.default_rng(12)
    sys_ = random_spd_system(rng, 4, cond=8.0, m=6)
    assert solve(sys_).deviation < 0.02


@pytest.mark.filterwarnings("ignore:clock register")
def test_deviation_non_increasing_in_clock_size():
    # dyadic eigenvalues (multiples of 1/16, max 1/2) keep scale = 1
    rng = np.random.default_rng(9)
    medians = []
    for m in (2, 3, 4, 5):
        devs = []
        for _ in range(8):
            evals = rng.choice([2, 3, 5, 8], size=4, replace=True) / 16.0
            evals[0] = 0.5  # pin the Gershgorin bound of the diagonal matrix
            b = rng.normal(size=4)
            sys_ = LinearSystem.build(np.diag(evals), b, m=m)
            assert sys_.scale == pytest.approx(1.0)
            devs.append(solve(sys_).deviation)
        medians.append(np.median(devs))
    for a, b in zip(medians, medians[1:]):
        assert b <= a + 1e-9


def test_success_prob_matches_projection():
    rng = np.random.default_rng(21)
    sys_ = random_spd_system(rng, 2, cond=3.0, m=4)
    res = solve(sys_)
    state = simulate(build_hhl_circuit(sys_))
    offset = 1 << (sys_.n + sys_.m)
    manual = float(np.linalg.norm(state.amps[offset : offset + sys_.dim]) ** 2)
    assert res.success_prob == pytest.approx(manual, abs=1e-12)
    assert 0.0 <= res.deviation <= 2.0


# -- classical solve -----------------------------------------------------------------


def test_classical_identity_and_diagonal():
    assert np.allclose(classical_solve(np.eye(2), [1, 1]), [1, 1])
    assert np.allclose(classical_solve(np.diag([1.0, 2.0]), [1, 1]), [1, 0.5])


def test_classical_64x64_residual():
    rng = np.random.default_rng(64)
    a = random_hermitian(rng, 64) + 10 * np.eye(64)
    b = rng.normal(size=64)
    x = classical_solve(a, b)
    assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10


def test_classical_singular_rejected():
    with pytest.raises(HhlError):
        classical_solve(np.zeros((2, 2)), [1, 0])


def test_phase_aligned_deviation_ignores_phase():
    x = np.array([0.6, 0.8], dtype=complex)
    assert phase_aligned_deviation(x * np.exp(0.7j), x) < 1e-12


def test_phase_aligned_deviation_resolves_near_zero():
    # sqrt(2 - 2|<x_c, x_q>|) rounds these steps to 0.0; the distance must not
    rng = np.random.default_rng(31)
    x_c = rng.normal(size=4) + 1j * rng.normal(size=4)
    x_hat = x_c / np.linalg.norm(x_c)
    ortho = rng.normal(size=4) + 1j * rng.normal(size=4)
    ortho -= np.vdot(x_hat, ortho) * x_hat
    ortho /= np.linalg.norm(ortho)
    for step in (1e-8, 1e-10):
        x_q = (x_hat + step * ortho) * np.exp(2.3j)
        assert phase_aligned_deviation(x_q, 3.0 * x_c) == pytest.approx(step, rel=1e-6)
    # non-unit x_q: the minimum over phi of ||x_q e^{i phi} - x_hat|| on a grid
    x_q = 0.7 * np.exp(-1.1j) * x_hat + 0.2 * ortho
    phis = np.linspace(0.0, 2 * np.pi, 20001)
    brute = np.linalg.norm(np.outer(np.exp(1j * phis), x_q) - x_hat, axis=1).min()
    expected = np.sqrt(0.3**2 + 0.2**2)
    assert brute == pytest.approx(expected, rel=1e-6)
    assert phase_aligned_deviation(x_q, x_c) == pytest.approx(expected, rel=1e-12)
    # exact phase estimation (eigenvalues on the 1/16 grid) leaves only rounding
    sys_ = LinearSystem.build(np.diag([0.5, 0.125, 0.1875, 0.3125]), x_c, m=4)
    assert solve(sys_).deviation < 1e-14


# -- file interface -------------------------------------------------------------------


def test_load_system_json(tmp_path):
    path = tmp_path / "sys.json"
    data = {
        "A": [[1.0, [0.0, -0.2]], [[0.0, 0.2], 0.8]],
        "b": [1.0, [0.5, 0.1]],
        "m": 5,
    }
    path.write_text(json.dumps(data))
    sys_ = load_system(path)
    assert sys_.m == 5
    assert sys_.matrix[0, 1] == pytest.approx(-0.2j)
    res = solve(sys_)
    assert res.deviation < 0.05


def test_load_system_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(HhlError):
        load_system(path)


# -- mask decomposition against the Kronecker reference --------------------------


def _decomposition_cases(rng, n):
    """Random complex Hermitian and real symmetric matrices, and matrices with
    exact zeros (most Pauli coefficients of these are exactly 0)."""
    dim = 1 << n
    cases = []
    for k in range(3):
        real = rng.normal(size=(dim, dim))
        cases += [(f"complex hermitian {k}", random_hermitian(rng, dim)),
                  (f"real symmetric {k}", real + real.T)]
    pair = np.zeros((dim, dim))
    pair[0, 1] = pair[1, 0] = 2.5
    return cases + [
        ("diagonal", np.diag(rng.integers(-3, 4, size=dim).astype(float))),
        ("single X", pauli_matrix("I" * (n - 1) + "X")),
        ("identity", np.eye(dim)),
        ("one off-diagonal pair", pair),
        ("zero", np.zeros((dim, dim))),
        # either side of the 1e-12 drop rule
        ("tiny Z term", np.eye(dim) + 5e-13 * pauli_matrix("Z" * n)),
        ("small X term", np.eye(dim) + 5e-12 * pauli_matrix("X" * n)),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_decompose_matches_the_kronecker_reference(n):
    from oracles import reference_pauli_decompose

    rng = np.random.default_rng(100 + n)
    for name, a in _decomposition_cases(rng, n):
        got, want = pauli_decompose(a), reference_pauli_decompose(a)
        assert [p.ops for _, p in got.terms] == [p.ops for _, p in want.terms], name
        for (c_got, _), (c_want, _) in zip(got.terms, want.terms):
            assert abs(c_got - c_want) <= 1e-12, name
        if got.terms:
            assert np.max(np.abs(pauli_sum_matrix(got) - a)) < 1e-12, name


def test_pauli_decompose_raises_what_the_reference_raises():
    from oracles import reference_pauli_decompose

    skew = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    skew[0, 1] += 1e-9j  # Hermitian within 1e-10 fails
    bad = [
        np.array([[0, 1], [0, 0]], dtype=float),  # not Hermitian
        np.eye(3),  # not a power of two
        np.ones((2, 4)),  # not square
        np.ones(4),  # not a matrix
        skew,
    ]
    for a in bad:
        with pytest.raises(HhlError) as want:
            reference_pauli_decompose(a)
        with pytest.raises(HhlError) as got:
            pauli_decompose(a)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_matrices_from_masks_equal_the_kronecker_products(n):
    import itertools

    from quilt.circuit import PauliSum
    from quilt.hhl import pauli_string_matrix

    rng = np.random.default_rng(n)
    labels = ["".join(ops) for ops in itertools.product("IXYZ", repeat=n)]
    for label in labels:
        assert np.array_equal(pauli_string_matrix(label), pauli_matrix(label)), label
    coeffs = rng.normal(size=len(labels))
    want = sum(c * pauli_matrix(label) for c, label in zip(coeffs, labels))
    got = pauli_sum_matrix(PauliSum(zip(coeffs, labels)))
    assert np.max(np.abs(got - want)) < 1e-12
