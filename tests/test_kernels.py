"""Backend equivalence: the numba fast path and the numpy fallback must agree."""

import numpy as np
import pytest

from quilt import kernels
from quilt.simsv import simulate

from oracles import random_circuit, statevector_oracle, unitary_full


needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not installed")


@pytest.fixture
def restore_backend():
    saved = kernels.active_backend()
    yield
    kernels.use_backend(saved)


@needs_numba
def test_backends_agree_on_random_circuits(restore_backend):
    rng = np.random.default_rng(2024)
    circuits = [random_circuit(rng, 6, 40) for _ in range(10)]
    kernels.use_backend("numpy")
    ref = [simulate(c).amps for c in circuits]
    kernels.use_backend("numba")
    fast = [simulate(c).amps for c in circuits]
    for a, b in zip(ref, fast):
        assert np.allclose(a, b, atol=1e-12)


def test_numpy_backend_matches_dense_oracle(restore_backend):
    kernels.use_backend("numpy")
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_circuit(rng, 4, 25)
        assert np.allclose(simulate(c).amps, statevector_oracle(c), atol=1e-12)


def test_generic_unitary_application(restore_backend):
    rng = np.random.default_rng(8)
    for targets in [(0,), (2,), (0, 3), (3, 1), (1, 2, 4)]:
        k = len(targets)
        m = np.linalg.qr(
            rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
        )[0]
        psi = rng.normal(size=32) + 1j * rng.normal(size=32)
        psi /= np.linalg.norm(psi)
        work = psi.astype(np.complex128).copy()
        kernels.apply_unitary(work, targets, m)
        ref = unitary_full(m, targets, 5) @ psi
        assert np.allclose(work, ref, atol=1e-12)


def _random_unitary(rng, k):
    z = rng.normal(size=(1 << k, 1 << k)) + 1j * rng.normal(size=(1 << k, 1 << k))
    return np.linalg.qr(z)[0]


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_unitary_matches_dense_embedding_for_every_target_order(n):
    rng = np.random.default_rng(40 + n)
    for k in range(1, n + 1):
        # random orders: unsorted and non-contiguous for k < n, all qubits at k = n
        for _ in range(3):
            targets = tuple(int(q) for q in rng.permutation(n)[:k])
            m = _random_unitary(rng, k)
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            work = psi.copy()
            kernels.apply_unitary(work, targets, m)
            ref = unitary_full(m, targets, n) @ psi
            assert np.max(np.abs(work - ref)) <= 1e-12, (n, targets)


@pytest.mark.parametrize("batch", [1, 3, 7])
def test_unitary_gate_op_on_a_batch_matches_each_row(batch):
    from quilt.circuit import Gate, GateKind
    from quilt.simsv import _apply_op

    rng = np.random.default_rng(60 + batch)
    n = 5
    for targets in [(0, 1, 2), (4, 1, 2), (3, 0, 4)]:
        m = _random_unitary(rng, 3)
        rows = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
        amps = rows.copy()
        _apply_op(("gate", Gate(GateKind.UNITARY, targets, matrix=m)), amps)
        full = unitary_full(m, targets, n)
        for got, row in zip(amps, rows):
            assert np.max(np.abs(got - full @ row)) <= 1e-12, targets


@pytest.mark.parametrize("n", range(1, 9))
def test_apply_diagonal_matches_dense_embedding_for_every_target_order(n):
    rng = np.random.default_rng(80 + n)
    for k in range(1, n + 1):
        for _ in range(3):
            targets = tuple(int(q) for q in rng.permutation(n)[:k])
            d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=1 << k))
            psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            work = psi.copy()
            kernels.apply_diagonal(work, targets, d)
            ref = unitary_full(np.diag(d), targets, n) @ psi
            assert np.max(np.abs(work - ref)) <= 1e-12, (n, targets)


@pytest.mark.parametrize("batch", [1, 3, 7])
def test_diagonal_gates_compiled_on_a_batch_match_each_row(batch):
    from quilt.circuit import Circuit, Gate, GateKind
    from quilt.simsv import _apply_op, _compile

    rng = np.random.default_rng(90 + batch)
    n = 5
    gates = [Gate(GateKind.DIAGONAL, targets,
                  matrix=np.exp(1j * rng.uniform(-np.pi, np.pi, size=1 << len(targets))))
             for targets in [(0, 1, 2), (4, 1), (3,), (3, 0, 4, 2)]]
    gates.insert(2, Gate(GateKind.H, (1,)))
    circuit = Circuit(n, tuple(gates))
    ops = _compile(circuit.gates, n)
    assert [op[0] for op in ops] == ["gate", "gate", "single", "single", "gate"]
    rows = rng.normal(size=(batch, 1 << n)) + 1j * rng.normal(size=(batch, 1 << n))
    amps = rows.copy()
    for op in ops:
        _apply_op(op, amps)
    for got, row in zip(amps, rows):
        want = statevector_oracle(circuit, initial=row)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_use_backend_validates():
    with pytest.raises(ValueError):
        kernels.use_backend("cuda")
