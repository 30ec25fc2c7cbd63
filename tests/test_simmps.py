import numpy as np
import pytest

from quilt.circuit import Circuit, cx, h
from quilt.simmps import (
    MpsError,
    MpsState,
    bond_entropies,
    entropy_profile,
    mps_simulate,
    profile_to_csv,
)
from quilt.simsv import simulate

from oracles import entropies_from_statevector, random_circuit


def test_product_circuit_all_bonds_trivial():
    c = Circuit(5, tuple(h(i) for i in range(5)))
    st = mps_simulate(c)
    assert all(t.shape[0] == 1 and t.shape[2] == 1 for t in st.site_tensors)
    assert np.allclose(bond_entropies(st), 0.0, atol=1e-12)


def test_bell_bond_spectrum_and_entropy():
    st = mps_simulate(Circuit(2, (h(0), cx(0, 1))))
    st.refresh_spectra()
    assert np.allclose(st.bond_spectra[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    s = bond_entropies(st)
    assert abs(s[0] - 1.0) < 1e-10


def test_ghz4_every_bond_one_bit():
    c = Circuit(4, (h(0), cx(0, 1), cx(1, 2), cx(2, 3)))
    s = bond_entropies(mps_simulate(c))
    assert np.allclose(s, 1.0, atol=1e-10)


def test_exact_mps_matches_statevector_nearest_neighbor():
    rng = np.random.default_rng(21)
    for n in range(2, 11):
        c = random_circuit(rng, n, 40, nearest_neighbor=True)
        mps = mps_simulate(c, chi_max=None, trunc_tol=0.0)
        sv = simulate(c)
        fid = abs(np.vdot(mps.amplitudes(), sv.amps)) ** 2
        assert fid >= 1 - 1e-10


def test_chi_half_exact_for_10_qubits():
    rng = np.random.default_rng(33)
    c = random_circuit(rng, 10, 60, nearest_neighbor=True)
    mps = mps_simulate(c, chi_max=2**5, trunc_tol=0.0)
    fid = abs(np.vdot(mps.amplitudes(), simulate(c).amps)) ** 2
    assert fid >= 1 - 1e-10


def test_swap_routing_for_nonadjacent_gates():
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_circuit(rng, 6, 25, nearest_neighbor=False)
        mps = mps_simulate(c, route=True)
        fid = abs(np.vdot(mps.amplitudes(), simulate(c).amps)) ** 2
        assert fid >= 1 - 1e-10
    c = Circuit(4, (h(0), cx(0, 3)))
    assert mps_simulate(c).swaps_inserted == 4  # 2 in, 2 back out
    with pytest.raises(MpsError):
        mps_simulate(c, route=False)


def test_routed_diagonal_gate_matches_statevector():
    from quilt.circuit import Gate, GateKind

    rng = np.random.default_rng(14)
    for qubits in [(0, 3), (4, 1), (2, 3), (3, 2)]:
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=4))
        c = Circuit(5, tuple(h(q) for q in range(5))
                    + (cx(1, 2), Gate(GateKind.DIAGONAL, qubits, matrix=d), cx(0, 1)))
        amps = mps_simulate(c).amplitudes()
        assert np.max(np.abs(amps - simulate(c).amps)) <= 1e-12, qubits


def test_truncation_reported_and_monotone_in_chi():
    rng = np.random.default_rng(6)
    c = random_circuit(rng, 8, 80, nearest_neighbor=True)
    weights = []
    for chi in (2, 4, 8, 16):
        st = mps_simulate(c, chi_max=chi, trunc_tol=0.0)
        weights.append(st.discarded_weight)
    assert all(a >= b - 1e-12 for a, b in zip(weights, weights[1:]))
    assert weights[-1] <= weights[0] + 1e-12


def test_entropy_bounds():
    rng = np.random.default_rng(14)
    for _ in range(5):
        n = 7
        c = random_circuit(rng, n, 50, nearest_neighbor=True)
        chi = 4
        s = bond_entropies(mps_simulate(c, chi_max=chi))
        for k in range(n - 1):
            bound = np.log2(min(2 ** (k + 1), 2 ** (n - k - 1), chi))
            assert -1e-12 <= s[k] <= bound + 1e-9


def test_spectra_normalized():
    rng = np.random.default_rng(2)
    c = random_circuit(rng, 6, 40, nearest_neighbor=True)
    st = mps_simulate(c, chi_max=3, trunc_tol=0.0)
    st.refresh_spectra()
    for svals in st.bond_spectra:
        assert abs(np.sum(svals**2) - 1.0) < 1e-8
        assert np.all(np.diff(svals) <= 1e-12)  # descending


def test_profile_initial_checkpoint_zero():
    c = Circuit(3, (h(0), cx(0, 1)))
    prof = entropy_profile(c, [0])
    assert prof.shape == (1, 2)
    assert np.allclose(prof, 0.0, atol=1e-12)


def test_profile_single_bell_one_nonzero_column():
    c = Circuit(4, (h(0), cx(0, 1)))
    prof = entropy_profile(c, [2])
    assert abs(prof[0, 0] - 1.0) < 1e-10
    assert np.allclose(prof[0, 1:], 0.0, atol=1e-10)


def test_profile_matches_reduced_density_oracle():
    # disordered Ising evolution, exact chi: entropies must match partial traces
    from quilt.knit import SpinChainSpec, build_spinchain_circuit

    spec = SpinChainSpec(
        n_qubits=8,
        total_time=0.9,
        steps=3,
        couplings=tuple(np.linspace(0.2, 1.1, 7)),
        transverse=tuple(np.linspace(0.5, 0.9, 8)),
        longitudinal=tuple(np.linspace(-0.3, 0.4, 8)),
    )
    c = build_spinchain_circuit(spec)
    n_per_step = len(c.gates) // 3
    checkpoints = [n_per_step, 2 * n_per_step, len(c.gates)]
    prof = entropy_profile(c, checkpoints, chi_max=None, trunc_tol=0.0)
    for row, cp in zip(prof, checkpoints):
        sub = Circuit(8, c.gates[:cp])
        ref = entropies_from_statevector(simulate(sub).amps, 8)
        assert np.allclose(row, ref, atol=1e-6)


def test_profile_validates_checkpoints():
    c = Circuit(2, (h(0),))
    with pytest.raises(MpsError):
        entropy_profile(c, [1, 1])
    with pytest.raises(MpsError):
        entropy_profile(c, [5])


def test_profile_evolves_a_given_state():
    rng = np.random.default_rng(3)
    c = random_circuit(rng, 6, 40)
    state = MpsState(6, chi_max=2)
    prof = entropy_profile(c, [20, 40], state=state)
    assert np.array_equal(prof, entropy_profile(c, [20, 40], chi_max=2))
    assert state.discarded_weight == mps_simulate(c, chi_max=2).discarded_weight > 0
    with pytest.raises(MpsError):
        entropy_profile(c, [40], state=MpsState(5))


def test_profile_csv_roundtrip_shape():
    c = Circuit(3, (h(0), cx(0, 1), cx(1, 2)))
    prof = entropy_profile(c, [1, 3])
    text = profile_to_csv(prof, [1, 3])
    lines = text.strip().splitlines()
    assert lines[0] == "checkpoint,bond_0,bond_1"
    assert len(lines) == 3


def test_chi_validation():
    with pytest.raises(MpsError):
        MpsState(3, chi_max=0)


_cached_entropies = MpsState.entropies


def _forced_refresh_entropies(state):
    state.refresh_spectra()
    return _cached_entropies(state)


@pytest.mark.parametrize("chi_max,trunc_tol", [(None, 0.0), (2, 0.0), (3, 1e-3)])
def test_cached_entropies_match_forced_refresh(chi_max, trunc_tol):
    from quilt.simmps import _apply_gate

    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        c = random_circuit(rng, n, 40, nearest_neighbor=bool(rng.integers(2)))
        state = MpsState(n, chi_max=chi_max, trunc_tol=trunc_tol)
        for k, gate in enumerate(c.gates):
            _apply_gate(state, gate, True)
            if k % 5 == 4:
                cached = state.entropies()
                assert np.max(np.abs(cached - _forced_refresh_entropies(state))) <= 1e-12


def test_overhead_reduction_bond_unchanged_by_forced_refresh(monkeypatch):
    from quilt.knit import DisorderSpec, SpinChainSpec, build_spinchain_circuit, overhead_reduction

    chains = []
    for seed in range(200):
        n, steps = 4 + seed % 5, 1 + seed % 2
        spec = SpinChainSpec(n, 1.0, steps, disorder=DisorderSpec((0.0, 1.2), (0.2, 0.8),
                                                                  (0.0, 0.4), seed))
        chains.append(build_spinchain_circuit(spec.realize()))
    chi = [None, 2]
    cached = [overhead_reduction(c, chi_max=chi[i % 2]).cut_bond for i, c in enumerate(chains)]
    monkeypatch.setattr(MpsState, "entropies", _forced_refresh_entropies)
    forced = [overhead_reduction(c, chi_max=chi[i % 2]).cut_bond for i, c in enumerate(chains)]
    assert cached == forced
