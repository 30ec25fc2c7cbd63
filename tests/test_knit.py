import dataclasses

import numpy as np
import pytest

from quilt import knit
from quilt.circuit import Circuit, Gate, PauliSum, cx, cz, h, rx, ry, rzz, unitary
from quilt.knit import (
    CutGateDecomposition,
    KnitError,
    SpinChainSpec,
    DisorderSpec,
    adaptive_plan,
    baseline_plan,
    build_spinchain_circuit,
    channel_residual,
    decompose_cut_gate,
    knit_execute,
    overhead_reduction,
    plan_cut,
)
from quilt.simmps import entropy_profile
from quilt.simsv import expectation, simulate

from oracles import (
    P2,
    H2,
    S2,
    SDG2,
    embed_1q,
    gate_full,
    pauli_matrix,
    random_circuit,
    reference_knit_exact,
    reference_knit_shots,
    rx2,
)


# -- decompositions -----------------------------------------------------------


def _term_channel_matrix_pair(term):
    """Test-side channel application: (rho4) -> sum form, independent of knit."""

    def side(ops, meas):
        mats = []
        table = {"s": S2, "sdg": SDG2, "z": P2["Z"], "x": P2["X"], "h": H2}

        for op in ops:
            if op.kind.value in table:
                mats.append(table[op.kind.value])
            elif op.kind.value == "rx":
                mats.append(rx2(op.param))
            elif op.kind.value == "rz":
                mats.append(
                    np.diag([np.exp(-0.5j * op.param), np.exp(0.5j * op.param)])
                )
            else:
                raise AssertionError(f"unexpected local op {op.kind}")

        def apply(rho):
            for m in mats:
                rho = m @ rho @ m.conj().T
            if meas is not None:
                v = {"Z": np.eye(2), "X": H2, "Y": H2 @ SDG2}[meas]
                rho = v @ rho @ v.conj().T
                d = np.diag(np.diag(rho)).astype(complex)
                d[1, 1] *= -1
                rho = np.zeros((2, 2), complex)
                rho[0, 0] = d[0, 0]
                rho[1, 1] = d[1, 1]
                rho = v.conj().T @ rho @ v
            return rho

        return apply

    return side


def independent_channel_residual(dec: CutGateDecomposition) -> float:
    """Re-derivation of the channel-identity check with test-local code."""
    u = gate_full(dec.original, 2)  # qubits (0, 1) of a 2-qubit space
    worst = 0.0
    for i in range(4):
        for j in range(4):
            rho = np.zeros((4, 4), complex)
            rho[i, j] = 1.0
            want = u @ rho @ u.conj().T
            got = np.zeros((4, 4), complex)
            for term in dec.terms:
                mk = _term_channel_matrix_pair(term)
                left = mk(term.left_ops, term.left_meas)
                right = mk(term.right_ops, term.right_meas)
                t4 = rho.reshape(2, 2, 2, 2)
                acc = np.zeros_like(t4)
                for b in range(2):
                    for bp in range(2):
                        acc[b, :, bp, :] = left(t4[b, :, bp, :])
                out = np.zeros_like(t4)
                for a in range(2):
                    for ap in range(2):
                        out[:, a, :, ap] = right(acc[:, a, :, ap])
                got += term.coefficient * out.reshape(4, 4)
            worst = max(worst, float(np.max(np.abs(want - got))))
    return worst


def test_rzz_zero_is_single_identity_term():
    dec = decompose_cut_gate(rzz(0, 1, 0.0))
    assert len(dec.terms) == 1
    assert dec.gamma == 1.0
    assert not dec.terms[0].left_ops and not dec.terms[0].right_ops


def test_rzz_half_pi_gamma_three():
    dec = decompose_cut_gate(rzz(0, 1, np.pi / 2))
    assert abs(dec.gamma - 3.0) < 1e-12
    assert independent_channel_residual(dec) < 1e-8


def test_cx_and_cz_gamma_three():
    for g in (cx(0, 1), cz(0, 1)):
        dec = decompose_cut_gate(g)
        assert abs(dec.gamma - sum(abs(t.coefficient) for t in dec.terms)) < 1e-12
        assert abs(dec.gamma - 3.0) < 1e-12
        assert independent_channel_residual(dec) < 1e-8


def test_channel_identity_over_theta_grid():
    for theta in np.linspace(-np.pi, np.pi, 17):
        dec = decompose_cut_gate(rzz(0, 1, float(theta)))
        assert dec.residual < 1e-8
        assert independent_channel_residual(dec) < 1e-8


def test_gamma_continuous_and_monotone():
    thetas = np.linspace(0, np.pi / 2, 60)
    gammas = [decompose_cut_gate(rzz(0, 1, float(t))).gamma for t in thetas]
    assert abs(gammas[0] - 1.0) < 1e-12
    assert abs(decompose_cut_gate(rzz(0, 1, 2 * np.pi)).gamma - 1.0) < 1e-9
    sins = np.abs(np.sin(thetas))
    for i in range(1, len(thetas)):
        assert gammas[i] >= gammas[i - 1] - 1e-12  # |sin| increasing here
        assert abs(gammas[i] - gammas[i - 1]) < 0.1  # continuity on the grid
    # gamma is a function of |sin(theta)|
    assert np.allclose(gammas, 1 + 2 * sins, atol=1e-12)


def test_unsupported_kind_rejected():
    with pytest.raises(KnitError):
        decompose_cut_gate(h(0))


def test_mirrored_decomposition_keeps_channel_identity():
    for g in (cx(0, 1), cz(0, 1), rzz(0, 1, 0.9)):
        mirrored = decompose_cut_gate(g).mirrored()
        assert channel_residual(mirrored) < 1e-8
        assert abs(mirrored.gamma - decompose_cut_gate(g).gamma) < 1e-12


def _cut_gate_decompositions():
    gates = [rzz(0, 1, float(t)) for t in np.linspace(-np.pi, np.pi, 17)] + [cx(0, 1), cz(0, 1)]
    for g in gates:
        yield decompose_cut_gate(g)
        yield decompose_cut_gate(g).mirrored()


def test_channel_residual_matches_independent_check():
    for dec in _cut_gate_decompositions():
        # the oracle embeds the original on its qubits; a mirror's matrix is
        # already in (left, right) order, so hand it over on qubits (0, 1)
        local = dataclasses.replace(dec, original=unitary((0, 1), dec.original.unitary()))
        assert abs(channel_residual(dec) - independent_channel_residual(local)) <= 1e-12


def test_perturbed_decomposition_fails_channel_check():
    for dec in _cut_gate_decompositions():
        if len(dec.terms) < 2:
            continue
        first = dec.terms[0]
        nudged = dataclasses.replace(first, coefficient=first.coefficient + 1e-6)
        with pytest.raises(KnitError, match="channel-identity"):
            knit._finish(dec.original, (nudged,) + dec.terms[1:])
        # the same coefficients with two terms' sides exchanged
        swapped = dataclasses.replace(first, left_ops=dec.terms[1].left_ops,
                                      left_meas=dec.terms[1].left_meas)
        if (swapped.left_ops, swapped.left_meas) != (first.left_ops, first.left_meas):
            with pytest.raises(KnitError, match="channel-identity"):
                knit._finish(dec.original, (swapped,) + dec.terms[1:])


# -- plans ---------------------------------------------------------------------


def _chain_circuit(n, theta=0.5, steps=1):
    gates = []
    for _ in range(steps):
        gates += [rzz(i, i + 1, theta) for i in range(n - 1)]
    return Circuit(n, tuple(gates))


def test_baseline_bond_positions():
    assert baseline_plan(_chain_circuit(4)).cut_bond == 1
    assert baseline_plan(_chain_circuit(5)).cut_bond == 2  # fragments 3+2


def test_plan_overhead_is_gamma_product():
    c = _chain_circuit(6, theta=0.9, steps=3)
    plan = baseline_plan(c)
    gammas = [d.gamma for d in plan.decompositions]
    assert len(gammas) == 3  # one crossing gate per step
    expected = np.prod([g**2 for g in gammas])
    assert abs(plan.total_overhead - expected) < 1e-12
    g_oracle = 1 + 2 * abs(np.sin(0.9))
    assert abs(plan.total_overhead - g_oracle**6) < 1e-9


def test_plan_rejects_uncuttable_crossing():
    u = unitary((1, 2), np.eye(4, dtype=complex))
    c = Circuit(4, (u,))
    with pytest.raises(KnitError):
        plan_cut(c, 1)


def test_adaptive_plan_prefers_weak_bond():
    couplings = [0.9, 0.8, 1e-6, 0.7, 0.9, 1.1, 0.8, 0.9, 1.0, 0.7, 0.8]
    spec = SpinChainSpec(
        n_qubits=12, total_time=1.2, steps=2,
        couplings=tuple(couplings),
        transverse=tuple([0.6] * 12),
        longitudinal=tuple([0.2] * 12),
    )
    circ = build_spinchain_circuit(spec)
    per_step = len(circ.gates) // 2
    prof = entropy_profile(circ, [per_step, len(circ.gates)])
    plan = adaptive_plan(circ, prof)
    assert plan.cut_bond == 2
    assert plan.total_overhead <= baseline_plan(circ).total_overhead


def test_adaptive_tie_breaks_to_balanced_then_low_index():
    c12 = Circuit(12, tuple(h(i) for i in range(12)))
    prof = entropy_profile(c12, [len(c12.gates)])
    assert adaptive_plan(c12, prof).cut_bond == 5
    c5 = Circuit(5, tuple(h(i) for i in range(5)))
    prof5 = entropy_profile(c5, [len(c5.gates)])
    assert adaptive_plan(c5, prof5).cut_bond == 1


def test_adaptive_infeasible_constraints():
    c = _chain_circuit(12)
    prof = entropy_profile(c, [len(c.gates)])
    with pytest.raises(KnitError):
        adaptive_plan(c, prof, max_fragment=3)


def test_adaptive_imbalance_constraint():
    c = _chain_circuit(12)
    prof = entropy_profile(c, [len(c.gates)])
    plan = adaptive_plan(c, prof, imbalance_tol=0)
    assert plan.cut_bond == 5  # only the perfectly balanced bond qualifies
    c5 = _chain_circuit(5)
    prof5 = entropy_profile(c5, [len(c5.gates)])
    with pytest.raises(KnitError):
        adaptive_plan(c5, prof5, imbalance_tol=0)  # odd width: none qualify


# -- exact execution -----------------------------------------------------------


def test_two_qubit_knit_matches_statevector():
    c = Circuit(2, (h(0), rzz(0, 1, 0.7)))
    plan = plan_cut(c, 0)
    obs = PauliSum([(1.0, "ZZ")])
    res = knit_execute(c, plan, obs)
    ref = expectation(simulate(c), obs)
    assert abs(res.value - ref) < 1e-8
    assert abs(sum(res.per_term_values) - res.value) < 1e-12


def test_zero_cut_plan_is_fragment_product():
    c = Circuit(4, (ry(0, 0.8), cx(0, 1), ry(2, 1.1), cx(2, 3)))
    plan = plan_cut(c, 1)
    assert plan.cut_gates == ()
    assert plan.total_overhead == 1.0
    obs = PauliSum([(1.0, "ZZZZ")])
    res = knit_execute(c, plan, obs)
    left = expectation(simulate(Circuit(2, (ry(0, 0.8), cx(0, 1)))),
                       PauliSum([(1.0, "ZZ")]))
    right = expectation(simulate(Circuit(2, (ry(0, 1.1), cx(0, 1)))),
                        PauliSum([(1.0, "ZZ")]))
    assert abs(res.value - left * right) < 1e-10


def test_trotter_12q_single_cut_exact():
    spec = SpinChainSpec(
        n_qubits=12, total_time=0.8, steps=2,
        couplings=tuple(np.linspace(0.3, 1.0, 11)),
        transverse=tuple([0.7] * 12),
        longitudinal=tuple([0.15] * 12),
    )
    c = build_spinchain_circuit(spec)
    plan = baseline_plan(c)
    obs = PauliSum([(1.0, "IIIZ" + "I" * 8)])
    res = knit_execute(c, plan, obs)
    ref = expectation(simulate(c), obs)
    assert abs(res.value - ref) < 1e-8


def test_random_single_cut_circuits_exact(n_cases=15):
    from oracles import random_circuit

    rng = np.random.default_rng(60)
    for _ in range(n_cases):
        n = int(rng.integers(4, 11))
        c = random_circuit(rng, n, 25, nearest_neighbor=True)
        bond = int(rng.integers(0, n - 1))
        # cap cut gates for runtime: recut circuits with too many crossings
        crossing = [
            i for i, g in enumerate(c.gates)
            if len(g.qubits) == 2 and min(g.qubits) <= bond < max(g.qubits)
        ]
        if len(crossing) > 3:
            keep = [g for i, g in enumerate(c.gates) if i not in crossing[3:]]
            c = Circuit(n, tuple(keep))
        plan = plan_cut(c, bond)
        ops = "".join(rng.choice(["I", "Z", "X"], p=[0.5, 0.3, 0.2]) for _ in range(n))
        obs = PauliSum([(1.0, ops), (0.5, "Z" * n)])
        res = knit_execute(c, plan, obs)
        ref = expectation(simulate(c), obs)
        assert abs(res.value - ref) < 1e-8


def _random_pauli_sum(rng, n, n_terms=3):
    return PauliSum([(float(rng.uniform(-1.5, 1.5)), "".join(rng.choice(list("IXYZ"), size=n)))
                     for _ in range(n_terms)])


def _lockstep_cases():
    """~40 random nearest-neighbour circuits cut with 0-3 RZZ/CX/CZ gates,
    half of them with a random 2-qubit unitary inside a fragment."""
    rng = np.random.default_rng(77)
    cases = []
    for i in range(40):
        n = int(rng.integers(2, 8))
        c = random_circuit(rng, n, int(rng.integers(10, 30)), nearest_neighbor=True)
        bond = int(rng.integers(0, n - 1))
        crossing = [j for j, g in enumerate(c.gates)
                    if len(g.qubits) == 2 and min(g.qubits) <= bond < max(g.qubits)]
        drop = set(crossing[i % 4:])
        gates = [g for j, g in enumerate(c.gates) if j not in drop]
        if i % 2 and max(bond + 1, n - bond - 1) >= 2:
            lo = 0 if bond >= 1 else bond + 1
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            gates.insert(int(rng.integers(0, len(gates) + 1)), unitary((lo + 1, lo), q))
        cases.append((Circuit(n, tuple(gates)), bond, _random_pauli_sum(rng, n)))
    return cases


@pytest.mark.parametrize("batch_amps", [None, 48])
def test_lockstep_knit_matches_reference(monkeypatch, batch_amps):
    fill = []  # each batch's amplitudes over the cap (or one row, if larger)
    if batch_amps is not None:  # every batch past the cap goes on one piece at a time
        monkeypatch.setattr(knit, "_BATCH_AMPS", batch_amps)
        run = knit._run_lockstep

        def recording(ops, amps, *rest):
            fill.append(amps.size / max(batch_amps, amps.shape[1]))
            return run(ops, amps, *rest)

        monkeypatch.setattr(knit, "_run_lockstep", recording)
    seen = {"mirrored": 0, "unitary": 0, "cuts": set(), "kinds": set()}
    for c, bond, obs in _lockstep_cases():
        plan = plan_cut(c, bond)
        want = reference_knit_exact(c, plan, obs)
        got = knit_execute(c, plan, obs)
        assert len(got.per_term_values) == len(want.per_term_values)
        assert np.max(np.abs(np.subtract(got.per_term_values, want.per_term_values))) <= 1e-12
        assert abs(got.value - want.value) <= 1e-12
        seen["cuts"].add(len(plan.cut_gates))
        seen["kinds"].update(c.gates[i].kind.value for i in plan.cut_gates)
        seen["mirrored"] += sum(c.gates[i].qubits[0] > bond for i in plan.cut_gates)
        seen["unitary"] += any(g.kind.value == "unitary" for g in c.gates)
    assert seen["cuts"] == {0, 1, 2, 3}
    assert seen["kinds"] == {"rzz", "cx", "cz"}
    assert seen["mirrored"] > 0 and seen["unitary"] > 0
    if batch_amps is not None:
        assert fill and max(fill) <= 1.0
        assert min(fill) < 1.0  # some slots still formed one batch


@pytest.mark.parametrize("n_cuts", [4, 5])
def test_exact_knit_four_and_five_cuts(n_cuts):
    rng = np.random.default_rng(n_cuts)
    n, bond = 6, 2
    cut_kinds = [rzz(2, 3, 0.7), cx(3, 2), cz(2, 3), cx(2, 3), rzz(3, 2, -1.9)]
    gates = [ry(q, float(rng.uniform(-np.pi, np.pi))) for q in range(n)]
    for k in range(n_cuts):
        gates.append(cut_kinds[k])
        gates += [rx(2, float(rng.uniform(-np.pi, np.pi))), ry(3, float(rng.uniform(-np.pi, np.pi))),
                  cx(1, 2), rzz(3, 4, float(rng.uniform(-np.pi, np.pi)))]
    c = Circuit(n, tuple(gates))
    plan = plan_cut(c, bond)
    assert len(plan.cut_gates) == n_cuts
    obs = PauliSum([(1.0, "ZIXYIZ"), (0.5, "IIZZII"), (-0.75, "XYIIZX")])
    res = knit_execute(c, plan, obs)
    assert len(res.per_term_values) == 6**n_cuts
    assert abs(res.value - expectation(simulate(c), obs)) <= 1e-9


def test_knit_rejects_mismatched_plan_and_observable():
    c = _chain_circuit(4)
    plan = baseline_plan(c)
    with pytest.raises(KnitError):
        knit_execute(_chain_circuit(5), plan, PauliSum([(1.0, "ZZZZZ")]))
    with pytest.raises(KnitError):
        knit_execute(c, plan, PauliSum([(1.0, "ZZZ")]))


# -- shots mode ------------------------------------------------------------------


def test_shots_estimator_unbiased_within_5_sigma():
    c = Circuit(4, (ry(0, 0.9), ry(1, 0.4), ry(2, 1.3), ry(3, 0.2),
                    rzz(1, 2, 0.8), cx(0, 1), cz(2, 3)))
    plan = plan_cut(c, 1)
    obs = PauliSum([(1.0, "ZZZZ"), (0.5, "IZZI")])
    exact = knit_execute(c, plan, obs).value
    reps = 200
    res = knit_execute(c, plan, obs, mode="shots", shots=reps, seed=99)
    sem = np.std(res.per_term_values, ddof=1) / np.sqrt(reps)
    assert abs(res.value - exact) < 5 * sem
    # determinism under seed
    res2 = knit_execute(c, plan, obs, mode="shots", shots=reps, seed=99)
    assert res.value == res2.value


def test_shots_estimator_with_cx_and_cz_cuts():
    # crossing CX exercises the X-basis measure-and-reprepare trajectory
    c = Circuit(4, (ry(0, 1.1), ry(1, 0.5), ry(2, 0.8), ry(3, 1.7),
                    cx(1, 2), ry(1, 0.4), cz(2, 1), ry(2, -0.6)))
    plan = plan_cut(c, 1)
    assert len(plan.cut_gates) == 2
    obs = PauliSum([(1.0, "ZZZZ"), (0.25, "IZZI")])
    exact = knit_execute(c, plan, obs).value
    ref = expectation(simulate(c), obs)
    assert abs(exact - ref) < 1e-8
    reps = 400
    res = knit_execute(c, plan, obs, mode="shots", shots=reps, seed=17)
    sem = np.std(res.per_term_values, ddof=1) / np.sqrt(reps)
    assert abs(res.value - ref) < 5 * sem


def test_shots_mode_validation():
    c = _chain_circuit(3)
    plan = baseline_plan(c)
    obs = PauliSum([(1.0, "ZZZ")])
    with pytest.raises(KnitError):
        knit_execute(c, plan, obs, mode="shots")
    with pytest.raises(KnitError):
        knit_execute(c, plan, obs, mode="frequencies")


def test_shots_count_must_be_a_positive_integer():
    c = Circuit(4, (ry(1, 0.7), rzz(1, 2, 0.8), ry(2, 0.3)))
    plan = plan_cut(c, 1)
    obs = PauliSum([(1.0, "IZZI")])
    for bad in (True, False, 2.5, 3.0, 0, -2, "3", np.float64(4.0)):
        with pytest.raises(KnitError, match="integer shots"):
            knit_execute(c, plan, obs, mode="shots", shots=bad, seed=1)
    res = knit_execute(c, plan, obs, mode="shots", shots=np.int64(3), seed=1)
    assert len(res.per_term_values) == 3
    assert res.per_term_values == knit_execute(c, plan, obs, mode="shots", shots=3,
                                               seed=1).per_term_values


def test_shots_without_measured_terms_are_exact():
    # RZZ(0) keeps only the (I, I) term and RZZ(pi) only (Z, Z): every shot
    # draws the one term there is, and no side measures
    mirrored = Circuit(4, (ry(0, 0.9), ry(1, 0.4), ry(2, 1.3), cx(2, 3), rzz(1, 2, 0.0),
                           rx(1, 0.6), rzz(2, 1, np.pi), ry(2, -0.5), cx(0, 1)))
    plain = Circuit(4, (ry(0, 0.8), cx(0, 1), ry(2, 1.1), cx(2, 3)))
    obs = PauliSum([(1.0, "ZZZZ"), (0.5, "IIII"), (-0.75, "XZYX"), (0.25, "IIIZ")])
    for c, n_cuts in ((mirrored, 2), (plain, 0)):
        plan = plan_cut(c, 1)
        assert len(plan.cut_gates) == n_cuts
        assert all(len(d.terms) == 1 and not (d.terms[0].left_meas or d.terms[0].right_meas)
                   for d in plan.decompositions)
        exact = expectation(simulate(c), obs)
        res = knit_execute(c, plan, obs, mode="shots", shots=50, seed=3)
        assert np.max(np.abs(np.subtract(res.per_term_values, exact))) <= 1e-12


def test_shots_build_no_gates_per_shot(monkeypatch):
    c = Circuit(4, (ry(0, 1.1), ry(1, 0.5), ry(2, 0.8), ry(3, 1.7),
                    cx(1, 2), ry(1, 0.4), cz(2, 1), rzz(1, 2, 0.6), cx(2, 3), ry(2, -0.6)))
    plan = plan_cut(c, 1)
    obs = PauliSum([(1.0, "ZZZZ"), (0.25, "IXYI")])
    knit_execute(c, plan, obs, mode="shots", shots=10, seed=1)  # fills the piece caches
    built = []
    init = Gate.__post_init__
    monkeypatch.setattr(Gate, "__post_init__", lambda g: (built.append(g), init(g)))
    counts = []
    for shots in (10, 1000):
        built.clear()
        knit_execute(c, plan, obs, mode="shots", shots=shots, seed=1)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0  # the fragments' local gates, once


def test_collapse_keeps_each_piece_with_its_born_weight():
    """Row r keeps piece 0 exactly when u (p0 + p1) < p0, p_b = |M_b psi_r|^2,
    becomes M_b psi_r / sqrt(p_b), and returns piece b's sign."""
    rng = np.random.default_rng(12)
    decs = [decompose_cut_gate(g) for g in (rzz(0, 1, 0.8), cx(0, 1), cz(0, 1))]
    sides = {side for dec in decs + [d.mirrored() for d in decs] for t in dec.terms
             for side in ((t.left_ops, t.left_meas), (t.right_ops, t.right_meas))}
    sides |= {((), "X"), ((), "Y")}  # every basis execution supports
    n, rows = 3, 6
    for ops, meas in sides:
        pieces = knit._side_pieces(ops, meas)
        mats = np.zeros((rows, 2, 2, 2), dtype=complex)
        mats[:, :len(pieces)] = [m for _, m in pieces]
        for q in range(n):
            psi = rng.normal(size=(rows, 1 << n)) + 1j * rng.normal(size=(rows, 1 << n))
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            branches = [psi @ embed_1q(m, q, n).T for _, m in pieces]
            p = np.array([np.sum(np.abs(b) ** 2, axis=1) for b in branches])
            threshold = p[0] / p.sum(axis=0)
            for shift in (-1e-9, 1e-9):
                bit = 0 if len(pieces) == 1 or shift < 0 else 1
                amps = psi.copy()
                signs = knit._collapse(amps, q, mats, np.clip(threshold + shift, 0, 0.999))
                assert np.all(signs == pieces[bit][0])
                want = branches[bit] / np.sqrt(p[bit])[:, None]
                assert np.max(np.abs(amps - want)) <= 1e-12


def _shots_cases():
    """Random nearest-neighbour circuits with 1-3 RZZ/CX/CZ cuts."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(14):
        n = int(rng.integers(2, 6))
        c = random_circuit(rng, n, int(rng.integers(15, 30)), nearest_neighbor=True)
        bond = int(rng.integers(0, n - 1))
        crossing = [j for j, g in enumerate(c.gates)
                    if len(g.qubits) == 2 and min(g.qubits) <= bond < max(g.qubits)]
        q = (bond + 1, bond) if i % 2 else (bond, bond + 1)  # odd cases: a mirrored cut
        extra = [rzz(*q, 0.9), cx(*q), cz(*q)][i % 3]  # so every circuit has a cut
        drop = set(crossing[i % 3:])
        gates = [g for j, g in enumerate(c.gates) if j not in drop]
        gates.insert(int(rng.integers(0, len(gates) + 1)), extra)
        cases.append((Circuit(n, tuple(gates)), bond, _random_pauli_sum(rng, n, 4)))
    return cases


def test_sampled_knit_matches_reference_in_distribution():
    shots = 1000
    seen = {"mirrored": 0, "cuts": set(), "kinds": set(), "compared": 0}
    for k, (c, bond, obs) in enumerate(_shots_cases()):
        plan = plan_cut(c, bond)
        exact = knit_execute(c, plan, obs).value
        got = knit_execute(c, plan, obs, mode="shots", shots=shots, seed=k)
        want = reference_knit_shots(c, plan, obs, shots, seed=k)
        var, ref_var = np.var(got.per_term_values), np.var(want.per_term_values)
        assert abs(got.value - exact) <= 5 * np.sqrt(var / shots) + 1e-12
        if ref_var > 1e-6:
            assert 0.75 <= var / ref_var <= 1.33
            seen["compared"] += 1
        seen["cuts"].add(len(plan.cut_gates))
        seen["kinds"].update(c.gates[i].kind.value for i in plan.cut_gates)
        seen["mirrored"] += sum(c.gates[i].qubits[0] > bond for i in plan.cut_gates)
    assert seen["cuts"] == {1, 2, 3} and seen["kinds"] == {"rzz", "cx", "cz"}
    assert seen["mirrored"] > 0 and seen["compared"] >= 10


@pytest.mark.parametrize("batch_amps", [1, 100])
def test_shots_chunking_changes_no_value(monkeypatch, batch_amps):
    cases = _lockstep_cases()[:20]
    want = [knit_execute(c, plan_cut(c, bond), obs, mode="shots", shots=40, seed=i)
            for i, (c, bond, obs) in enumerate(cases)]
    monkeypatch.setattr(knit, "_BATCH_AMPS", batch_amps)
    chunks = []  # (rows, amplitudes per row) of each chunk reaching a cut
    run = knit._collapse
    monkeypatch.setattr(knit, "_collapse", lambda amps, *a: (chunks.append(amps.shape),
                                                             run(amps, *a))[1])
    for i, (c, bond, obs) in enumerate(cases):
        got = knit_execute(c, plan_cut(c, bond), obs, mode="shots", shots=40, seed=i)
        assert got.per_term_values == want[i].per_term_values
    assert all(rows <= max(1, batch_amps // width) for rows, width in chunks)
    rows = [r for r, _ in chunks]
    if batch_amps == 1:
        assert set(rows) == {1}
    else:  # the shots were split, and some chunks still hold several
        assert min(rows) < 40 and max(rows) > 1


# -- spin chains -----------------------------------------------------------------


def test_spinchain_single_rzz():
    spec = SpinChainSpec(2, 0.5, 1, couplings=(1.0,), transverse=(0.0, 0.0),
                         longitudinal=(0.0, 0.0))
    c = build_spinchain_circuit(spec)
    assert len(c.gates) == 1
    g = c.gates[0]
    assert g.kind.value == "rzz" and abs(g.param - 1.0) < 1e-15


def test_spinchain_all_zero_is_identity():
    spec = SpinChainSpec(3, 1.0, 2, couplings=(0.0, 0.0),
                         transverse=(0.0,) * 3, longitudinal=(0.0,) * 3)
    c = build_spinchain_circuit(spec)
    st = simulate(c)
    assert abs(st.amps[0] - 1.0) < 1e-12


def test_trotter_error_halves_with_dt():
    n = 3
    j = (0.8, 0.5)
    hx = (0.6, 0.9, 0.4)
    gz = (0.3, -0.2, 0.5)
    # dense Hamiltonian oracle
    ham = np.zeros((8, 8), dtype=complex)
    for i, jj in enumerate(j):
        ops = ["I"] * n
        ops[i] = "Z"
        ops[i + 1] = "Z"
        ham += jj * pauli_matrix("".join(ops))
    for i in range(n):
        for coeff, p in ((hx[i], "X"), (gz[i], "Z")):
            ops = ["I"] * n
            ops[i] = p
            ham += coeff * pauli_matrix("".join(ops))
    t = 0.6
    evals, evecs = np.linalg.eigh(ham)
    u_exact = evecs @ np.diag(np.exp(-1j * evals * t)) @ evecs.conj().T
    psi_exact = u_exact[:, 0]
    z1 = pauli_matrix("IZI")
    ref = float(np.real(psi_exact.conj() @ z1 @ psi_exact))

    def trotter_value(steps):
        spec = SpinChainSpec(n, t, steps, couplings=j, transverse=hx,
                             longitudinal=gz)
        st = simulate(build_spinchain_circuit(spec))
        return expectation(st, PauliSum([(1.0, "IZI")]))

    err4 = abs(trotter_value(4) - ref)
    err8 = abs(trotter_value(8) - ref)
    assert err8 < err4
    # halving dt at least roughly halves the error; for a real Hamiltonian,
    # |0..0> start and Z observable the leading commutator term cancels and
    # the decay is in fact close to quadratic (observed ratio ~4)
    assert 1.5 < err4 / err8 < 6.0


def test_spinchain_spec_validation_and_json():
    with pytest.raises(KnitError):
        SpinChainSpec(1, 1.0, 1)
    with pytest.raises(KnitError):
        SpinChainSpec(3, 1.0, 0)
    with pytest.raises(KnitError):
        SpinChainSpec(3, 1.0, 1, couplings=(1.0,))
    spec = SpinChainSpec(4, 1.0, 2, disorder=DisorderSpec((0, 1), (0, 1), (0, 0.5), 7))
    inst = spec.realize(123)
    assert inst.is_concrete
    assert inst.realize(123).couplings == inst.couplings
    rt = SpinChainSpec.from_dict(spec.to_dict())
    assert rt.disorder == spec.disorder
    assert SpinChainSpec.from_dict(inst.to_dict()).couplings == inst.couplings


# -- overhead comparison -----------------------------------------------------------


def test_overhead_ratio_one_when_same_bond():
    # uniform couplings, entropy minimal at the balanced bond by construction:
    # force it by constraining feasibility to the baseline bond alone
    c = _chain_circuit(6, theta=0.6, steps=2)
    rep = overhead_reduction(c, max_fragment=3)
    assert rep.cut_bond == rep.baseline_bond == 2
    assert rep.ratio == 1.0


def test_overhead_ensemble_median_above_one():
    base = SpinChainSpec(
        n_qubits=10, total_time=1.0, steps=2,
        disorder=DisorderSpec((0.0, 1.2), (0.2, 0.8), (0.0, 0.4), seed=0),
    )
    ratios = []
    for seed in range(12):
        inst = base.realize(seed)
        circ = build_spinchain_circuit(inst)
        per_step = len(circ.gates) // inst.steps
        rep = overhead_reduction(
            circ, checkpoints=[per_step * (k + 1) for k in range(inst.steps)]
        )
        assert rep.ratio >= 1.0 or rep.adaptive_overhead <= rep.baseline_overhead
        ratios.append(rep.ratio)
    assert np.median(ratios) > 1.0
