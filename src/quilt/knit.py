"""Adaptive circuit knitting: cut planning, quasiprobability execution and
sampling-overhead accounting.

A plan cuts a circuit at one qubit boundary (bond ``k``: fragment A holds
qubits ``0..k``, fragment B the rest).  Every two-qubit gate crossing the
bond is replaced by a quasiprobability mixture of fragment-local
operations; executing all term combinations on the two fragments and
recombining with the term coefficients reproduces any observable that
factorizes across the cut.  The price is the sampling overhead
``prod_i gamma_i**2`` where ``gamma_i`` is the coefficient 1-norm of cut
gate ``i`` - for ``RZZ(theta)`` that is ``1 + 2|sin(theta)|``, for CX/CZ
it is 3.

Both modes run each fragment once, compiled by :func:`simsv._compile` (the
compiler that also lowers parametric circuits), as a 2-D batch of states
(one per row).  Exact mode forks the rows at each cut once per distinct side
option (5 per side for RZZ/CX/CZ; a signed measurement twice), so gates
before a cut run once per shared prefix.  Shots mode gives each shot a row.

Each decomposition is checked at construction time against the original
gate's channel, ``sum_t c_t (R_t (x) L_t)`` against ``U (x) U*`` as 16x16
superoperators built from the 2x2 pieces execution applies, so a wrong
coefficient or local sequence cannot survive long enough to bias results.

Cut-point selection is entropy-guided: an MPS run produces per-bond
entanglement entropies over circuit checkpoints, and the adaptive planner
picks the feasible bond with the smallest aggregated entropy.  Overheads
reported for a plan are always recomputed from the gamma product, never
inferred from entropy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernels, simsv
from .circuit import Circuit, Gate, GateKind, PauliString, PauliSum
from .simmps import MpsState, entropy_profile

_COEFF_ATOL = 1e-12
_CHANNEL_TOL = 1e-8
_BATCH_AMPS = 1 << 22  # most amplitudes one lockstep batch holds


class KnitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cut-gate decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalOp:
    """Single-qubit operation inside a cut term (gate kind + optional angle)."""

    kind: GateKind
    param: float | None = None

    def gate(self, qubit: int) -> Gate:
        return Gate(self.kind, (qubit,), self.param)

    def unitary(self) -> np.ndarray:
        return self.gate(0).unitary()


_I: tuple[LocalOp, ...] = ()
_S = (LocalOp(GateKind.S),)
_SDG = (LocalOp(GateKind.SDG),)
_Z = (LocalOp(GateKind.Z),)
_X = (LocalOp(GateKind.X),)
_RXP = (LocalOp(GateKind.RX, np.pi / 2),)
_RXM = (LocalOp(GateKind.RX, -np.pi / 2),)


@dataclass(frozen=True)
class CutTerm:
    """One quasiprobability term: local ops per side plus an optional signed
    measure-and-reprepare marker (``left_meas``/``right_meas`` name the basis).

    Execution order per side: apply the ops, then the basis measurement.
    """

    coefficient: float
    left_ops: tuple[LocalOp, ...]
    right_ops: tuple[LocalOp, ...]
    left_meas: str | None = None
    right_meas: str | None = None

    def mirrored(self) -> "CutTerm":
        return CutTerm(
            self.coefficient, self.right_ops, self.left_ops, self.right_meas, self.left_meas
        )


@dataclass(frozen=True)
class CutGateDecomposition:
    """Quasiprobability decomposition of one two-qubit gate.

    ``gamma`` is the coefficient 1-norm (gamma**2 is this gate's sampling
    overhead factor); ``residual`` is the measured channel-identity defect.
    """

    original: Gate
    terms: tuple[CutTerm, ...]
    gamma: float
    residual: float

    def mirrored(self) -> "CutGateDecomposition":
        """Swap the two sides (same gate viewed with its qubits exchanged).

        The stored original becomes an explicit unitary with the index bits
        swapped, so the channel-identity invariant keeps holding verbatim.
        """
        perm = [0, 2, 1, 3]
        swapped = self.original.unitary()[np.ix_(perm, perm)]
        return CutGateDecomposition(
            Gate(GateKind.UNITARY, self.original.qubits[::-1], matrix=swapped),
            tuple(t.mirrored() for t in self.terms),
            self.gamma,
            self.residual,
        )


_MEAS_ROTATION = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    # maps the Y eigenbasis onto the Z basis: (H Sdg) Y (H Sdg)^dag = Z
    "Y": (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
    @ np.diag([1, -1j]),
}


@functools.lru_cache(maxsize=None)
def _side_pieces(ops: tuple[LocalOp, ...], meas: str | None):
    """One term side as ``(sign, M)`` pieces, ``rho -> sum sign * M rho M^dag``:
    the ops' product, or with a signed measurement one projection per
    outcome (rotated back) after it, of sign +1 for bit 0 and -1 for bit 1."""
    u = functools.reduce(np.matmul, [op.unitary() for op in ops[::-1]], np.eye(2, dtype=complex))
    if meas is None:
        return ((1.0, u),)
    v = _MEAS_ROTATION[meas]
    return tuple((sign, v.conj().T @ np.diag(p) @ v @ u)
                 for sign, p in ((1.0, [1, 0]), (-1.0, [0, 1])))


@functools.lru_cache(maxsize=None)
def _side_superop(ops: tuple[LocalOp, ...], meas: str | None) -> np.ndarray:
    """4x4 superoperator of one term side on row-major vec(rho)."""
    return sum(sign * np.kron(m, m.conj()) for sign, m in _side_pieces(ops, meas))


def channel_residual(dec: CutGateDecomposition) -> float:
    """Max deviation between the term mixture and the gate's channel over a
    complete operator basis of two-qubit inputs: the largest entry of
    ``sum_t c_t (R_t (x) L_t) - U (x) U*`` as 16x16 superoperators."""
    u = dec.original.unitary().reshape(2, 2, 2, 2)  # [b, a, B, A]: side A is bit 0
    # vec(rho) index bits in kron(R, L) order: (b, b', a, a') out, (B, B', A, A') in
    want = np.multiply.outer(u, u.conj()).transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(16, 16)
    coeffs = np.array([t.coefficient for t in dec.terms])
    right = np.array([_side_superop(t.right_ops, t.right_meas) for t in dec.terms])
    left = np.array([_side_superop(t.left_ops, t.left_meas) for t in dec.terms])
    # kron(R, L)[(i, j), (k, l)] = R[i, k] * L[j, l]
    got = np.tensordot(coeffs, right[:, :, None, :, None] * left[:, None, :, None, :], axes=1)
    return float(np.max(np.abs(got.reshape(16, 16) - want)))


def _finish(gate: Gate, terms: Sequence[CutTerm]) -> CutGateDecomposition:
    kept = tuple(t for t in terms if abs(t.coefficient) > _COEFF_ATOL)
    gamma = float(sum(abs(t.coefficient) for t in kept))
    dec = CutGateDecomposition(gate, kept, gamma, 0.0)
    residual = channel_residual(dec)
    if residual > _CHANNEL_TOL:
        raise KnitError(
            f"decomposition of {gate.kind.value} fails the channel-identity "
            f"check (residual {residual:.2e})"
        )
    return CutGateDecomposition(gate, kept, gamma, residual)


def decompose_cut_gate(gate: Gate) -> CutGateDecomposition:
    """Quasiprobability decomposition of an RZZ/CX/CZ gate into local terms.

    The construction uses local Z rotations plus signed measure-and-reprepare
    channels; its correctness is enforced by the built-in channel-identity
    check rather than trusted algebra.
    """
    if gate.kind not in (GateKind.RZZ, GateKind.CX, GateKind.CZ):
        raise KnitError(f"cannot cut a {gate.kind.value} gate")
    if not gate.is_bound:
        raise KnitError(f"cannot cut unbound parameter {gate.param!r}")
    if gate.kind is GateKind.RZZ:
        theta = float(gate.param)
        c2 = np.cos(theta / 2) ** 2
        s2 = np.sin(theta / 2) ** 2
        m = np.sin(theta) / 2
        terms = [
            CutTerm(c2, _I, _I),
            CutTerm(s2, _Z, _Z),
            CutTerm(m, _I, _S, left_meas="Z"),
            CutTerm(-m, _I, _SDG, left_meas="Z"),
            CutTerm(m, _S, _I, right_meas="Z"),
            CutTerm(-m, _SDG, _I, right_meas="Z"),
        ]
    elif gate.kind is GateKind.CZ:
        half = 0.5
        terms = [
            CutTerm(half, _S, _S),
            CutTerm(half, _SDG, _SDG),
            CutTerm(-half, _S, _Z, left_meas="Z"),
            CutTerm(half, _S, _I, left_meas="Z"),
            CutTerm(-half, _Z, _S, right_meas="Z"),
            CutTerm(half, _I, _S, right_meas="Z"),
        ]
    else:  # CX: control on the left side, target on the right
        half = 0.5
        terms = [
            CutTerm(half, _S, _RXP),
            CutTerm(half, _SDG, _RXM),
            CutTerm(-half, _S, _X, left_meas="Z"),
            CutTerm(half, _S, _I, left_meas="Z"),
            CutTerm(-half, _Z, _RXP, right_meas="X"),
            CutTerm(half, _I, _RXP, right_meas="X"),
        ]
    return _finish(gate, terms)


# ---------------------------------------------------------------------------
# cut plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutPlan:
    """Single spatial cut: bond index, the crossing gates and their oriented
    decompositions (left side of each term acts in fragment A)."""

    n_qubits: int
    cut_bond: int
    cut_gates: tuple[int, ...]
    decompositions: tuple[CutGateDecomposition, ...]
    total_overhead: float


def plan_cut(circuit: Circuit, bond: int) -> CutPlan:
    """Cut every gate crossing ``bond``; overhead is the exact gamma product."""
    n = circuit.n_qubits
    if not 0 <= bond < n - 1:
        raise KnitError(f"bond {bond} out of range for {n} qubits")
    cut_idx: list[int] = []
    decs: list[CutGateDecomposition] = []
    for i, g in enumerate(circuit.gates):
        if len(g.qubits) < 2:
            continue
        left = [q for q in g.qubits if q <= bond]
        right = [q for q in g.qubits if q > bond]
        if not left or not right:
            continue
        if g.kind not in (GateKind.RZZ, GateKind.CX, GateKind.CZ):
            raise KnitError(
                f"gate {g.kind.value} at position {i} crosses bond {bond} "
                "and cannot be cut"
            )
        dec = decompose_cut_gate(g)
        if g.qubits[0] > bond:
            dec = dec.mirrored()
        cut_idx.append(i)
        decs.append(dec)
    overhead = 1.0
    for d in decs:
        overhead *= d.gamma**2
    return CutPlan(n, bond, tuple(cut_idx), tuple(decs), overhead)


def baseline_plan(circuit: Circuit) -> CutPlan:
    """Load-balanced cut: the most size-balanced bond, ignoring entanglement.

    For odd widths the left fragment takes the extra qubit.
    """
    if circuit.n_qubits < 2:
        raise KnitError("need at least two qubits to cut")
    return plan_cut(circuit, (circuit.n_qubits - 1) // 2)


def feasible_bonds(
    n_qubits: int, max_fragment: int | None = None, imbalance_tol: int | None = None
) -> list[int]:
    out = []
    for k in range(n_qubits - 1):
        a, b = k + 1, n_qubits - 1 - k
        if max_fragment is not None and max(a, b) > max_fragment:
            continue
        if imbalance_tol is not None and abs(a - b) > imbalance_tol:
            continue
        out.append(k)
    return out


def aggregate_scores(profile: np.ndarray, aggregate: str = "max") -> np.ndarray:
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 2 or profile.shape[0] == 0:
        raise KnitError("entropy profile must be a non-empty checkpoint x bond matrix")
    if aggregate == "max":
        return profile.max(axis=0)
    if aggregate == "mean":
        return profile.mean(axis=0)
    raise KnitError(f"unknown aggregation {aggregate!r}")


def adaptive_plan(
    circuit: Circuit,
    profile: np.ndarray,
    max_fragment: int | None = None,
    imbalance_tol: int | None = None,
    aggregate: str = "max",
) -> CutPlan:
    """Entropy-guided cut: among size-feasible bonds, pick the one minimizing
    the aggregated entropy score; ties break toward balance, then lower index.
    """
    n = circuit.n_qubits
    scores = aggregate_scores(profile, aggregate)
    if scores.shape[0] != n - 1:
        raise KnitError(
            f"profile has {scores.shape[0]} bonds but the circuit has {n - 1}"
        )
    bonds = feasible_bonds(n, max_fragment, imbalance_tol)
    if not bonds:
        raise KnitError("no feasible bond under the given constraints")
    best = min(bonds, key=lambda k: (scores[k], abs((k + 1) - (n - 1 - k)), k))
    return plan_cut(circuit, best)


# ---------------------------------------------------------------------------
# knit execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnitResult:
    """Reconstructed observable value.

    ``per_term_values``: in exact mode, one entry per term combination
    (they sum to ``value``); in shots mode, one estimate per shot, each shot
    a row of the same batch engine (their mean is ``value``).
    """

    value: float
    per_term_values: tuple[float, ...]
    overhead: float


def _local_index(q: int, bond: int) -> int:
    return q if q <= bond else q - bond - 1


def _fragment_programs(circuit: Circuit, plan: CutPlan):
    """Per-fragment instruction lists: ("gate", Gate) and ("slot", ordinal,
    boundary_qubit) items in circuit order."""
    bond = plan.cut_bond
    cut_set = {idx: ordinal for ordinal, idx in enumerate(plan.cut_gates)}
    left_prog: list[tuple] = []
    right_prog: list[tuple] = []
    for i, g in enumerate(circuit.gates):
        if i in cut_set:
            ordinal = cut_set[i]
            lq = [q for q in g.qubits if q <= bond]
            rq = [q for q in g.qubits if q > bond]
            if len(lq) != 1 or len(rq) != 1:
                raise KnitError("cut gates must have one qubit per fragment")
            left_prog.append(("slot", ordinal, _local_index(lq[0], bond)))
            right_prog.append(("slot", ordinal, _local_index(rq[0], bond)))
            continue
        if g.kind is GateKind.MEASURE:
            continue
        sides = {q <= bond for q in g.qubits}
        if len(sides) > 1:
            raise KnitError(
                f"gate at position {i} crosses bond {bond} but is not in the plan"
            )
        local = Gate(g.kind, tuple(_local_index(q, bond) for q in g.qubits),
                     g.param, matrix=g.matrix)
        (left_prog if True in sides else right_prog).append(("gate", local))
    return left_prog, right_prog


def _compile_fragment(prog, n_frag: int) -> list[tuple]:
    """:func:`simsv._compile`'s batch ops for a fragment program, its
    ``("slot", ordinal, q)`` items passed through in place."""
    return simsv._compile([x[1] if x[0] == "gate" else x for x in prog], n_frag)


def _run_lockstep(ops, amps, seq, sign, pieces, strings, out) -> None:
    """Run ``ops`` on a batch of states (one per row); add each row's signed
    string expectations into ``out[string, seq[row]]``.  At a slot each row
    is copied once per piece of its cut: one batch while it holds at most
    ``_BATCH_AMPS`` amplitudes, else one batch per piece."""
    for i, op in enumerate(ops):
        if op[0] != "slot":
            simsv._apply_op(op, amps)
            continue
        _, ordinal, q = op
        cut = pieces[ordinal]
        rows = len(amps)
        groups = [cut] if len(cut) * amps.size <= _BATCH_AMPS else [[p] for p in cut]
        for group in groups:
            batch = np.concatenate([amps] * len(group))
            for k, (_, _, m) in enumerate(group):
                kernels.apply_single(batch[k * rows:(k + 1) * rows].reshape(-1), q, m)
            _run_lockstep(ops[i + 1:], batch,
                          np.concatenate([seq + shift for shift, _, _ in group]),
                          np.concatenate([sign * s for _, s, _ in group]),
                          pieces, strings, out)
        return
    for k, ps in enumerate(strings):
        values = simsv.string_expectation(amps, ps).real
        out[k] += np.bincount(seq, weights=sign * values, minlength=out.shape[1])


def _fragment_values(prog, n_frag: int, plan: CutPlan, side: str, strings):
    """Every string's signed expectation for each sequence of distinct side
    options, as ``{key: array with one axis per cut}``, and the index that
    maps term combinations onto those axes."""
    options, index = [], []
    for dec in plan.decompositions:
        sides = [(getattr(t, f"{side}_ops"), getattr(t, f"{side}_meas")) for t in dec.terms]
        options.append(list(dict.fromkeys(sides)))
        index.append([options[-1].index(x) for x in sides])
    shape = tuple(len(o) for o in options)
    # a row's sequence index counts the first cut's option most significant
    pieces = [[(o * math.prod(shape[d + 1:]), sign, m)
               for o, x in enumerate(opts) for sign, m in _side_pieces(*x)]
              for d, opts in enumerate(options)]
    out = np.zeros((len(strings), math.prod(shape)))
    amps = np.eye(1, 1 << n_frag, dtype=np.complex128)  # one row: |0...0>
    _run_lockstep(_compile_fragment(prog, n_frag), amps, np.zeros(1, dtype=np.intp),
                  np.ones(1), pieces, list(strings.values()), out)
    return {key: v.reshape(shape) for key, v in zip(strings, out)}, np.ix_(*index)


def _collapse(amps, q: int, pieces, uniforms) -> np.ndarray:
    """Apply one of its two ``pieces`` to each row at qubit ``q``, piece 0 when
    ``uniform * (p0 + p1) < p0`` (``p_b``: the squared norm of piece b applied
    to the row), renormalise, and return the pieces' signs (:func:`_side_pieces`)."""
    view = amps.reshape(len(amps), -1, 2, 1 << q)
    rho = np.einsum("rhil,rhjl->rij", view, view.conj())  # the qubit's reduced state
    p = np.einsum("rbij,rjk,rbik->rb", pieces, rho, pieces.conj()).real
    bit = (uniforms * p.sum(axis=1) >= p[:, 0]).astype(np.intp)
    rows = np.arange(len(amps))
    keep = pieces[rows, bit] / np.sqrt(p[rows, bit])[:, None, None]
    view[...] = np.einsum("rij,rhjl->rhil", keep, view)
    return 1.0 - 2.0 * bit


def _sample_fragment(prog, n_frag: int, plan: CutPlan, side: str, strings,
                     picks, uniforms):
    """Per shot, each string's value and the outcome sign of one fragment,
    run a row per shot in chunks of at most ``_BATCH_AMPS`` amplitudes (or
    one row); at cut d a row applies term ``picks[d, shot]``."""
    ops = _compile_fragment(prog, n_frag)
    cuts = []  # per cut: each term's two pieces (an unmeasured side's second is 0)
    for dec in plan.decompositions:
        mats = np.zeros((len(dec.terms), 2, 2, 2), dtype=np.complex128)
        for t, term in enumerate(dec.terms):
            pieces = _side_pieces(getattr(term, f"{side}_ops"), getattr(term, f"{side}_meas"))
            mats[t, :len(pieces)] = [m for _, m in pieces]
        cuts.append(mats)
    out, sign = np.empty((len(strings), len(uniforms))), np.ones(len(uniforms))
    step = max(1, _BATCH_AMPS >> n_frag)
    for lo in range(0, len(uniforms), step):
        chunk = slice(lo, lo + step)
        amps = np.zeros((len(sign[chunk]), 1 << n_frag), dtype=np.complex128)
        amps[:, 0] = 1.0
        for op in ops:
            if op[0] == "slot":
                _, d, q = op
                sign[chunk] *= _collapse(amps, q, cuts[d][picks[d, chunk]], uniforms[chunk, d])
            else:
                simsv._apply_op(op, amps)
        for k, ps in enumerate(strings.values()):
            out[k, chunk] = simsv.string_expectation(amps, ps).real
    return dict(zip(strings, out)), sign


def _split_observable(observable: PauliSum, plan: CutPlan):
    n = plan.n_qubits
    bond = plan.cut_bond
    if observable.num_qubits is not None and observable.num_qubits != n:
        raise KnitError(
            f"observable width {observable.num_qubits} does not match circuit "
            f"width {n}"
        )
    left_q = list(range(bond + 1))
    right_q = list(range(bond + 1, n))
    split = []
    left_strings: dict[str, PauliString] = {}
    right_strings: dict[str, PauliString] = {}
    for coeff, ps in observable.terms:
        la = ps.restrict(left_q)
        rb = ps.restrict(right_q)
        left_strings[la.ops] = la
        right_strings[rb.ops] = rb
        split.append((coeff, la.ops, rb.ops))
    return split, left_strings, right_strings


def knit_execute(
    circuit: Circuit,
    plan: CutPlan,
    observable: PauliSum,
    mode: str = "exact",
    shots: int | None = None,
    seed: int | None = None,
) -> KnitResult:
    """Run both fragments over the plan's term ensemble and recombine.

    ``mode="exact"`` covers every term combination (and every signed
    measurement branch inside a fragment) in one lockstep run per fragment,
    reproducing the uncut expectation to numerical precision.
    ``mode="shots"`` draws ``shots`` (an integer >= 1) term combinations
    from the |coefficient| distribution and stochastically collapses the
    measure-and-reprepare channels, one batch row per shot; the estimator
    is unbiased with variance governed by ``plan.total_overhead``.
    """
    if circuit.n_qubits != plan.n_qubits:
        raise KnitError("plan was built for a different circuit width")
    if not circuit.is_bound:
        raise KnitError(f"unbound parameters: {circuit.params}")
    n_left = plan.cut_bond + 1
    n_right = circuit.n_qubits - n_left
    if max(n_left, n_right) > simsv.MAX_QUBITS:
        raise KnitError("fragment exceeds the statevector cap")
    left_prog, right_prog = _fragment_programs(circuit, plan)
    split, left_strings, right_strings = _split_observable(observable, plan)

    if mode == "exact":
        left, left_ix = _fragment_values(left_prog, n_left, plan, "left", left_strings)
        right, right_ix = _fragment_values(right_prog, n_right, plan, "right", right_strings)
        # one axis per cut, so raveling gives itertools.product order
        weight = np.ones(())
        for dec in plan.decompositions:
            weight = np.multiply.outer(weight, [t.coefficient for t in dec.terms])
        acc = sum(c * left[a][left_ix] * right[b][right_ix] for c, a, b in split)
        contributions = np.ravel(weight * acc).tolist()
        return KnitResult(sum(contributions), tuple(contributions), plan.total_overhead)

    if mode != "shots":
        raise KnitError(f"unknown mode {mode!r}")
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 1:
        raise KnitError(f"shots mode requires an integer shots >= 1, got {shots!r}")
    rng = np.random.default_rng(seed)
    picks = np.zeros((len(plan.decompositions), shots), dtype=np.intp)
    weight = np.ones(shots)  # gamma product times the sampled coefficients' signs
    for d, dec in enumerate(plan.decompositions):
        coeffs = np.array([t.coefficient for t in dec.terms])
        picks[d] = rng.choice(len(coeffs), size=shots, p=np.abs(coeffs) / dec.gamma)
        weight *= dec.gamma * np.sign(coeffs)[picks[d]]
    # one per (shot, cut, side), all drawn before any row runs: chunking changes no result
    uniforms = rng.random((shots, len(plan.decompositions), 2))
    left, lsign = _sample_fragment(left_prog, n_left, plan, "left", left_strings,
                                   picks, uniforms[:, :, 0])
    right, rsign = _sample_fragment(right_prog, n_right, plan, "right", right_strings,
                                    picks, uniforms[:, :, 1])
    acc = sum(c * left[a] * right[b] for c, a, b in split)
    estimates = (weight * lsign * rsign * acc).tolist()
    return KnitResult(float(np.mean(estimates)), tuple(estimates), plan.total_overhead)


# ---------------------------------------------------------------------------
# disordered spin chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisorderSpec:
    """Uniform disorder ranges for couplings and fields, plus a base seed."""

    coupling_range: tuple[float, float] = (0.0, 1.0)
    transverse_range: tuple[float, float] = (0.0, 1.0)
    longitudinal_range: tuple[float, float] = (0.0, 0.0)
    seed: int = 0


@dataclass(frozen=True)
class SpinChainSpec:
    """Ising chain with transverse and longitudinal fields, Trotterized.

    Either the explicit per-site arrays are given, or ``disorder`` describes
    how to draw them (see :meth:`realize`).
    """

    n_qubits: int
    total_time: float
    steps: int
    couplings: tuple[float, ...] | None = None
    transverse: tuple[float, ...] | None = None
    longitudinal: tuple[float, ...] | None = None
    disorder: DisorderSpec | None = None

    def __post_init__(self):
        if self.n_qubits < 2:
            raise KnitError("spin chain needs at least two sites")
        if self.steps < 1:
            raise KnitError("need at least one Trotter step")
        for name, arr, want in (
            ("couplings", self.couplings, self.n_qubits - 1),
            ("transverse", self.transverse, self.n_qubits),
            ("longitudinal", self.longitudinal, self.n_qubits),
        ):
            if arr is not None:
                if len(arr) != want:
                    raise KnitError(f"{name} must have length {want}")
                object.__setattr__(self, name, tuple(float(v) for v in arr))

    @property
    def is_concrete(self) -> bool:
        return (
            self.couplings is not None
            and self.transverse is not None
            and self.longitudinal is not None
        )

    def realize(self, seed: int | None = None) -> "SpinChainSpec":
        """Draw concrete couplings/fields from the disorder distribution."""
        if self.is_concrete and self.disorder is None:
            return self
        if self.disorder is None:
            raise KnitError("spec has neither full arrays nor a disorder law")
        rng = np.random.default_rng(self.disorder.seed if seed is None else seed)
        d = self.disorder
        j = self.couplings or tuple(rng.uniform(*d.coupling_range, size=self.n_qubits - 1))
        hx = self.transverse or tuple(rng.uniform(*d.transverse_range, size=self.n_qubits))
        gz = self.longitudinal or tuple(rng.uniform(*d.longitudinal_range, size=self.n_qubits))
        return SpinChainSpec(
            self.n_qubits, self.total_time, self.steps,
            couplings=tuple(j), transverse=tuple(hx), longitudinal=tuple(gz),
        )

    def to_dict(self) -> dict:
        out = {"n_qubits": self.n_qubits, "t": self.total_time, "steps": self.steps}
        for name in ("couplings", "transverse", "longitudinal"):
            if getattr(self, name) is not None:
                out[name] = list(getattr(self, name))
        if self.disorder is not None:
            d = self.disorder
            out["disorder"] = {
                "coupling_range": list(d.coupling_range),
                "transverse_range": list(d.transverse_range),
                "longitudinal_range": list(d.longitudinal_range),
                "seed": d.seed,
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SpinChainSpec":
        try:
            disorder = None
            if "disorder" in data:
                dd = data["disorder"]
                disorder = DisorderSpec(
                    tuple(dd.get("coupling_range", (0.0, 1.0))),
                    tuple(dd.get("transverse_range", (0.0, 1.0))),
                    tuple(dd.get("longitudinal_range", (0.0, 0.0))),
                    int(dd.get("seed", 0)),
                )
            return cls(
                n_qubits=int(data["n_qubits"]),
                total_time=float(data["t"]),
                steps=int(data["steps"]),
                couplings=data.get("couplings"),
                transverse=data.get("transverse"),
                longitudinal=data.get("longitudinal"),
                disorder=disorder,
            )
        except (KeyError, TypeError) as exc:
            raise KnitError(f"bad spin-chain spec: {exc}")

    @classmethod
    def from_json(cls, text: str) -> "SpinChainSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise KnitError(f"bad spin-chain JSON: {exc}")
        return cls.from_dict(data)


def build_spinchain_circuit(spec: SpinChainSpec) -> Circuit:
    """First-order Trotter circuit: per step RZZ(2 J_i dt) on neighbor pairs,
    then RX(2 h_i dt) and RZ(2 g_i dt) per site.  Exactly-zero angles are
    skipped (a zero coupling or field contributes no gate).
    """
    if not spec.is_concrete:
        spec = spec.realize()
    dt = spec.total_time / spec.steps
    gates: list[Gate] = []
    for _ in range(spec.steps):
        for i, j in enumerate(spec.couplings):
            angle = 2.0 * j * dt
            if angle != 0.0:
                gates.append(Gate(GateKind.RZZ, (i, i + 1), angle))
        for i, hx in enumerate(spec.transverse):
            angle = 2.0 * hx * dt
            if angle != 0.0:
                gates.append(Gate(GateKind.RX, (i,), angle))
        for i, gz in enumerate(spec.longitudinal):
            angle = 2.0 * gz * dt
            if angle != 0.0:
                gates.append(Gate(GateKind.RZ, (i,), angle))
    return Circuit(spec.n_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# overhead comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverheadReport:
    """Adaptive-vs-baseline sampling overhead for one circuit instance.

    ``discarded_weight`` is the probability the entropy profile's MPS run
    truncated away (up to its last checkpoint).
    """

    cut_bond: int
    baseline_bond: int
    adaptive_overhead: float
    baseline_overhead: float
    adaptive: CutPlan = field(repr=False)
    baseline: CutPlan = field(repr=False)
    discarded_weight: float = 0.0

    @property
    def ratio(self) -> float:
        return self.baseline_overhead / self.adaptive_overhead


def default_checkpoints(n_gates: int, limit: int = 16) -> list[int]:
    if n_gates == 0:
        return [0]
    count = min(limit, n_gates)
    pts = sorted({int(round(n_gates * (i + 1) / count)) for i in range(count)})
    return [p for p in pts if p > 0]


def overhead_reduction(
    circuit: Circuit,
    observable: PauliSum | None = None,
    *,
    checkpoints=None,
    chi_max: int | None = None,
    trunc_tol: float = 0.0,
    max_fragment: int | None = None,
    imbalance_tol: int | None = None,
    aggregate: str = "max",
) -> OverheadReport:
    """Compare the entropy-guided cut against the load-balanced baseline.

    Overheads come from the exact gamma products of the two plans.  When an
    observable is given, its factorizability across both cuts is validated.
    """
    if checkpoints is None:
        checkpoints = default_checkpoints(len(circuit.gates))
    state = MpsState(circuit.n_qubits, chi_max=chi_max, trunc_tol=trunc_tol)
    profile = entropy_profile(circuit, checkpoints, state=state)
    adaptive = adaptive_plan(
        circuit, profile, max_fragment=max_fragment,
        imbalance_tol=imbalance_tol, aggregate=aggregate,
    )
    base = baseline_plan(circuit)
    if observable is not None:
        _split_observable(observable, adaptive)
        _split_observable(observable, base)
    return OverheadReport(
        adaptive.cut_bond,
        base.cut_bond,
        adaptive.total_overhead,
        base.total_overhead,
        adaptive,
        base,
        state.discarded_weight,
    )
