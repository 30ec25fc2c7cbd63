"""Matrix-product-state simulator and entanglement-entropy probe.

States are stored as a train of rank-3 site tensors (left-bond, physical-2,
right-bond) with a tracked orthogonality center.  Two-qubit gates contract
the neighboring pair, apply the gate, and split back with an SVD truncated
to ``chi_max`` / ``trunc_tol``; non-adjacent gates are routed with inserted
SWAPs (counted per state).  The SVD of a two-qubit gate, taken at the
orthogonality center, gives its bond's exact spectrum and leaves every other
bond's unchanged unless it truncates; after a truncation a full
canonicalization sweep refreshes them all.  The per-bond entanglement entropy

    S_k = -sum_i s_i^2 log2 s_i^2        (bits)

is the quantity that drives cut selection in :mod:`quilt.knit`.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .circuit import Circuit, Gate, GateKind

_SWAP_4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class MpsError(ValueError):
    pass


class MpsState:
    """Mutable MPS owned by a single evolution at a time.

    Attributes of interest: ``bond_spectra`` (descending Schmidt values per
    interior bond, exact after :meth:`entropies`),
    ``discarded_weight`` (cumulative truncated probability) and
    ``swaps_inserted`` (routing cost of non-adjacent gates).
    """

    def __init__(self, n_qubits: int, chi_max: int | None = None, trunc_tol: float = 0.0):
        if n_qubits < 1:
            raise MpsError("need at least one qubit")
        if chi_max is not None and chi_max < 1:
            raise MpsError("chi_max must be >= 1")
        if trunc_tol < 0:
            raise MpsError("trunc_tol must be >= 0")
        self.n_qubits = n_qubits
        self.chi_max = chi_max
        self.trunc_tol = trunc_tol
        self.site_tensors = []
        for _ in range(n_qubits):
            t = np.zeros((1, 2, 1), dtype=np.complex128)
            t[0, 0, 0] = 1.0
            self.site_tensors.append(t)
        self.bond_spectra = [np.array([1.0]) for _ in range(n_qubits - 1)]
        self.center = 0
        self._spectra_stale = False
        self.discarded_weight = 0.0
        self.swaps_inserted = 0

    # -- canonical form ------------------------------------------------------

    def _shift_center_right(self) -> None:
        i = self.center
        t = self.site_tensors[i]
        l, _, r = t.shape
        q, rmat = np.linalg.qr(t.reshape(l * 2, r))
        self.site_tensors[i] = q.reshape(l, 2, q.shape[1])
        nxt = self.site_tensors[i + 1]
        self.site_tensors[i + 1] = np.einsum("kr,rpm->kpm", rmat, nxt)
        self.center = i + 1

    def _shift_center_left(self) -> None:
        i = self.center
        t = self.site_tensors[i]
        l, _, r = t.shape
        q, rmat = np.linalg.qr(t.reshape(l, 2 * r).conj().T)
        right_iso = q.conj().T  # (k, 2r) with orthonormal rows
        k = right_iso.shape[0]
        self.site_tensors[i] = right_iso.reshape(k, 2, r)
        prev = self.site_tensors[i - 1]
        self.site_tensors[i - 1] = np.einsum("lpr,rk->lpk", prev, rmat.conj().T)
        self.center = i - 1

    def move_center(self, target: int) -> None:
        while self.center < target:
            self._shift_center_right()
        while self.center > target:
            self._shift_center_left()

    # -- gate application ----------------------------------------------------

    def apply_1q(self, matrix: np.ndarray, q: int) -> None:
        self.site_tensors[q] = np.einsum(
            "qp,lpr->lqr", np.asarray(matrix, dtype=np.complex128), self.site_tensors[q]
        )

    def apply_2q(self, matrix: np.ndarray, site: int) -> None:
        """Apply a 4x4 gate to adjacent sites (site, site+1).

        ``matrix`` is little-endian over the pair: index = bit(site) +
        2*bit(site+1).
        """
        if site < 0 or site + 1 >= self.n_qubits:
            raise MpsError(f"adjacent pair ({site},{site + 1}) out of range")
        self.move_center(site)
        a = self.site_tensors[site]
        b = self.site_tensors[site + 1]
        theta = np.einsum("lpr,rqm->lpqm", a, b)
        g = np.asarray(matrix, dtype=np.complex128).reshape(2, 2, 2, 2)
        # g axes: (q_out, p_out, q_in, p_in) for row index q*2 + p
        theta = np.einsum("qpQP,lPQm->lpqm", g, theta)
        l, _, _, r = theta.shape
        u, svals, vh = np.linalg.svd(theta.reshape(l * 2, 2 * r), full_matrices=False)
        keep = self._truncation_rank(svals)
        if keep < len(svals):  # the state changed, so may every other bond
            self._spectra_stale = True
        dropped = float(np.sum(svals[keep:] ** 2))
        self.discarded_weight += dropped
        svals = svals[:keep]
        norm = np.linalg.norm(svals)
        svals = svals / norm
        self.site_tensors[site] = u[:, :keep].reshape(l, 2, keep)
        self.site_tensors[site + 1] = (svals[:, None] * vh[:keep, :]).reshape(keep, 2, r)
        self.bond_spectra[site] = svals.copy()
        self.center = site + 1

    def _truncation_rank(self, svals: np.ndarray) -> int:
        total = float(np.sum(svals**2))
        keep = len(svals)
        if self.trunc_tol > 0:
            tail = 0.0
            while keep > 1 and tail + svals[keep - 1] ** 2 <= self.trunc_tol * total:
                tail += svals[keep - 1] ** 2
                keep -= 1
        if self.chi_max is not None:
            keep = min(keep, self.chi_max)
        return max(keep, 1)

    def apply_swap(self, site: int) -> None:
        self.apply_2q(_SWAP_4, site)
        self.swaps_inserted += 1

    # -- observables ---------------------------------------------------------

    def refresh_spectra(self) -> None:
        """Recompute every interior bond spectrum via a canonical SVD sweep."""
        self.move_center(0)
        for i in range(self.n_qubits - 1):
            t = self.site_tensors[i]
            l, _, r = t.shape
            u, svals, vh = np.linalg.svd(t.reshape(l * 2, r), full_matrices=False)
            norm = np.linalg.norm(svals)
            self.bond_spectra[i] = svals / norm
            self.site_tensors[i] = u.reshape(l, 2, u.shape[1])
            nxt = self.site_tensors[i + 1]
            self.site_tensors[i + 1] = np.einsum(
                "kr,rpm->kpm", svals[:, None] * vh, nxt
            )
            self.center = i + 1
        self._spectra_stale = False

    def amplitudes(self) -> np.ndarray:
        """Dense statevector (little-endian), guarded to 20 qubits."""
        if self.n_qubits > 20:
            raise MpsError("dense reconstruction capped at 20 qubits")
        acc = np.ones((1, 1), dtype=np.complex128)
        dim = 1
        for t in self.site_tensors:
            acc = np.einsum("dl,lpr->dpr", acc, t)
            # new index = bit * dim + old (qubit k is bit k of the basis index)
            acc = acc.transpose(1, 0, 2).reshape(2 * dim, t.shape[2])
            dim *= 2
        vec = acc[:, 0]
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        return vec

    def entropies(self) -> np.ndarray:
        if self._spectra_stale:
            self.refresh_spectra()
        out = np.empty(self.n_qubits - 1)
        for k, svals in enumerate(self.bond_spectra):
            p = svals**2
            p = p[p > 1e-300]
            out[k] = float(-np.sum(p * np.log2(p)))
        return out


def _gate_pair_matrix(gate: Gate, site: int) -> np.ndarray:
    """4x4 matrix of ``gate`` oriented for sites (site, site+1)."""
    m = gate.unitary()
    if gate.qubits == (site, site + 1):
        return m
    perm = [0, 2, 1, 3]  # swap the two index bits
    return m[np.ix_(perm, perm)]


def _apply_gate(state: MpsState, gate: Gate, route: bool) -> None:
    if gate.kind is GateKind.MEASURE:
        return
    if len(gate.qubits) == 1:
        state.apply_1q(gate.unitary(), gate.qubits[0])
        return
    if len(gate.qubits) != 2:
        raise MpsError("MPS simulation supports 1- and 2-qubit gates only")
    a, b = gate.qubits
    lo, hi = min(a, b), max(a, b)
    if hi - lo == 1:
        state.apply_2q(_gate_pair_matrix(gate, lo), lo)
        return
    if not route:
        raise MpsError(
            f"gate on non-adjacent qubits {gate.qubits} with routing disabled"
        )
    # bring qubit `hi` down to lo+1, apply, and restore the ordering
    for pos in range(hi - 1, lo, -1):
        state.apply_swap(pos)
    moved = Gate(gate.kind, tuple(lo if q == lo else lo + 1 for q in (a, b)),
                 gate.param, matrix=gate.matrix)
    state.apply_2q(_gate_pair_matrix(moved, lo), lo)
    for pos in range(lo + 1, hi):
        state.apply_swap(pos)


def mps_simulate(
    circuit: Circuit,
    chi_max: int | None = None,
    trunc_tol: float = 0.0,
    route: bool = True,
) -> MpsState:
    """Evolve |0...0> through ``circuit`` under the given truncation policy."""
    if not circuit.is_bound:
        raise MpsError(f"unbound parameters: {circuit.params}")
    state = MpsState(circuit.n_qubits, chi_max=chi_max, trunc_tol=trunc_tol)
    for gate in circuit.gates:
        _apply_gate(state, gate, route)
    return state


def bond_entropies(state: MpsState) -> np.ndarray:
    """Entanglement entropy (bits) of every interior bond, in canonical form."""
    return state.entropies()


def entropy_profile(
    circuit: Circuit,
    checkpoints,
    chi_max: int | None = None,
    trunc_tol: float = 0.0,
    route: bool = True,
    state: MpsState | None = None,
) -> np.ndarray:
    """Bond entropies at each checkpoint: matrix [checkpoint x bond].

    A checkpoint ``c`` means "after the first ``c`` gates"; checkpoints must
    be strictly increasing and at most the gate count.  The circuit runs on
    ``state`` if given, a fresh |0...0> MPS whose own ``chi_max`` and
    ``trunc_tol`` then apply; it is evolved in place to the last checkpoint,
    so its ``discarded_weight`` afterwards says what truncation cost.
    """
    checkpoints = [int(c) for c in checkpoints]
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise MpsError("checkpoints must be strictly increasing")
    if checkpoints and (checkpoints[0] < 0 or checkpoints[-1] > len(circuit.gates)):
        raise MpsError("checkpoints must lie within [0, gate count]")
    if not circuit.is_bound:
        raise MpsError(f"unbound parameters: {circuit.params}")
    if state is None:
        state = MpsState(circuit.n_qubits, chi_max=chi_max, trunc_tol=trunc_tol)
    elif state.n_qubits != circuit.n_qubits:
        raise MpsError("state width does not match circuit")
    rows = []
    applied = 0
    for c in checkpoints:
        for gate in circuit.gates[applied:c]:
            _apply_gate(state, gate, route)
        applied = c
        rows.append(state.entropies())
    return np.array(rows).reshape(len(checkpoints), circuit.n_qubits - 1)


def profile_to_csv(profile: np.ndarray, checkpoints) -> str:
    """Render an entropy profile as CSV (rows=checkpoints, cols=bonds)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    n_bonds = profile.shape[1] if profile.ndim == 2 else 0
    writer.writerow(["checkpoint"] + [f"bond_{k}" for k in range(n_bonds)])
    for c, row in zip(checkpoints, profile):
        writer.writerow([c] + [f"{v:.12g}" for v in row])
    return buf.getvalue()
