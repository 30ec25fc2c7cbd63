"""``hhl``: one ``hhl.solve`` plus ``hhl.pauli_decompose`` per operation.

This is the shape of ``quilt hhl``: build the system, solve it by exact
simulation of the HHL circuit, expand the matrix over Pauli strings.  The
work is dense UNITARY gates and eigendecompositions; there are no
diagonal runs and no Pauli-sum expectations.  Within each class the
systems alternate between diagonal ones with dyadic spectra (exact phase
estimation) and random SPD ones.  The median falls in the upper part of the dimension-4
systems with 5 clock qubits, the 95th-percentile tail in the upper part of
the dimension-8 systems with 6 clock qubits.
"""

from __future__ import annotations

import numpy as np

import reference as ref
from reference import require
from workloads import rng_for

from quilt import hhl

# (label, dimension, clock qubits, ops per round)
CLASSES = (("d2m4", 2, 4, 1), ("d4m5", 4, 5, 6), ("d8m6", 8, 6, 3))
TINY = (("d2m3", 2, 3, 2),)


def dyadic_system(rng, dim: int, m: int):
    """Diagonal matrix with entries on the 2^-m grid and maximum 1/2.

    The Gershgorin bound is then 1/2, the solver's scale is exactly 1 and
    phase estimation is exact.
    """
    grid = rng.integers(1, 2 ** (m - 1) + 1, size=dim)
    grid[int(rng.integers(dim))] = 2 ** (m - 1)
    return np.diag(grid / 2.0**m)


def spd_system(rng, dim: int, m: int):
    """Random SPD matrix whose rescaled spectrum the clock can resolve."""
    while True:
        q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        a = q @ np.diag(rng.uniform(0.4, 1.0, size=dim)) @ q.T
        a = 0.5 * (a + a.T)
        gershgorin = np.max(np.sum(np.abs(a), axis=1))
        if np.linalg.eigvalsh(a)[0] / (2 * gershgorin) >= 2.0**-m:
            return a


class Workload:
    tail_pct = 95

    def __init__(self, seed: int, tiny: bool = False):
        rng = rng_for(seed, "hhl")
        self.round = []
        for label, dim, m, count in (TINY if tiny else CLASSES):
            for k in range(count):
                dyadic = k % 2 == 0
                a = dyadic_system(rng, dim, m) if dyadic else spd_system(rng, dim, m)
                self.round.append((label, (a, rng.normal(size=dim), m, dyadic)))

    def run(self, op):
        a, b, m, _ = op
        system = hhl.LinearSystem.build(a, b, m=m)
        result = hhl.solve(system)
        decomposition = hhl.pauli_decompose(system.matrix)
        return system, result, decomposition

    def warm_up(self):
        op = (np.diag([0.5, 0.25]), np.array([1.0, 1.0]), 3, True)
        self.check(op, self.run(op))

    def check(self, op, out):
        a, b, m, dyadic = op
        system, result, decomposition = out
        x_c = np.linalg.solve(a, b)
        require(np.linalg.norm(result.x_classical - x_c) <= 1e-10 * np.linalg.norm(x_c),
                "classical solution differs from the benchmark's solve")
        require(abs(np.linalg.norm(result.x_quantum) - 1.0) <= 1e-12,
                "quantum solution is not normalized")
        deviation = ref.aligned_deviation(result.x_quantum, x_c)
        require(abs(deviation - result.deviation) <= 1e-10,
                f"reported deviation {result.deviation!r}, recomputed {deviation!r}")
        if dyadic:
            lam = np.diag(a) * system.scale
            b_hat = b / np.linalg.norm(b)
            success = float(np.sum(np.abs(b_hat) ** 2 * (2.0**-m / lam) ** 2))
            require(system.scale == 1.0, f"dyadic system scaled by {system.scale!r}")
            require(result.deviation <= 1e-10,
                    f"exact phase estimation gave deviation {result.deviation!r}")
            require(abs(result.success_prob - success) <= 1e-12,
                    f"success probability {result.success_prob!r}, expected {success!r}")
        recon = sum(c * ref.pauli_matrix(p.ops) for c, p in decomposition.terms)
        require(np.max(np.abs(recon - a)) <= 1e-12,
                "Pauli decomposition does not reconstruct the matrix")

    def close(self):
        return {}
