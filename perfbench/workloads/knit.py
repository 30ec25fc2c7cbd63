"""``knit``: one disorder seed of the Ising chain per operation.

An operation builds the Trotter circuit, runs ``knit.overhead_reduction``
(MPS entropy profile at each Trotter step, adaptive and balanced plans
with their channel checks) and then ``knit.knit_execute`` in exact mode at
the balanced cut.  The balanced cut keeps the fragment sizes, and so the
cost, independent of the disorder draw; at the adaptive cut the fragments
range from 3/11 to 7/7 qubits and the cost by half.  Two Trotter steps put
2 RZZ gates across every bond (36 term combinations); three steps put 3
(216).  A round is three 2-cut and two 3-cut operations, so the median
falls in the upper part of the 2-cut operations and the 80th-percentile
tail in the middle of the 3-cut ones.
"""

from __future__ import annotations

import math

import reference as ref
from reference import require
from workloads import rng_for

from quilt import knit
from quilt.circuit import PauliSum

# (label, sites, Trotter steps, ops per round)
CLASSES = (("cut2", 14, 2, 3), ("cut3", 12, 3, 2))
TINY = (("cut1", 4, 1, 1), ("cut2", 5, 2, 1))
TOTAL_TIME = 1.0


def trotter_gates(spec):
    """The benchmark's own first-order Trotter gate list for a spin chain."""
    dt = spec.total_time / spec.steps
    gates = []
    for _ in range(spec.steps):
        gates += [("rzz", (i, i + 1), 2.0 * j * dt) for i, j in enumerate(spec.couplings)]
        gates += [("rx", (i,), 2.0 * h * dt) for i, h in enumerate(spec.transverse)]
        gates += [("rz", (i,), 2.0 * g * dt) for i, g in enumerate(spec.longitudinal)]
    return gates


def checkpoints(circuit, steps: int):
    """One entropy checkpoint per Trotter step, as ``quilt knit`` takes them."""
    per_step = max(1, len(circuit.gates) // steps)
    return sorted({per_step * (k + 1) for k in range(steps)} | {len(circuit.gates)})


class Workload:
    tail_pct = 80

    def __init__(self, seed: int, tiny: bool = False):
        rng = rng_for(seed, "knit")
        self.round = []
        for label, n, steps, count in (TINY if tiny else CLASSES):
            for _ in range(count):
                spec = knit.SpinChainSpec(
                    n, TOTAL_TIME, steps,
                    couplings=tuple(rng.uniform(0.2, 1.2, size=n - 1)),
                    transverse=tuple(rng.uniform(0.2, 0.8, size=n)),
                    longitudinal=tuple(rng.uniform(0.0, 0.4, size=n)),
                )
                terms = [(float(rng.uniform(0.5, 1.5)), ops) for ops in (
                    "Z" + "I" * (n - 1),
                    "I" * (n - 1) + "X",
                    "I" * (n // 2 - 1) + "ZZ" + "I" * (n - n // 2 - 1),
                )]
                self.round.append((label, (spec, terms)))
        self._refs = {}

    def run(self, op):
        spec, terms = op
        observable = PauliSum(terms)
        circuit = knit.build_spinchain_circuit(spec)
        report = knit.overhead_reduction(
            circuit, observable, checkpoints=checkpoints(circuit, spec.steps)
        )
        result = knit.knit_execute(circuit, report.baseline, observable, mode="exact")
        return report, result

    def warm_up(self):
        spec = knit.SpinChainSpec(3, TOTAL_TIME, 1, couplings=(0.5, 0.7),
                                  transverse=(0.3, 0.4, 0.5), longitudinal=(0.1, 0.2, 0.3))
        op = (spec, [(1.0, "ZII"), (0.5, "IZZ")])
        self.check(op, self.run(op))

    def _reference(self, spec, terms):
        key = (spec, tuple(terms))
        if key not in self._refs:
            gates = trotter_gates(spec)
            psi = ref.simulate(spec.n_qubits, gates)
            self._refs[key] = (gates, ref.observable_value(psi, terms))
        return self._refs[key]

    def check(self, op, out):
        spec, terms = op
        report, result = out
        gates, uncut = self._reference(spec, terms)
        require(abs(result.value - uncut) <= 1e-9,
                f"knitted value {result.value!r}, uncut reference {uncut!r}")
        for plan, reported in ((report.adaptive, report.adaptive_overhead),
                               (report.baseline, report.baseline_overhead)):
            bond = plan.cut_bond
            crossing = [angle for name, (a, b), angle in
                        (g for g in gates if len(g[1]) == 2)
                        if min(a, b) <= bond < max(a, b)]
            expected = math.prod((1 + 2 * abs(math.sin(t))) ** 2 for t in crossing)
            require(len(plan.cut_gates) == len(crossing),
                    f"bond {bond}: {len(plan.cut_gates)} cut gates, {len(crossing)} cross it")
            for value in (plan.total_overhead, reported):
                require(abs(value - expected) <= 1e-9 * expected,
                        f"bond {bond}: overhead {value!r}, gamma product {expected!r}")
        combos = 6 ** len(report.baseline.cut_gates)
        require(len(result.per_term_values) == combos,
                f"{len(result.per_term_values)} term values for {combos} combinations")
        require(result.overhead == report.baseline.total_overhead,
                "knit result overhead differs from its plan")

    def close(self):
        return {}
