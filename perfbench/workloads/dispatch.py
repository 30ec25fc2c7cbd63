"""``dispatch``: submit, wait and fetch against a server in its own process.

One client on one connection sends each job only after the previous one
returned.  Jobs are QASM texts of 6-16 qubits with mixed X/Y/Z Pauli sums
(exact mode) plus a fixed share of shots-mode jobs whose circuits leave
some qubits idle, so most bitstrings have probability zero.

``DispatchClient.wait`` polls once and then every 10 ms, so round trips
fall on steps about 10 ms apart.  The mix is chosen so the median and the
tail each sit well inside one step: jobs of 10-12 qubits finish within
the first 10 ms sleep and put 60% of round trips on the second poll, which
holds the median; 6-qubit jobs finish before or just after the first poll
(the two lowest steps) and 16-qubit jobs several steps up hold the tail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
from reference import require
from workloads import rng_for

from quilt.circuit import PauliSum
from quilt.dispatch import DispatchClient

SERVER = Path(__file__).resolve().parent.parent / "dispatch_server.py"
ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "t", "rx", "ry", "rz")
TWO_QUBIT = ("cx", "cz", "rzz")
SHOTS = 1000

# (label, qubits, active qubits, gates, Pauli terms or 0 for shots, ops per round)
CLASSES = (
    ("q6", 6, 6, 30, 3, 2),
    ("q14", 14, 14, 150, 16, 5),
    ("q12shots", 12, 8, 80, 0, 1),
    ("q16", 16, 16, 200, 20, 2),
)
TINY = (("q3", 3, 3, 10, 2, 1), ("q4shots", 4, 2, 8, 0, 1))


def random_gates(rng, active: int, count: int):
    gates = []
    for _ in range(count):
        if rng.random() < 0.3:
            a, b = (int(q) for q in rng.choice(active, size=2, replace=False))
            name = TWO_QUBIT[int(rng.integers(len(TWO_QUBIT)))]
            gates.append((name, (a, b), float(rng.uniform(-np.pi, np.pi)) if name == "rzz" else None))
        else:
            name = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
            angle = float(rng.uniform(-np.pi, np.pi)) if name.startswith("r") else None
            gates.append((name, (int(rng.integers(active)),), angle))
    return gates


def random_terms(rng, n: int, count: int):
    terms = {}
    while len(terms) < count:
        ops = ["I"] * n
        for q in rng.choice(n, size=int(rng.integers(1, 5)), replace=False):
            ops[int(q)] = "XYZ"[int(rng.integers(3))]
        terms["".join(ops)] = float(rng.uniform(-1.0, 1.0))
    return [(c, ops) for ops, c in terms.items()]


class Workload:
    tail_pct = 90

    def __init__(self, seed: int, tiny: bool = False, trace: bool = False):
        self._server = subprocess.Popen(
            [sys.executable, str(SERVER), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._client = None
        try:
            rng = rng_for(seed, "dispatch")
            self.round = []
            for label, n, active, n_gates, n_terms, count in (TINY if tiny else CLASSES):
                for _ in range(count):
                    self.round.append((label, self._make_job(rng, n, active, n_gates, n_terms)))
            port = json.loads(self._server.stdout.readline())["port"]
            self._client = DispatchClient("127.0.0.1", port)
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _make_job(rng, n, active, n_gates, n_terms):
        """Job input plus its dense reference, computed during set-up."""
        gates = random_gates(rng, active, n_gates)
        psi = ref.simulate(n, gates)
        terms = random_terms(rng, n, max(n_terms, 1))
        job = {"text": ref.qasm_text(n, gates), "observable": PauliSum(terms)}
        if n_terms:
            job["reference"] = ref.observable_value(psi, terms)
        else:
            job["shots"] = SHOTS
            job["seed"] = int(rng.integers(2**31))
            job["support"] = np.abs(psi) ** 2 > 1e-12
        return job

    def run(self, job):
        if "shots" in job:
            job_id = self._client.submit(job["text"], job["observable"], mode="shots",
                                         shots=job["shots"], seed=job["seed"])
        else:
            job_id = self._client.submit(job["text"], job["observable"])
        return self._client.wait(job_id, timeout=60.0)

    def warm_up(self):
        job = {"text": ref.qasm_text(2, [("h", (0,), None), ("cx", (0, 1), None)]),
               "observable": PauliSum([(1.0, "ZZ"), (0.5, "XX")]), "reference": 1.5}
        self.check(job, self.run(job))

    def check(self, job, out):
        if "reference" in job:
            require(isinstance(out, float), f"exact job returned {type(out).__name__}")
            require(abs(out - job["reference"]) <= 1e-9,
                    f"expectation {out!r}, dense reference {job['reference']!r}")
            return
        require(isinstance(out, dict), f"shots job returned {type(out).__name__}")
        require(sum(out.values()) == job["shots"],
                f"counts sum to {sum(out.values())}, asked for {job['shots']}")
        support = job["support"]
        for bits in out:
            require(len(bits) == support.size.bit_length() - 1 and set(bits) <= {"0", "1"},
                    f"malformed bitstring {bits!r}")
            index = sum(1 << q for q, ch in enumerate(bits) if ch == "1")
            require(support[index], f"bitstring {bits} has probability zero")

    def close(self):
        """Shut the server down and return its peak memory (and spans)."""
        try:
            if self._client is not None:
                self._client.shutdown_server()
                self._client.close()
                line = self._server.stdout.readline()
                return json.loads(line) if line else {}
            return {}
        finally:
            self._server.stdin.close()
            try:
                self._server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._server.kill()
                self._server.wait()
            self._server.stdout.close()
