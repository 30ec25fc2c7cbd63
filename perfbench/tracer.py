"""Per-layer timing from outside the program.

A :class:`Tracer` replaces public functions of quilt's modules with timed
wrappers, at the name each caller looks up: ``maxcut`` and ``hhl`` import
``simulate`` (and ``maxcut`` also ``expectation`` and ``sample``) by name,
so those names are wrapped in the importing module as well as in
``simsv``.  Spans nest per thread; a span's self time is its duration
minus the time of the spans opened inside it.  Kernel calls made from
inside another kernel (the numpy ``apply_two`` calls ``apply_unitary``)
are not recorded twice.

Spans and counters stay in memory; :meth:`Tracer.snapshot` returns them as
plain data, and :func:`layer_metrics` turns a snapshot into the per-layer
metrics listed in ``BENCHMARK.json`` (which also gives their units).
"""

from __future__ import annotations

import functools
import inspect
import math
import threading
import time
from collections import defaultdict

KERNELS = ("apply_single", "apply_diag_single", "apply_cx", "apply_cz",
           "apply_rzz", "apply_two", "apply_unitary")
DENSE_KERNELS = ("kernels.apply_two", "kernels.apply_unitary")
SERVICE_SPANS = ("qasm.parse", "simsv.simulate", "simsv.expectation", "simsv.sample")


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.spans = defaultdict(lambda: [0.0, 0.0, 0])  # total, self, calls
            self.counts = defaultdict(float)

    def snapshot(self) -> dict:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()},
                    "counts": dict(self.counts)}

    def wrap(self, owner, attr: str, name: str, *, count=None, kernel=False):
        """Time every call of ``owner.attr`` as span ``name``.

        ``count(args, kwargs)`` returns ``{counter: amount}`` to add per
        call; ``name`` may be a callable of the same arguments.  With
        ``kernel`` set, a call made while another kernel call is open on
        the same thread runs untimed.
        """
        static = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        local = self._local

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if kernel and getattr(local, "in_kernel", False):
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            if kernel:
                local.in_kernel = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if kernel:
                    local.in_kernel = False
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                label = name(args, kwargs) if callable(name) else name
                extra = count(args, kwargs) if count else {}
                with self._lock:
                    entry = self.spans[label]
                    entry[0] += elapsed
                    entry[1] += elapsed - children
                    entry[2] += 1
                    for key, amount in extra.items():
                        self.counts[key] += amount

        if isinstance(static, classmethod):  # fn is already bound to the class
            setattr(owner, attr, classmethod(lambda cls, *a, **k: timed(*a, **k)))
        else:
            setattr(owner, attr, timed)


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports on (client and server side)."""
    from quilt import circuit, hhl, kernels, knit, maxcut, qasm, simsv
    from quilt.dispatch import client, sched

    def state_bytes(args, kwargs):
        # one read and one write of the amplitude array, from its size
        return {"kernels.bytes": 2 * args[0].nbytes}

    for attr in KERNELS:
        tracer.wrap(kernels, attr, f"kernels.{attr}", count=state_bytes, kernel=True)

    def terms(args, kwargs):
        return {"simsv.expectation_terms": len(args[1].terms)}

    tracer.wrap(simsv, "simulate", "simsv.simulate")
    tracer.wrap(simsv, "expectation", "simsv.expectation", count=terms)
    tracer.wrap(simsv, "sample", "simsv.sample")
    tracer.wrap(maxcut, "simulate", "simsv.simulate@maxcut")
    tracer.wrap(maxcut, "expectation", "simsv.expectation@maxcut",
                count=lambda a, k: {**terms(a, k), "maxcut.objective_evals": 1})
    tracer.wrap(maxcut, "sample", "simsv.sample@maxcut")
    tracer.wrap(maxcut, "optimize", "maxcut.optimize")
    tracer.wrap(hhl, "simulate", "simsv.simulate@hhl")
    tracer.wrap(circuit.Circuit, "bind", "circuit.bind")
    tracer.wrap(qasm, "parse", "qasm.parse")

    tracer.wrap(knit, "decompose_cut_gate", "knit.decompose_cut_gate")
    tracer.wrap(knit, "adaptive_plan", "knit.plan")
    tracer.wrap(knit, "baseline_plan", "knit.plan")
    tracer.wrap(knit, "entropy_profile", "simmps.entropy_profile",
                count=lambda a, k: {"simmps.two_qubit_gates":
                                    sum(len(g.qubits) == 2 for g in a[0].gates)})
    tracer.wrap(knit, "knit_execute", "knit.knit_execute",
                count=lambda a, k: {"knit.combinations":
                                    math.prod(len(d.terms) for d in a[1].decompositions)})

    tracer.wrap(hhl, "build_hhl_circuit", "hhl.build")
    for attr in ("classical_solve", "pauli_decompose", "phase_aligned_deviation"):
        tracer.wrap(hhl, attr, "hhl.classical")
    tracer.wrap(hhl.LinearSystem, "build", "hhl.classical")

    tracer.wrap(sched, "schedule", lambda a, k: f"sched.{k.get('policy', 'split')}",
                count=lambda a, k: {"sched.blocks": len(a[0])})

    tracer.wrap(client.DispatchClient, "submit", "dispatch.submit")
    tracer.wrap(client.DispatchClient, "poll", "dispatch.poll")


def merge(a: dict, b: dict, scale_b: float = 1.0) -> dict:
    """Sum two snapshots, ``b`` multiplied by ``scale_b``."""
    spans = {k: list(v) for k, v in a["spans"].items()}
    for k, (total, own, calls) in b["spans"].items():
        entry = spans.setdefault(k, [0.0, 0.0, 0])
        entry[0] += total * scale_b
        entry[1] += own * scale_b
        entry[2] += calls * scale_b
    counts = dict(a["counts"])
    for k, v in b["counts"].items():
        counts[k] = counts.get(k, 0.0) + v * scale_b
    return {"spans": spans, "counts": counts}


def layer_metrics(snap: dict, ops: int, mean_latency: float) -> dict:
    """Per-operation layer figures from a snapshot covering ``ops`` operations.

    Layers a workload does not reach read 0.
    """
    spans, counts = snap["spans"], snap["counts"]

    def total(*names):
        return sum(spans.get(n, (0.0, 0.0, 0))[0] for n in names)

    def prefixed(prefix, field):
        return sum(v[field] for k, v in spans.items()
                   if k == prefix or k.startswith(prefix + "@"))

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    kernel_names = [k for k in spans if k.startswith("kernels.")]
    service = sum(prefixed(n, 0) for n in SERVICE_SPANS) if "qasm.parse" in spans else 0.0
    per = 1.0 / ops
    evals = counts.get("maxcut.objective_evals", 0.0)
    combos = counts.get("knit.combinations", 0.0)
    blocks = counts.get("sched.blocks", 0.0)
    sched_s = total("sched.split", "sched.monolithic")
    return {
        "circuit.bind_s": total("circuit.bind") * per,
        "simsv.simulate_self_s": prefixed("simsv.simulate", 1) * per,
        "simsv.expectation_s": prefixed("simsv.expectation", 0) * per,
        "simsv.expectation_terms": counts.get("simsv.expectation_terms", 0.0) * per,
        "maxcut.objective_evals": evals * per,
        "maxcut.evals_per_s": ratio(evals, total("maxcut.optimize")),
        "knit.decompose_calls": spans.get("knit.decompose_cut_gate", (0, 0, 0))[2] * per,
        "knit.decompose_s": total("knit.decompose_cut_gate") * per,
        "knit.plan_s": total("knit.plan") * per,
        "simmps.profile_s": total("simmps.entropy_profile") * per,
        "simmps.two_qubit_gates": counts.get("simmps.two_qubit_gates", 0.0) * per,
        "knit.execute_s": total("knit.knit_execute") * per,
        "knit.combinations": combos * per,
        "knit.combinations_per_s": ratio(combos, total("knit.knit_execute")),
        "hhl.build_s": total("hhl.build") * per,
        "hhl.simulate_s": total("simsv.simulate@hhl") * per,
        "hhl.classical_s": total("hhl.classical") * per,
        "kernels.unitary_calls": sum(spans.get(n, (0, 0, 0))[2] for n in DENSE_KERNELS) * per,
        "kernels.unitary_s": total(*DENSE_KERNELS) * per,
        "kernels.gate_calls": sum(spans[n][2] for n in kernel_names) * per,
        "kernels.busy_s": total(*kernel_names) * per,
        "kernels.bytes_computed": counts.get("kernels.bytes", 0.0) * per,
        "qasm.parse_s": total("qasm.parse") * per,
        "dispatch.submit_s": total("dispatch.submit") * per,
        "dispatch.polls": spans.get("dispatch.poll", (0, 0, 0))[2] * per,
        "dispatch.service_s": service * per,
        "dispatch.overhead_s": mean_latency - service * per if service else 0.0,
        "sched.split_s": total("sched.split") * per,
        "sched.monolithic_s": total("sched.monolithic") * per,
        "sched.blocks": blocks * per,
        "sched.blocks_per_s": ratio(blocks, sched_s),
    }
