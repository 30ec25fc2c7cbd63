"""``quilt`` command-line entry point.

Subcommands::

    quilt hhl SYSTEM.json [--m M] [--tol 0.02] [--out runlog.csv]
    quilt maxcut GRAPH.txt --method qaoa|qaoa2|greedy|random [...]
    quilt knit SPEC.json [--seeds N] [--chi C] [--out ensemble.csv] [...]
    quilt sched WORKLOAD.json [--policy monolithic|split|both] [...]
    quilt serve [--listen host:port] [--workers N]
    quilt submit CIRCUIT.qasm --observable OBS.json [--addr host:port] [...]

All figure-style outputs are CSV/JSON for external plotting.  Every
command is deterministic under ``--seed``; malformed input exits nonzero
(2 for usage errors, 1 for domain failures).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import hhl as hhl_mod
from . import maxcut as maxcut_mod
from . import qasm
from .dispatch import (
    DEFAULT_ADDRESS_ENV,
    DispatchClient,
    DispatchError,
    DispatchServer,
    load_workload,
    parse_address,
    schedule,
    schedule_to_csv,
)
from .dispatch.protocol import observable_from_json
from .knit import SpinChainSpec, build_spinchain_circuit, overhead_reduction


def _existing_file(parser: argparse.ArgumentParser, value: str) -> Path:
    path = Path(value)
    if not path.is_file():
        parser.error(f"file not found: {value}")
    return path


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# hhl
# ---------------------------------------------------------------------------


def _cmd_hhl(args, parser) -> int:
    system = hhl_mod.load_system(_existing_file(parser, args.system), m=args.m)
    result = hhl_mod.solve(system)
    decomposition = hhl_mod.pauli_decompose(system.matrix)
    # the same alignment that produced result.deviation
    xq, xc_hat = hhl_mod.phase_align(result.x_quantum, result.x_classical)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["component", "x_quantum_re", "x_quantum_im",
         "x_classical_re", "x_classical_im", "abs_diff"]
    )
    for i in range(xq.shape[0]):
        writer.writerow(
            [i, f"{xq[i].real:.10f}", f"{xq[i].imag:.10f}",
             f"{xc_hat[i].real:.10f}", f"{xc_hat[i].imag:.10f}",
             f"{abs(xq[i] - xc_hat[i]):.3e}"]
        )
    writer.writerow([])
    writer.writerow(["deviation", f"{result.deviation:.6e}"])
    writer.writerow(["success_prob", f"{result.success_prob:.6e}"])
    writer.writerow(["pauli_terms", len(decomposition)])
    _write_text(args.out, buf.getvalue())
    print(
        f"deviation={result.deviation:.4%} success_prob={result.success_prob:.4g} "
        f"pauli_terms={len(decomposition)} clock_qubits={system.m}",
        file=sys.stderr,
    )
    return 0 if result.deviation <= args.tol else 1


# ---------------------------------------------------------------------------
# maxcut
# ---------------------------------------------------------------------------


def _cmd_maxcut(args, parser) -> int:
    graph = maxcut_mod.Graph.from_file(_existing_file(parser, args.graph))
    params_info: dict = {}
    if args.method == "qaoa":
        params, expected = maxcut_mod.optimize(graph, p=args.p, seed=args.seed)
        assignment = maxcut_mod.sample_assignment(
            graph, params, shots=args.shots, seed=args.seed
        )
        params_info = {
            "p": params.p,
            "gammas": list(params.gammas),
            "betas": list(params.betas),
            "expected_cut": expected,
        }
    elif args.method == "qaoa2":
        assignment = maxcut_mod.qaoa_squared(
            graph, cap=args.cap, p=args.p, merge_mode=args.merge,
            seed=args.seed, shots=args.shots, jobs=args.jobs,
        )
        params_info = {"p": args.p, "cap": args.cap, "merge": args.merge}
    elif args.method == "greedy":
        assignment = maxcut_mod.baseline_greedy(graph)
    elif args.method == "random":
        assignment = maxcut_mod.baseline_random(graph, trials=args.trials,
                                                seed=args.seed)
        params_info = {"trials": args.trials}
    else:  # pragma: no cover - argparse choices preclude this
        parser.error(f"unknown method {args.method}")
    payload = {
        "assignment": list(assignment.side),
        "cut": assignment.cut_value,
        "method": args.method,
        "params": params_info,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    if args.csv:
        row = [Path(args.graph).name, graph.n_nodes, len(graph.edges),
               args.method, f"{assignment.cut_value:.6g}", args.seed]
        new = not Path(args.csv).exists()
        with open(args.csv, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            if new:
                writer.writerow(["graph", "n_nodes", "n_edges", "method", "cut", "seed"])
            writer.writerow(row)
    return 0


# ---------------------------------------------------------------------------
# knit
# ---------------------------------------------------------------------------


def _knit_instance(spec: SpinChainSpec, seed: int, args):
    inst = spec.realize(seed)
    circuit = build_spinchain_circuit(inst)
    per_step = max(1, len(circuit.gates) // inst.steps)
    checkpoints = sorted({per_step * (k + 1) for k in range(inst.steps)} | {len(circuit.gates)})
    report = overhead_reduction(
        circuit,
        checkpoints=checkpoints,
        chi_max=args.chi,
        trunc_tol=args.trunc_tol,
        max_fragment=args.max_fragment,
        aggregate=args.aggregate,
    )
    warn = ""
    if args.chi is not None and report.discarded_weight > max(args.trunc_tol, 1e-12):
        warn = (
            f"seed {seed}: chi={args.chi} too small "
            f"(discarded weight {report.discarded_weight:.2e})"
        )
    return {
        "seed": seed,
        "cut_bond": report.cut_bond,
        "adaptive_overhead": report.adaptive_overhead,
        "baseline_overhead": report.baseline_overhead,
        "ratio": report.ratio,
        "warning": warn,
    }


def _cmd_knit(args, parser) -> int:
    spec = SpinChainSpec.from_json(
        _existing_file(parser, args.spec).read_text(encoding="utf-8")
    )
    seeds = [args.base_seed + k for k in range(args.seeds)]
    if args.jobs and args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(lambda s: _knit_instance(spec, s, args), seeds))
    else:
        rows = [_knit_instance(spec, s, args) for s in seeds]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["seed", "cut_bond", "adaptive_overhead", "baseline_overhead", "ratio"])
    for row in rows:
        writer.writerow(
            [row["seed"], row["cut_bond"], f"{row['adaptive_overhead']:.10g}",
             f"{row['baseline_overhead']:.10g}", f"{row['ratio']:.10g}"]
        )
    _write_text(args.out, buf.getvalue())
    for row in rows:
        if row["warning"]:
            print(f"warning: {row['warning']}", file=sys.stderr)
    ratios = [row["ratio"] for row in rows]
    print(
        f"instances={len(rows)} median_ratio={float(np.median(ratios)):.4g} "
        f"max_ratio={max(ratios):.4g}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# sched
# ---------------------------------------------------------------------------


def _cmd_sched(args, parser) -> int:
    blocks = load_workload(_existing_file(parser, args.workload))
    policies = ["monolithic", "split"] if args.policy == "both" else [args.policy]
    rows = []
    for policy in policies:
        sched = schedule(blocks, n_classical=args.classical, n_qpu=args.qpu,
                         policy=policy)
        m = sched.metrics
        rows.append((policy, m))
        if args.timeline_csv:
            suffix = f".{policy}.csv" if len(policies) > 1 else ".csv"
            target = Path(args.timeline_csv).with_suffix(suffix)
            target.write_text(schedule_to_csv(sched), encoding="utf-8")
    header = f"{'policy':<12}{'makespan':>9}{'qpu_busy':>9}{'qpu_reserved':>13}{'qpu_idle_frac':>14}"
    print(header)
    for policy, m in rows:
        print(
            f"{policy:<12}{m.makespan:>9}{m.qpu_busy:>9}{m.qpu_reserved:>13}"
            f"{m.qpu_idle_fraction:>14.4f}"
        )
    return 0


# ---------------------------------------------------------------------------
# serve / submit
# ---------------------------------------------------------------------------


def _cmd_serve(args, parser) -> int:
    host, port = parse_address(args.listen)
    server = DispatchServer(host, port, workers=args.workers).start()
    actual = server.address
    print(f"listening on {actual[0]}:{actual[1]}", file=sys.stderr)
    try:
        server.wait_until_stopped()
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
        server.stop(drain=True)
    return 0


def _cmd_submit(args, parser) -> int:
    circuit_text = _existing_file(parser, args.circuit).read_text(encoding="utf-8")
    qasm.parse(circuit_text)  # fail fast with a local diagnostic
    obs_data = json.loads(
        _existing_file(parser, args.observable).read_text(encoding="utf-8")
    )
    observable = observable_from_json(obs_data)
    if args.addr:
        host, port = parse_address(args.addr)
        client = DispatchClient(host, port)
    else:
        client = DispatchClient()  # from QUILT_ADDR
    with client:
        job_id = client.submit(
            circuit_text, observable,
            mode="shots" if args.shots else "exact",
            shots=args.shots, seed=args.seed,
        )
        result = client.wait(job_id, timeout=args.timeout)
    if isinstance(result, dict):
        print(json.dumps({"job_id": job_id, "counts": result}, indent=2))
    else:
        print(json.dumps({"job_id": job_id, "value": result}, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="quilt",
        description="Hybrid quantum-classical workloads: linear solver, MaxCut, "
        "circuit knitting, job scheduling and a dispatch server.",
    )
    parser.add_argument(
        "--config", default=None, metavar="FILE",
        help="JSON file of flag defaults for the chosen subcommand "
        '(e.g. {"method": "qaoa2", "cap": 4})',
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hhl = sub.add_parser("hhl", help="run the quantum linear solver on a JSON system")
    p_hhl.add_argument("system", help="JSON file {A, b, m}")
    p_hhl.add_argument("--m", type=int, default=None, help="override clock qubits")
    p_hhl.add_argument("--tol", type=float, default=0.02,
                       help="exit 0 iff deviation <= tol (default 0.02)")
    p_hhl.add_argument("--out", default="-", help="run-log CSV path (default stdout)")

    p_mc = sub.add_parser("maxcut", help="solve MaxCut on an edge-list graph")
    p_mc.add_argument("graph", help="edge-list file with n_nodes header")
    p_mc.add_argument("--method", required=True,
                      choices=["qaoa", "qaoa2", "greedy", "random"])
    p_mc.add_argument("--p", type=int, default=1, help="ansatz layers")
    p_mc.add_argument("--cap", type=int, default=6, help="community size cap (qaoa2)")
    p_mc.add_argument("--merge", default="brute", choices=["brute", "local"])
    p_mc.add_argument("--shots", type=int, default=512)
    p_mc.add_argument("--trials", type=int, default=256, help="random-baseline trials")
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--jobs", type=int, default=None,
                      help="accepted for compatibility, must be >= 1 (qaoa2 solves "
                           "communities one after another)")
    p_mc.add_argument("--out", default="-", help="result JSON path (default stdout)")
    p_mc.add_argument("--csv", default=None, help="append a benchmark CSV row here")

    p_knit = sub.add_parser("knit", help="adaptive-vs-baseline cutting overhead ensemble")
    p_knit.add_argument("spec", help="spin-chain spec JSON")
    p_knit.add_argument("--seeds", type=int, default=50, help="ensemble size")
    p_knit.add_argument("--base-seed", type=int, default=0)
    p_knit.add_argument("--chi", type=int, default=None,
                        help="MPS bond cap (default unbounded)")
    p_knit.add_argument("--trunc-tol", type=float, default=0.0)
    p_knit.add_argument("--max-fragment", type=int, default=None)
    p_knit.add_argument("--aggregate", default="max", choices=["max", "mean"])
    p_knit.add_argument("--jobs", type=int, default=None, help="parallel instances")
    p_knit.add_argument("--out", default="-", help="ensemble CSV path (default stdout)")

    p_sched = sub.add_parser("sched", help="simulate hybrid-job scheduling policies")
    p_sched.add_argument("workload", help="workload JSON")
    p_sched.add_argument("--policy", default="both",
                         choices=["monolithic", "split", "both"])
    p_sched.add_argument("--classical", type=int, default=2)
    p_sched.add_argument("--qpu", type=int, default=1)
    p_sched.add_argument("--timeline-csv", default=None,
                         help="write placement timeline CSV(s) here")

    p_serve = sub.add_parser("serve", help="run the dispatch server")
    p_serve.add_argument("--listen", default="127.0.0.1:7707", help="host:port")
    p_serve.add_argument("--workers", type=int, default=2)

    p_sub = sub.add_parser("submit", help="submit a circuit to a dispatch server")
    p_sub.add_argument("circuit", help=".qasm circuit file")
    p_sub.add_argument("--observable", required=True,
                       help='JSON file {"terms": [[coeff, "ZZ"], ...]}')
    p_sub.add_argument("--addr", default=None,
                       help=f"server host:port (default ${DEFAULT_ADDRESS_ENV})")
    p_sub.add_argument("--shots", type=int, default=None,
                       help="sample counts instead of the exact expectation")
    p_sub.add_argument("--seed", type=int, default=None)
    p_sub.add_argument("--timeout", type=float, default=30.0)
    commands = {
        "hhl": p_hhl, "maxcut": p_mc, "knit": p_knit,
        "sched": p_sched, "serve": p_serve, "submit": p_sub,
    }
    return parser, commands


_HANDLERS = {
    "hhl": _cmd_hhl,
    "maxcut": _cmd_maxcut,
    "knit": _cmd_knit,
    "sched": _cmd_sched,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def _apply_config(parser, commands, argv) -> None:
    """Install config-file values as defaults for the chosen subcommand."""
    config_path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                parser.error("--config needs a file argument")
            config_path = argv[i + 1]
            break
        if tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
            break
    if config_path is None:
        return
    command = next(
        (tok for tok in argv if not tok.startswith("-") and tok != config_path), None
    )
    if command not in commands:
        return  # the main parse will report the bad subcommand
    try:
        values = json.loads(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {config_path}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"config {config_path} must be a JSON object of flag defaults")
    sub = commands[command]
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            parser.error(f"config key {key!r} is not a flag of 'quilt {command}'")
        defaults[dest] = value
        actions[dest].required = False  # the config satisfies required flags
    sub.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    _apply_config(parser, commands, argv)
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, parser)
    except (ValueError, DispatchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
