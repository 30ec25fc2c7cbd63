import csv
import json
import subprocess
import sys

import pytest

from quilt.cli import main


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"A": [[1.0, 0.0], [0.0, 0.5]], "b": [1.0, 1.0], "m": 5}))
    return path


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 3\n")
    return path


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "n_qubits": 8, "t": 0.8, "steps": 2,
        "disorder": {"coupling_range": [0.0, 1.0],
                     "transverse_range": [0.2, 0.8],
                     "longitudinal_range": [0.0, 0.3], "seed": 0},
    }))
    return path


@pytest.fixture
def workload_file(tmp_path):
    path = tmp_path / "workload.json"
    path.write_text(json.dumps({"jobs": [
        {"phases": [["c", 10], ["q", 1], ["c", 10], ["q", 1]]},
        {"phases": [["c", 10], ["q", 1], ["c", 10], ["q", 1]]},
    ]}))
    return path


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_file_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hhl", str(tmp_path / "nope.json")])
    assert exc.value.code == 2


def test_unknown_method_is_usage_error(graph_file):
    with pytest.raises(SystemExit) as exc:
        main(["maxcut", str(graph_file), "--method", "annealing"])
    assert exc.value.code == 2


def test_hhl_identityish_system(system_file, tmp_path, capsys):
    out = tmp_path / "runlog.csv"
    code = main(["hhl", str(system_file), "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "component"
    summary = {r[0]: r[1] for r in rows if len(r) == 2}
    assert float(summary["deviation"]) < 1e-6


@pytest.mark.filterwarnings("ignore:clock register")
def test_hhl_tiny_clock_fails_with_report(system_file, capsys):
    code = main(["hhl", str(system_file), "--m", "1", "--tol", "0.001", "--out", "-"])
    assert code == 1
    assert "deviation" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["A", "b"])
def test_hhl_nan_entry_is_an_error(tmp_path, capsys, field):
    system = {"A": [[1.0, 0.0], [0.0, 0.5]], "b": [1.0, 1.0], "m": 5}
    if field == "A":
        system["A"][0][1] = system["A"][1][0] = float("nan")
    else:
        system["b"][1] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(system))  # writes the NaN literal json.loads reads back
    assert main(["hhl", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_maxcut_greedy_triangle(tmp_path, capsys):
    path = tmp_path / "tri.txt"
    path.write_text("3\n0 1\n1 2\n0 2\n")
    out = tmp_path / "result.json"
    assert main(["maxcut", str(path), "--method", "greedy", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cut"] == 2.0
    assert payload["method"] == "greedy"


def test_maxcut_non_finite_weight_is_an_error(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("3\n0 1\n1 2 nan\n")
    assert main(["maxcut", str(path), "--method", "greedy"]) == 1
    assert "error:" in capsys.readouterr().err


def test_maxcut_qaoa2_two_triangles(graph_file, tmp_path):
    out = tmp_path / "result.json"
    csv_path = tmp_path / "bench.csv"
    code = main(["maxcut", str(graph_file), "--method", "qaoa2", "--cap", "3",
                 "--seed", "7", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["cut"] == 5.0
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["graph", "n_nodes", "n_edges", "method", "cut", "seed"]
    assert rows[1][3] == "qaoa2"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_maxcut_qaoa2_jobs_below_one_is_an_error(graph_file, capsys, jobs):
    assert main(["maxcut", str(graph_file), "--method", "qaoa2", "--cap", "3",
                 "--jobs", jobs]) == 1
    assert "error: jobs must be at least 1" in capsys.readouterr().err


def test_maxcut_deterministic_under_seed(graph_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        main(["maxcut", str(graph_file), "--method", "qaoa", "--seed", "3",
              "--out", str(out)])
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_knit_csv_deterministic(spec_file, tmp_path, capsys):
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    args = ["knit", str(spec_file), "--seeds", "4", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.reader(out1.read_text().splitlines()))
    assert rows[0] == ["seed", "cut_bond", "adaptive_overhead",
                       "baseline_overhead", "ratio"]
    assert len(rows) == 5


def test_knit_jobs_flag_does_not_change_results(spec_file, tmp_path):
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "parallel.csv"
    main(["knit", str(spec_file), "--seeds", "4", "--out", str(out1)])
    main(["knit", str(spec_file), "--seeds", "4", "--jobs", "4", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_knit_chi_warning(spec_file, tmp_path, capsys):
    main(["knit", str(spec_file), "--seeds", "2", "--chi", "1",
          "--out", str(tmp_path / "e.csv")])
    assert "too small" in capsys.readouterr().err


@pytest.mark.parametrize("chi", [1, 2, 16])
def test_knit_chi_warning_reuses_profile_run(spec_file, tmp_path, capsys, monkeypatch, chi):
    import quilt.cli
    from quilt import simmps
    from quilt.knit import SpinChainSpec, build_spinchain_circuit

    real_init = simmps.MpsState.__init__
    evolutions = []

    def counting_init(self, *args, **kwargs):
        evolutions.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(simmps.MpsState, "__init__", counting_init)
    seeds = 3
    main(["knit", str(spec_file), "--seeds", str(seeds), "--chi", str(chi),
          "--out", str(tmp_path / "e.csv")])
    err = capsys.readouterr().err
    assert len(evolutions) == seeds  # the entropy profile's run only
    assert not hasattr(quilt.cli, "mps_simulate")
    monkeypatch.undo()
    spec = SpinChainSpec.from_json(spec_file.read_text())
    for seed in range(seeds):
        state = simmps.mps_simulate(build_spinchain_circuit(spec.realize(seed)), chi_max=chi)
        too_small = state.discarded_weight > 1e-12
        assert (f"seed {seed}: chi={chi} too small" in err) == too_small


def test_sched_metrics_table(workload_file, capsys):
    assert main(["sched", str(workload_file), "--policy", "both",
                 "--classical", "2", "--qpu", "1"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("policy")
    mono = next(ln for ln in lines if ln.startswith("monolithic"))
    split = next(ln for ln in lines if ln.startswith("split"))
    assert int(mono.split()[1]) == 44 and int(split.split()[1]) == 23


def test_sched_timeline_csv(workload_file, tmp_path):
    target = tmp_path / "timeline"
    assert main(["sched", str(workload_file), "--policy", "split",
                 "--timeline-csv", str(target)]) == 0
    text = (tmp_path / "timeline.csv").read_text()
    assert text.startswith("block,resource,start,end")


def test_sched_malformed_workload_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"jobs\": [{\"phases\": [[\"warp\", 3]]}]}")
    assert main(["sched", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_serve_and_submit_end_to_end(tmp_path):
    circuit = tmp_path / "bell.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    observable = tmp_path / "obs.json"
    observable.write_text(json.dumps({"terms": [[1.0, "ZZ"]]}))

    from quilt.dispatch import DispatchServer

    server = DispatchServer("127.0.0.1", 0, workers=1).start()
    try:
        addr = f"127.0.0.1:{server.address[1]}"
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["submit", str(circuit), "--observable", str(observable),
                         "--addr", addr])
        assert code == 0
        payload = json.loads(buf.getvalue())
        assert payload["value"] == pytest.approx(1.0, abs=1e-10)
    finally:
        server.stop(drain=True)


def test_submit_env_address(tmp_path, monkeypatch):
    circuit = tmp_path / "x.qasm"
    circuit.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
    observable = tmp_path / "obs.json"
    observable.write_text(json.dumps({"terms": [[1.0, "Z"]]}))

    from quilt.dispatch import DispatchServer

    server = DispatchServer("127.0.0.1", 0, workers=1).start()
    try:
        monkeypatch.setenv("QUILT_ADDR", f"127.0.0.1:{server.address[1]}")
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["submit", str(circuit), "--observable", str(observable)])
        assert code == 0
        assert json.loads(buf.getvalue())["value"] == pytest.approx(-1.0, abs=1e-10)
    finally:
        server.stop(drain=True)


def test_submit_malformed_circuit_nonzero(tmp_path, capsys):
    circuit = tmp_path / "bad.qasm"
    circuit.write_text("OPENQASM 2.0; qreg q[1]; frob q[0];")
    observable = tmp_path / "obs.json"
    observable.write_text(json.dumps({"terms": [[1.0, "Z"]]}))
    code = main(["submit", str(circuit), "--observable", str(observable),
                 "--addr", "127.0.0.1:1"])
    assert code == 1
    assert "unknown gate" in capsys.readouterr().err


def test_config_file_supplies_defaults(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "greedy"}))
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), "maxcut", str(graph_file),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "greedy"
    # explicit flags still win over config defaults
    assert main(["--config", str(cfg), "maxcut", str(graph_file),
                 "--method", "random", "--trials", "64", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "random"


def test_config_file_rejects_unknown_keys(graph_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"warp_factor": 9}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "maxcut", str(graph_file), "--method", "greedy"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quilt.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "maxcut" in proc.stdout
