import json
import socket
import threading
import time

import numpy as np
import pytest

from quilt.circuit import Circuit, PauliSum, cx, h, measure
from quilt.dispatch import DispatchClient, DispatchError, DispatchServer
from quilt.dispatch import server as server_module
from quilt.dispatch.protocol import (
    observable_from_json,
    observable_to_json,
    parse_address,
    ProtocolError,
)
from quilt.qasm import emit
from quilt.simsv import sample, simulate


@pytest.fixture
def server():
    srv = DispatchServer("127.0.0.1", 0, workers=2).start()
    yield srv
    srv.stop(drain=True)


def client_for(srv):
    host, port = srv.address
    return DispatchClient(host, port)


def bell_circuit():
    return Circuit(2, (h(0), cx(0, 1)))


def test_observable_json_roundtrip():
    ps = PauliSum([(0.5, "ZZ"), (-1.5, "XI")])
    assert observable_from_json(observable_to_json(ps)) == ps
    with pytest.raises(ProtocolError):
        observable_from_json({"terms": [["z", 1]]})
    with pytest.raises(ProtocolError):
        observable_from_json([1, 2])


def test_parse_address():
    assert parse_address("localhost:9000") == ("localhost", 9000)
    assert parse_address(":9000") == ("127.0.0.1", 9000)
    with pytest.raises(ProtocolError):
        parse_address("no-port")


def test_bell_expectation_roundtrip(server):
    with client_for(server) as client:
        job = client.submit(bell_circuit(), PauliSum([(1.0, "ZZ")]), mode="exact")
        value = client.wait(job)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_shots_counts_match_local_simulation(server):
    circ = bell_circuit()
    with client_for(server) as client:
        job = client.submit(circ, PauliSum([(1.0, "ZZ")]), mode="shots",
                            shots=10000, seed=42)
        counts = client.wait(job)
    local = sample(simulate(circ), 10000, seed=42)
    assert counts == local  # byte-equal content through the JSON protocol


@pytest.mark.parametrize("count", [True, 2.0, "3", 0])
def test_shots_mode_rejects_a_count_that_is_not_a_positive_integer(server, count):
    with client_for(server) as client:
        with pytest.raises(DispatchError, match="positive count"):
            client.submit(bell_circuit(), PauliSum([(1.0, "ZZ")]), mode="shots", shots=count)


def test_poll_unknown_job(server):
    with client_for(server) as client:
        with pytest.raises(DispatchError, match="unknown job"):
            client.poll("job-999")


def test_malformed_qasm_fails_with_diagnostic(server):
    with client_for(server) as client:
        job = client.submit("OPENQASM 2.0; qreg q[2]; cx q[0],q[5];",
                            PauliSum([(1.0, "ZZ")]))
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            state = client.poll(job)
            if state["status"] in ("done", "failed"):
                break
            time.sleep(0.01)
        assert state["status"] == "failed"
        assert "out of range" in state["error"] and "line" in state["error"]
        with pytest.raises(DispatchError):
            client.fetch(job)


def test_width_mismatch_fails(server):
    with client_for(server) as client:
        job = client.submit(bell_circuit(), PauliSum([(1.0, "ZZZ")]))
        with pytest.raises(DispatchError, match="width"):
            client.wait(job)


def test_fetch_before_done_and_idempotent_after(server):
    with client_for(server) as client:
        job = client.submit(bell_circuit(), PauliSum([(1.0, "ZZ")]))
        first = client.wait(job)
        for _ in range(3):
            assert client.fetch(job) == first
        assert client.poll(job)["status"] == "done"


def test_concurrent_clients_independent_results(server):
    results = {}

    def run(tag, obs):
        with client_for(server) as client:
            job = client.submit(bell_circuit(), PauliSum([(1.0, obs)]))
            results[tag] = client.wait(job)

    threads = [
        threading.Thread(target=run, args=("zz", "ZZ")),
        threading.Thread(target=run, args=("xx", "XX")),
        threading.Thread(target=run, args=("zi", "ZI")),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results["zz"] == pytest.approx(1.0, abs=1e-10)
    assert results["xx"] == pytest.approx(1.0, abs=1e-10)
    assert results["zi"] == pytest.approx(0.0, abs=1e-10)


def test_fuzzed_lines_get_error_replies_and_server_survives(server):
    host, port = server.address
    rng = np.random.default_rng(7)
    with socket.create_connection((host, port)) as sock:
        f = sock.makefile("rb")
        for _ in range(60):
            blob = bytes(int(b) for b in rng.integers(1, 256, size=rng.integers(1, 80)))
            blob = blob.replace(b"\n", b"x") + b"\n"
            sock.sendall(blob)
            reply = json.loads(f.readline())
            assert reply["ok"] is False
        # structured-but-wrong requests
        for payload in (b"{}\n", b'{"op": 5}\n', b'{"op": "submit"}\n',
                        b'{"op": "fetch"}\n', b'[1,2]\n'):
            sock.sendall(payload)
            assert json.loads(f.readline())["ok"] is False
    # server still works after the abuse
    with client_for(server) as client:
        job = client.submit(bell_circuit(), PauliSum([(1.0, "ZZ")]))
        assert client.wait(job) == pytest.approx(1.0, abs=1e-10)


def test_oversized_request_line_is_refused_and_server_keeps_serving(server, monkeypatch):
    limit = 512
    monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", limit)
    host, port = server.address

    def poll_line(size):  # a poll request exactly ``size`` bytes long
        pad = size - len(b'{"op":"poll","job_id":""}\n')
        return b'{"op":"poll","job_id":"' + b"j" * pad + b'"}\n'

    with client_for(server) as other:
        with socket.create_connection((host, port), timeout=10) as sock:
            f = sock.makefile("rb")
            sock.sendall(poll_line(limit))  # at the limit: an ordinary reply
            assert json.loads(f.readline()) == {"ok": False, "error": "unknown job"}
            sock.sendall(poll_line(limit + 1))
            reply = json.loads(f.readline())
            assert reply["ok"] is False and f"exceeds {limit} bytes" in reply["error"]
            try:
                rest = f.readline()
            except ConnectionResetError:
                rest = b""
            assert rest == b""  # the server closed this connection
        # a client connected before the oversized line is still served
        job = other.submit(bell_circuit(), PauliSum([(1.0, "ZZ")]))
        assert other.wait(job) == pytest.approx(1.0, abs=1e-10)
    with client_for(server) as client:
        job = client.submit(bell_circuit(), PauliSum([(1.0, "ZZ")]))
        assert client.wait(job) == pytest.approx(1.0, abs=1e-10)


def test_shutdown_drains_queued_jobs():
    srv = DispatchServer("127.0.0.1", 0, workers=1).start()
    try:
        host, port = srv.address
        with DispatchClient(host, port) as client:
            jobs = [
                client.submit(bell_circuit(), PauliSum([(1.0, "ZZ")]))
                for _ in range(5)
            ]
            client.shutdown_server()
        assert srv.wait_until_stopped(timeout=20)
        # every queued job finished or failed; none lost
        for jid in jobs:
            job = srv._jobs[jid]
            assert job.status in ("done", "failed")
    finally:
        srv.stop(drain=False)


def test_submit_with_measures_in_circuit(server):
    circ = Circuit(2, (h(0), cx(0, 1), measure(0), measure(1)))
    with client_for(server) as client:
        job = client.submit(emit(circ), PauliSum([(1.0, "ZZ")]), mode="shots",
                            shots=100, seed=3)
        counts = client.wait(job)
    assert set(counts) <= {"00", "11"}
    assert sum(counts.values()) == 100
