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


# blocking wait ------------------------------------------------------------------

ZZ = PauliSum([(1.0, "ZZ")])


@pytest.fixture
def gated_server():
    """One worker that holds every job in "queued" until ``gate`` is set."""
    srv = DispatchServer("127.0.0.1", 0, workers=1)
    gate = threading.Event()
    run_job = srv._run_job

    def gated(*args):
        gate.wait(30)
        run_job(*args)

    srv._run_job = gated
    srv.start()
    yield srv, gate
    gate.set()
    srv.stop(drain=True)


class RawConnection:
    """A socket speaking the wire protocol line by line, bypassing the client."""

    def __init__(self, srv):
        self.sock = socket.create_connection(srv.address, timeout=20)
        self.file = self.sock.makefile("rb")

    def send(self, payload):
        line = payload if isinstance(payload, bytes) else json.dumps(payload).encode() + b"\n"
        self.sock.sendall(line)

    def receive(self) -> dict:
        return json.loads(self.file.readline())

    def request(self, payload) -> dict:
        self.send(payload)
        return self.receive()

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.fixture
def raw_for():
    opened = []

    def connect(srv):
        opened.append(RawConnection(srv))
        return opened[-1]

    yield connect
    for conn in opened:
        conn.close()


def poll_then_fetch(conn, job_id):
    """What ``wait`` replaced: poll until the job finishes, then fetch."""
    while conn.request({"op": "poll", "job_id": job_id})["status"] not in ("done", "failed"):
        time.sleep(0.005)
    reply = conn.request({"op": "fetch", "job_id": job_id})
    if not reply["ok"]:
        return ("error", reply["error"])
    result = reply["result"]
    return ("result", result["value"] if "value" in result else result["counts"])


@pytest.mark.parametrize("circuit, observable, mode", [
    (bell_circuit(), PauliSum([(1.0, "ZZ"), (0.5, "XX"), (-0.25, "YY")]), {}),
    (Circuit(3, (h(0), cx(0, 1), h(2))), PauliSum([(1.0, "ZZZ")]),
     {"mode": "shots", "shots": 5000, "seed": 11}),
    ("OPENQASM 2.0; qreg q[2]; cx q[0],q[5];", ZZ, {}),
    (bell_circuit(), PauliSum([(1.0, "ZZZ")]), {}),
])
def test_wait_matches_poll_then_fetch(server, raw_for, circuit, observable, mode):
    conn = raw_for(server)
    with client_for(server) as client:
        job = client.submit(circuit, observable, **mode)
        try:
            got = ("result", client.wait(job))
        except DispatchError as exc:
            got = ("error", str(exc))
    assert got == poll_then_fetch(conn, job)


def record_requests(srv) -> list:
    """Make ``srv`` log every request line it handles; returns the log."""
    log = []
    handle = srv.handle_request_line

    def logged(line):
        log.append(json.loads(line))
        return handle(line)

    srv.handle_request_line = logged
    return log


def test_wait_sends_one_request_for_a_job_that_finishes_in_time(server):
    log = record_requests(server)
    with client_for(server) as client:
        client.wait(client.submit(bell_circuit(), ZZ))
        client.wait(client.submit(bell_circuit(), ZZ, mode="shots", shots=100, seed=2))
    assert [request["op"] for request in log] == ["submit", "wait", "submit", "wait"]


def test_wait_times_out_with_the_status_and_no_result(gated_server, raw_for):
    srv, gate = gated_server
    conn = raw_for(srv)
    with client_for(srv) as client:
        job = client.submit(bell_circuit(), ZZ)
        poll = conn.request({"op": "poll", "job_id": job})
        assert poll == {"ok": True, "status": "queued"}
        assert conn.request({"op": "wait", "job_id": job, "timeout": 0}) == poll
        assert conn.request({"op": "wait", "job_id": job, "timeout": 0.05}) == poll
        for timeout in (0.05, -1.0, float("nan")):
            with pytest.raises(DispatchError, match="timed out"):
                client.wait(job, timeout=timeout)
        # a huge finite timeout is clamped, not an OverflowError, and the
        # reply comes as soon as the job is done
        conn.send({"op": "wait", "job_id": job, "timeout": 1e300})
        gate.set()
        done = conn.receive()
        assert done["ok"] and done["status"] == "done"
        assert done["result"] == conn.request({"op": "fetch", "job_id": job})["result"]
        assert conn.request({"op": "wait", "job_id": job, "timeout": 0}) == done
        assert client.wait(job, timeout=0) == pytest.approx(1.0, abs=1e-10)


def test_wait_longer_than_the_socket_timeout_keeps_the_connection_in_step(gated_server):
    srv, gate = gated_server
    log = record_requests(srv)
    host, port = srv.address
    with DispatchClient(host, port, timeout=0.2) as client:
        job = client.submit(bell_circuit(), ZZ)
        with pytest.raises(DispatchError, match="timed out"):
            client.wait(job, timeout=0.5)  # each request blocks <= 0.1 s
        waits = [request["timeout"] for request in log if request["op"] == "wait"]
        assert len(waits) >= 3 and max(waits) <= 0.1
        gate.set()
        assert client.wait(job) == pytest.approx(1.0, abs=1e-10)
        assert client.poll(job) == {"status": "done"}


@pytest.mark.parametrize("timeout", [b"-1", b"-0.5", b"NaN", b"Infinity", b"-Infinity",
                                     b"1e400", b"true", b"false", b'"1"', b"null", b"[1]"])
def test_wait_rejects_a_bad_timeout_and_keeps_the_connection(server, raw_for, timeout):
    with client_for(server) as client:
        job = client.submit(bell_circuit(), ZZ)
        client.wait(job)
    conn = raw_for(server)
    reply = conn.request(b'{"op":"wait","job_id":"%s","timeout":%s}\n' % (job.encode(), timeout))
    assert reply["ok"] is False and "timeout" in reply["error"]
    assert conn.request({"op": "wait", "job_id": job})["ok"] is False  # no timeout at all
    assert conn.request({"op": "poll", "job_id": job}) == {"ok": True, "status": "done"}


def test_wait_on_an_unknown_job(server, raw_for):
    reply = raw_for(server).request({"op": "wait", "job_id": "job-999", "timeout": 1})
    assert reply == {"ok": False, "error": "unknown job"}
    with client_for(server) as client:
        with pytest.raises(DispatchError, match="unknown job"):
            client.wait("job-999")


def test_stop_drains_a_queued_job_a_client_is_waiting_on(gated_server):
    srv, gate = gated_server
    waiting = threading.Event()
    op_wait = srv._op_wait

    def watched(request):
        waiting.set()
        return op_wait(request)

    srv._op_wait = watched
    with client_for(srv) as client:
        client.submit(bell_circuit(), ZZ)  # holds the only worker at the gate
        queued = client.submit(bell_circuit(), PauliSum([(1.0, "XX")]))
    outcome = {}

    def wait_for_it():
        try:
            with client_for(srv) as other:
                outcome["value"] = other.wait(queued)
        except Exception as exc:
            outcome["error"] = exc

    waiter = threading.Thread(target=wait_for_it)
    waiter.start()
    assert waiting.wait(10)
    stopper = threading.Thread(target=srv.stop, kwargs={"drain": True})
    stopper.start()
    deadline = time.monotonic() + 10
    while srv._accepting and time.monotonic() < deadline:
        time.sleep(0.001)
    assert not srv._accepting
    gate.set()
    stopper.join(20)
    waiter.join(20)
    assert not stopper.is_alive() and not waiter.is_alive()
    assert srv.wait_until_stopped(timeout=0)
    assert outcome == {"value": pytest.approx(1.0, abs=1e-10)}


# bounded job table --------------------------------------------------------------


def test_job_table_evicts_the_oldest_finished_jobs(server, raw_for, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_JOBS", 3)
    conn = raw_for(server)
    with client_for(server) as client:
        jobs = []
        for _ in range(6):  # one at a time, so jobs finish in submission order
            jobs.append(client.submit(bell_circuit(), ZZ))
            client.wait(jobs[-1])
    for job in jobs[:2]:
        for op in ({"op": "poll"}, {"op": "fetch"}, {"op": "wait", "timeout": 0}):
            assert conn.request({**op, "job_id": job}) == {"ok": False, "error": "unknown job"}
    for job in jobs[2:]:
        assert conn.request({"op": "poll", "job_id": job}) == {"ok": True, "status": "done"}


def test_job_table_never_evicts_queued_jobs(gated_server, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_JOBS", 1)
    srv, gate = gated_server
    with client_for(srv) as client:
        jobs = [client.submit(bell_circuit(), ZZ) for _ in range(4)]
        assert [client.poll(job)["status"] for job in jobs] == ["queued"] * 4
        gate.set()
        assert [client.wait(job) for job in jobs] == [pytest.approx(1.0, abs=1e-10)] * 4
        client.wait(client.submit(bell_circuit(), ZZ))  # evicts all but one finished job
        for job in jobs[:3]:
            with pytest.raises(DispatchError, match="unknown job"):
                client.poll(job)
        assert client.poll(jobs[3])["status"] == "done"


def finished_job(conn, deliver):
    """Submit a Bell job on ``conn`` and return its id once it has finished,
    its result returned by a ``wait`` if ``deliver``, else only polled."""
    job = conn.request({"op": "submit", "circuit": emit(bell_circuit()),
                        "observable": observable_to_json(ZZ)})["job_id"]
    if deliver:
        assert conn.request({"op": "wait", "job_id": job, "timeout": 20})["ok"]
    else:  # polls never deliver
        deadline = time.monotonic() + 20
        while conn.request({"op": "poll", "job_id": job})["status"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.002)
    return job


def test_job_table_evicts_delivered_jobs_before_undelivered_ones(server, raw_for, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_JOBS", 2)
    monkeypatch.setattr(server_module, "MAX_UNDELIVERED", 2)
    conn = raw_for(server)

    def known(job):
        return conn.request({"op": "poll", "job_id": job})["ok"]

    kept = [finished_job(conn, False), finished_job(conn, False)]
    delivered = [finished_job(conn, True) for _ in range(3)]
    last = finished_job(conn, False)
    assert all(known(job) for job in kept + [last])
    assert not any(known(job) for job in delivered)  # evicted first, though newer
    # a fetch delivers too; with no delivered job left, the oldest undelivered
    # job goes only once more than MAX_UNDELIVERED of them are held
    assert conn.request({"op": "fetch", "job_id": last})["ok"]
    newer = finished_job(conn, False)  # its submit evicts `last`
    assert not known(last) and all(known(job) for job in kept + [newer])
    finished_job(conn, False)  # three undelivered held at this submit: the oldest goes
    assert not known(kept[0]) and known(kept[1]) and known(newer)


def test_undelivered_results_are_kept_beyond_max_jobs(server, raw_for, monkeypatch):
    monkeypatch.setattr(server_module, "MAX_JOBS", 1)
    monkeypatch.setattr(server_module, "MAX_UNDELIVERED", 3)
    conn = raw_for(server)
    waiting = [finished_job(conn, False) for _ in range(3)]
    finished_job(conn, True)
    assert all(conn.request({"op": "fetch", "job_id": job})["ok"] for job in waiting)


@pytest.mark.parametrize("job_id", [[1], {"id": "job-1"}, 1, True, None])
def test_a_job_id_that_is_not_a_string_gets_a_validation_error(server, raw_for, job_id):
    conn = raw_for(server)
    with client_for(server) as client:
        client.wait(client.submit(bell_circuit(), ZZ))
    for op in ({"op": "poll"}, {"op": "fetch"}, {"op": "wait", "timeout": 0}):
        reply = conn.request({**op, "job_id": job_id})
        assert reply == {"ok": False, "error": "job_id must be a string"}
    assert conn.request({"op": "poll", "job_id": "job-1"}) == {"ok": True, "status": "done"}


def test_an_idle_server_stops_promptly():
    srv = DispatchServer("127.0.0.1", 0, workers=1).start()
    time.sleep(0.2)  # let the accept loop settle into its wait
    start = time.monotonic()
    srv.stop(drain=True)
    assert time.monotonic() - start < 0.2
    assert srv.wait_until_stopped(timeout=0)


def test_job_table_stays_consistent_under_concurrent_submits_and_waits(monkeypatch):
    import sys

    monkeypatch.setattr(server_module, "MAX_JOBS", 5)
    srv = DispatchServer("127.0.0.1", 0, workers=4).start()
    errors = []

    def client_loop(obs, expected):
        try:
            with client_for(srv) as client:
                for _ in range(12):
                    value = client.wait(client.submit(bell_circuit(), PauliSum([(1.0, obs)])))
                    if abs(value - expected) > 1e-10:
                        errors.append((obs, value))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client_loop, args=pair)
                   for pair in [("ZZ", 1.0), ("XX", 1.0), ("ZI", 0.0), ("YY", -1.0)] * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        srv.stop(drain=True)
    assert errors == []
    # every job is finished; each is recorded once and evictions left no strays
    assert len(srv._finished) == len(set(srv._finished))
    assert set(srv._finished) == set(srv._jobs)
    assert server_module.MAX_JOBS <= len(srv._jobs) <= server_module.MAX_JOBS + len(threads)


# lazy package exports -------------------------------------------------------------


def test_importing_the_scheduler_loads_neither_server_nor_parser():
    import os
    import subprocess
    import sys

    import quilt

    src = os.path.dirname(os.path.dirname(quilt.__file__))
    code = ("import sys, quilt.dispatch.sched; "
            "print([m for m in ('quilt.dispatch.server', 'quilt.dispatch.client', "
            "'quilt.qasm') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_dispatch_export_resolves():
    import quilt.dispatch as dispatch
    from quilt.dispatch import client, protocol, sched

    for name in dispatch.__all__:
        value = getattr(dispatch, name)
        home = next(m for m in (client, server_module, protocol, sched) if hasattr(m, name))
        assert value is getattr(home, name)
    with pytest.raises(AttributeError):
        dispatch.no_such_name


# -- shutdown is honoured from loopback peers only ------------------------------------


SHUTDOWN = b'{"op": "shutdown"}\n'


@pytest.mark.parametrize("peer", [("10.1.2.3", 40000), ("192.168.0.7", 5),
                                  ("2001:db8::1", 6), ("not-an-address", 7)])
def test_shutdown_from_a_remote_peer_is_refused_and_logged(server, capsys, peer):
    reply = server.handle_request_line(SHUTDOWN, peer=peer)
    assert reply["ok"] is False and "loopback" in reply["error"]
    log = capsys.readouterr().err.splitlines()
    assert len(log) == 1 and f"{peer[0]}:{peer[1]}" in log[0]
    assert not server.wait_until_stopped(timeout=0.2)
    with client_for(server) as client:  # still serving
        assert client.wait(client.submit(bell_circuit(), ZZ)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("host", ["127.0.0.1", "127.8.9.10", "::1", "::ffff:127.0.0.1"])
def test_loopback_hosts_are_recognised(host):
    assert server_module._is_loopback(host)


@pytest.mark.parametrize("host", ["10.1.2.3", "0.0.0.0", "2001:db8::1", "::ffff:10.0.0.1",
                                  "not-an-address", ""])
def test_other_hosts_are_not_loopback(host):
    assert not server_module._is_loopback(host)


def test_shutdown_from_in_process_stops_the_server(capsys):
    srv = DispatchServer("127.0.0.1", 0, workers=1).start()
    try:
        assert srv.handle_request_line(SHUTDOWN) == {"ok": True}
        assert srv.wait_until_stopped(timeout=5)
        assert capsys.readouterr().err == ""
    finally:
        srv.stop(drain=False)


def test_shutdown_over_a_loopback_connection_stops_the_server(capsys):
    srv = DispatchServer("127.0.0.1", 0, workers=1).start()
    try:
        with socket.create_connection(srv.address, timeout=5) as sock:
            sock.sendall(SHUTDOWN)
            assert json.loads(sock.makefile("rb").readline()) == {"ok": True}
        assert srv.wait_until_stopped(timeout=5)
        assert capsys.readouterr().err == ""
    finally:
        srv.stop(drain=False)


def test_connection_handler_passes_a_remote_peer_on(server, raw_for, monkeypatch, capsys):
    # a loopback socket stands in for a remote one: only the address test is patched
    monkeypatch.setattr(server_module, "_is_loopback", lambda host: False)
    conn = raw_for(server)
    reply = conn.request({"op": "shutdown"})
    assert reply["ok"] is False and "loopback" in reply["error"]
    assert "refused shutdown from 127.0.0.1:" in capsys.readouterr().err
    assert conn.request({"op": "poll", "job_id": "job-0"})["ok"] is False  # same connection
    assert not server.wait_until_stopped(timeout=0.2)
