"""TCP job server executing circuits on the statevector backend.

Connections are handled concurrently; jobs enter a FIFO queue drained by a
worker pool.  Results are immutable once written, so repeated fetches are
idempotent (until later finished jobs evict the job, see ``MAX_JOBS``) and
job-level behavior is linearizable.  ``stop(drain=True)``
(or the ``shutdown`` op) stops accepting connections, finishes every
queued job, then closes; the ``shutdown`` op is honoured only from a loopback
peer.  A ``wait`` request blocks only its own connection's handler thread, on
the job's ``done_event``.
"""

from __future__ import annotations

import heapq
import ipaddress
import math
import socketserver
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .. import qasm, simsv
from .protocol import ProtocolError, decode_line, encode_line, observable_from_json


@dataclass
class _Job:
    job_id: str
    status: str = "queued"
    result: dict | None = None
    error: str | None = None
    done_event: threading.Event = field(default_factory=threading.Event)
    finished: int = -1  # position in finish order, once finished
    delivered: bool = False  # a fetch or wait has answered with the outcome


# Longest request line the server reads, newline included: 4 MiB holds the
# QASM text of a circuit with ~10^5 gates.  A longer line gets an error reply
# and its connection is closed, since the rest of that line cannot be told
# apart from the next request; a client can never make the server buffer more.
MAX_REQUEST_BYTES = 1 << 22

# Most finished (done or failed) jobs the server keeps.  Each submit evicts
# the jobs beyond this many whose outcome a fetch or wait has returned
# ("delivered"), oldest first, so the job table stays bounded however long the
# server runs.  An undelivered job is evicted, oldest first, only while more
# than MAX_UNDELIVERED of them are held: a client that asks for its result gets
# it, however many other clients' results are waiting to be asked for.  Queued
# and running jobs are never evicted.  A request naming an evicted job gets
# "unknown job".
MAX_JOBS = 10_000
MAX_UNDELIVERED = 10_000

# How often the accept loop checks for ``stop``: the longest ``stop`` waits.
POLL_INTERVAL_S = 0.05


def _is_loopback(host: str) -> bool:
    try:
        addr = ipaddress.ip_address(host)
    except ValueError:
        return False
    return (getattr(addr, "ipv4_mapped", None) or addr).is_loopback


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        server: DispatchServer = self.server.dispatch  # type: ignore[attr-defined]
        # the one trust decision: a loopback peer is treated like an in-process
        # caller, and only a remote peer's address is passed on
        host = self.client_address[0]
        remote = {} if _is_loopback(host) else {"peer": self.client_address}
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not line:
                return
            if len(line) > MAX_REQUEST_BYTES:
                self._send({"ok": False,
                            "error": f"request line exceeds {MAX_REQUEST_BYTES} bytes"})
                return
            if not line.strip():
                continue
            try:
                reply = server.handle_request_line(line, **remote)
            except Exception as exc:  # never let a request kill the connection
                reply = {"ok": False, "error": f"internal error: {exc}"}
            if not self._send(reply):
                return

    def _send(self, reply: dict) -> bool:
        try:
            self.wfile.write(encode_line(reply))
            self.wfile.flush()
        except (ConnectionError, OSError):
            return False
        return True


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class DispatchServer:
    """Quantum-resource server bound to ``host:port`` (port 0 picks one)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, workers: int = 2):
        if workers < 1:
            raise ValueError("need at least one worker")
        try:
            self._tcp = _TcpServer((host, port), _Handler)
        except OSError as exc:
            raise OSError(f"cannot bind {host}:{port}: {exc}")
        self._tcp.dispatch = self  # type: ignore[attr-defined]
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._jobs: dict[str, _Job] = {}
        self._finished: dict[str, _Job] = {}  # finished jobs by id, in finish order
        self._delivered: list[tuple[int, str]] = []  # heap: (finish order, id)
        self._lock = threading.Lock()
        self._counter = 0
        self._finish_count = 0
        self._accepting = True
        self._serve_thread: threading.Thread | None = None
        self._stopped = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    def start(self) -> "DispatchServer":
        self._serve_thread = threading.Thread(
            target=self._tcp.serve_forever, kwargs={"poll_interval": POLL_INTERVAL_S},
            name="quilt-dispatch", daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        if self._stopped.is_set():
            return
        self._accepting = False
        self._pool.shutdown(wait=drain)
        self._tcp.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
        self._tcp.server_close()
        self._stopped.set()

    def wait_until_stopped(self, timeout: float | None = None) -> bool:
        return self._stopped.wait(timeout)

    def __enter__(self) -> "DispatchServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=True)

    # -- request handling -----------------------------------------------------

    def handle_request_line(self, line: bytes, peer: tuple | None = None) -> dict:
        """Answer one request line.  ``peer`` is the ``(host, port)`` of a
        remote (non-loopback) client, which may not shut the server down; None
        means a loopback or in-process caller."""
        try:
            request = decode_line(line)
        except ProtocolError as exc:
            return {"ok": False, "error": str(exc)}
        op = request.get("op")
        if op == "submit":
            return self._op_submit(request)
        if op == "poll":
            return self._op_poll(request)
        if op == "fetch":
            return self._op_fetch(request)
        if op == "wait":
            return self._op_wait(request)
        if op == "shutdown":
            if peer is not None:
                print(f"quilt dispatch: refused shutdown from {peer[0]}:{peer[1]}",
                      file=sys.stderr, flush=True)
                return {"ok": False, "error": "shutdown is accepted from loopback only"}
            threading.Thread(target=self.stop, kwargs={"drain": True}, daemon=True).start()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _op_submit(self, request: dict) -> dict:
        circuit = request.get("circuit")
        observable = request.get("observable")
        mode = request.get("mode", {"kind": "exact"})
        if not isinstance(circuit, str):
            return {"ok": False, "error": "submit needs a 'circuit' text field"}
        if observable is None:
            return {"ok": False, "error": "submit needs an 'observable' field"}
        if not isinstance(mode, dict) or mode.get("kind") not in ("exact", "shots"):
            return {"ok": False, "error": "mode must be exact or shots"}
        if mode.get("kind") == "shots":
            count = mode.get("count")
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                return {"ok": False, "error": "shots mode needs a positive count"}
        if not self._accepting:
            return {"ok": False, "error": "server is shutting down"}
        with self._lock:
            self._counter += 1
            job = _Job(f"job-{self._counter}")
            self._jobs[job.job_id] = job
            while len(self._finished) > MAX_JOBS and self._delivered:
                self._evict(heapq.heappop(self._delivered)[1])
            # with no delivered job left, every finished job is undelivered
            while not self._delivered and len(self._finished) > MAX_UNDELIVERED:
                self._evict(next(iter(self._finished)))
        try:
            self._pool.submit(self._run_job, job, circuit, observable, mode)
        except RuntimeError:  # pool already draining: the job is not lost
            job.status = "failed"
            job.error = "server is shutting down"
            self._finish(job)
            return self._deliver(job, {"ok": False, "error": job.error})
        return {"ok": True, "job_id": job.job_id}

    def _evict(self, job_id: str) -> None:
        del self._jobs[job_id], self._finished[job_id]

    def _finish(self, job: _Job) -> None:
        """Record ``job`` (status already final) as finished and wake its waiters."""
        with self._lock:
            job.finished = self._finish_count
            self._finish_count += 1
            self._finished[job.job_id] = job
            if job.delivered:  # a fetch can answer once the status is final
                heapq.heappush(self._delivered, (job.finished, job.job_id))
        job.done_event.set()

    def _deliver(self, job: _Job, reply: dict) -> dict:
        """Mark ``job`` delivered (``reply`` carries its outcome) and return ``reply``."""
        with self._lock:
            if not job.delivered:
                job.delivered = True
                # a job not recorded yet is pushed by _finish; an evicted one is gone
                if job.job_id in self._finished:
                    heapq.heappush(self._delivered, (job.finished, job.job_id))
        return reply

    def _run_job(self, job: _Job, circuit_text: str, observable, mode: dict) -> None:
        job.status = "running"
        try:
            circuit = qasm.parse(circuit_text)
            psum = observable_from_json(observable)
            if psum.num_qubits is not None and psum.num_qubits != circuit.n_qubits:
                raise ProtocolError(
                    f"observable width {psum.num_qubits} does not match circuit "
                    f"width {circuit.n_qubits}"
                )
            state = simsv.simulate(circuit)
            if mode["kind"] == "exact":
                job.result = {"value": simsv.expectation(state, psum)}
            else:
                counts = simsv.sample(state, int(mode["count"]), mode.get("seed"))
                job.result = {"counts": counts}
            job.status = "done"
        except Exception as exc:
            job.error = str(exc)
            job.status = "failed"
        finally:
            self._finish(job)

    def _find_job(self, request: dict) -> _Job | dict:
        """The job ``request`` names, or the error reply to send instead."""
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            return {"ok": False, "error": "job_id must be a string"}
        with self._lock:
            job = self._jobs.get(job_id)
        return {"ok": False, "error": "unknown job"} if job is None else job

    def _op_poll(self, request: dict) -> dict:
        job = self._find_job(request)
        if isinstance(job, dict):
            return job
        reply = {"ok": True, "status": job.status}
        if job.error is not None:
            reply["error"] = job.error
        return reply

    def _op_fetch(self, request: dict) -> dict:
        job = self._find_job(request)
        if isinstance(job, dict):
            return job
        if job.status == "failed":
            return self._deliver(job, {"ok": False, "error": job.error or "job failed"})
        if job.status != "done":
            return {"ok": False, "error": "job not done"}
        return self._deliver(job, {"ok": True, "result": job.result})

    def _op_wait(self, request: dict) -> dict:
        job = self._find_job(request)
        if isinstance(job, dict):
            return job
        timeout = request.get("timeout")
        if (isinstance(timeout, bool) or not isinstance(timeout, (int, float))
                or not 0 <= timeout < math.inf):
            return {"ok": False, "error": "wait needs a finite number timeout >= 0"}
        job.done_event.wait(min(timeout, threading.TIMEOUT_MAX))
        if job.status == "failed":
            return self._deliver(job, {"ok": False, "error": job.error or "job failed"})
        if job.status == "done":
            return self._deliver(job, {"ok": True, "status": "done", "result": job.result})
        return {"ok": True, "status": job.status}


def serve(host: str = "127.0.0.1", port: int = 0, workers: int = 2) -> DispatchServer:
    """Start a dispatch server; returns the running server object."""
    return DispatchServer(host, port, workers=workers).start()
