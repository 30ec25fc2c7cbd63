"""Blocking client for the dispatch wire protocol."""

from __future__ import annotations

import os
import socket
import threading
import time

from ..circuit import Circuit, PauliSum
from .. import qasm
from .protocol import (
    DEFAULT_ADDRESS_ENV,
    decode_line,
    encode_line,
    observable_to_json,
    parse_address,
)


class DispatchError(RuntimeError):
    """Error reply from the server or a broken connection."""


class DispatchClient:
    """One TCP connection; requests are serialized per client instance."""

    def __init__(self, host: str | None = None, port: int | None = None,
                 timeout: float = 30.0):
        if host is None or port is None:
            addr = os.environ.get(DEFAULT_ADDRESS_ENV)
            if addr is None:
                raise DispatchError(
                    f"no server address given and {DEFAULT_ADDRESS_ENV} is unset"
                )
            host, port = parse_address(addr)
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "DispatchClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, payload: dict) -> dict:
        try:
            self._sock.sendall(encode_line(payload))
            line = self._file.readline()
        except OSError as exc:
            raise DispatchError(f"connection failed: {exc}")
        if not line:
            raise DispatchError("server closed the connection")
        return decode_line(line)

    def _checked(self, payload: dict) -> dict:
        reply = self._request(payload)
        if not reply.get("ok"):
            raise DispatchError(reply.get("error", "request failed"))
        return reply

    # -- operations -----------------------------------------------------------

    def submit(
        self,
        circuit: Circuit | str,
        observable: PauliSum,
        mode: str = "exact",
        shots: int | None = None,
        seed: int | None = None,
    ) -> str:
        """Queue a job and return its id immediately (non-blocking)."""
        text = qasm.emit(circuit) if isinstance(circuit, Circuit) else circuit
        if mode == "exact":
            mode_obj = {"kind": "exact"}
        elif mode == "shots":
            mode_obj = {"kind": "shots", "count": shots, "seed": seed}
        else:
            raise DispatchError(f"unknown mode {mode!r}")
        reply = self._checked(
            {"op": "submit", "circuit": text,
             "observable": observable_to_json(observable), "mode": mode_obj}
        )
        return reply["job_id"]

    def poll(self, job_id: str) -> dict:
        """Job state: {"status": ..., possibly "error": ...} (idempotent)."""
        reply = self._checked({"op": "poll", "job_id": job_id})
        reply.pop("ok", None)
        return reply

    def fetch(self, job_id: str):
        """Result of a finished job: a float (exact) or counts dict (shots)."""
        reply = self._checked({"op": "fetch", "job_id": job_id})
        return _result_value(reply["result"])

    def wait(self, job_id: str, timeout: float = 30.0):
        """Block until the job finishes and return its result, as :meth:`fetch`.

        Raises on failure or after ``timeout`` seconds.  Each ``wait`` request
        asks the server to block for at most half the socket timeout, so its
        reply always comes back before the socket gives up on it.
        """
        deadline = time.monotonic() + timeout
        sock_timeout = self._sock.gettimeout()
        longest = threading.TIMEOUT_MAX if sock_timeout is None else sock_timeout / 2
        while True:
            step = min(max(0.0, deadline - time.monotonic()), longest)
            reply = self._checked({"op": "wait", "job_id": job_id, "timeout": step})
            if reply["status"] == "done":
                return _result_value(reply["result"])
            if not time.monotonic() < deadline:  # a NaN timeout has expired too
                raise DispatchError(f"timed out waiting for {job_id}")

    def shutdown_server(self) -> None:
        self._checked({"op": "shutdown"})


def _result_value(result: dict):
    return result["value"] if "value" in result else result["counts"]
