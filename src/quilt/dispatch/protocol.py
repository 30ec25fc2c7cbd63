"""Wire protocol: newline-delimited JSON over TCP, one request per line.

Requests are objects with an ``op`` field:

* ``{"op": "submit", "circuit": <qasm text>, "observable": {"terms":
  [[coeff, "ZZ.."], ...]}, "mode": {"kind": "exact"} | {"kind": "shots",
  "count": N, "seed": S}}`` -> ``{"ok": true, "job_id": "..."}``
* ``{"op": "poll", "job_id": id}`` -> ``{"ok": true, "status": "queued" |
  "running" | "done" | "failed", ["error": text]}``
* ``{"op": "fetch", "job_id": id}`` -> ``{"ok": true, "result": {"value":
  x} | {"counts": {...}}}``
* ``{"op": "wait", "job_id": id, "timeout": s}`` blocks until the job
  finishes or ``s`` seconds (a finite number >= 0) pass.  A done job gives
  ``{"ok": true, "status": "done", "result": ...}`` with the ``result`` that
  ``fetch`` returns, a failed job the error reply ``fetch`` gives, and a
  timeout ``{"ok": true, "status": "queued" | "running"}``.  Only the
  waiting connection blocks; ``"timeout": 0`` answers at once, like ``poll``.
* ``{"op": "shutdown"}`` -> ``{"ok": true}`` and the server drains its
  queue and stops.

Every failure is an ``{"ok": false, "error": text}`` reply; malformed
lines never terminate the connection.
"""

from __future__ import annotations

import json
from typing import Any

from ..circuit import PauliSum

DEFAULT_ADDRESS_ENV = "QUILT_ADDR"


class ProtocolError(ValueError):
    pass


def observable_to_json(psum: PauliSum) -> dict:
    return {"terms": [[coeff, string.ops] for coeff, string in psum.terms]}


def observable_from_json(data: Any) -> PauliSum:
    if not isinstance(data, dict) or "terms" not in data:
        raise ProtocolError('observable must be {"terms": [[coeff, string], ...]}')
    terms = data["terms"]
    if not isinstance(terms, list):
        raise ProtocolError("observable terms must be a list")
    pairs = []
    for entry in terms:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], (int, float))
            or not isinstance(entry[1], str)
        ):
            raise ProtocolError(f"bad observable term {entry!r}")
        pairs.append((float(entry[0]), entry[1]))
    try:
        return PauliSum(pairs)
    except ValueError as exc:
        raise ProtocolError(str(exc))


def encode_line(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed request line: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    return obj


def parse_address(text: str) -> tuple[str, int]:
    """Split "host:port" (the host may be empty for localhost)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ProtocolError(f"address {text!r} must look like host:port")
    try:
        port_num = int(port)
    except ValueError:
        raise ProtocolError(f"bad port in address {text!r}")
    return host or "127.0.0.1", port_num
