"""Run a quilt ``DispatchServer`` for the ``dispatch`` workload.

    python3 perfbench/dispatch_server.py --trace 0|1

Prints ``{"port": N}`` once the server listens on 127.0.0.1, serves until a
client sends ``shutdown``, then prints one JSON line with the process's
peak resident memory and, with ``--trace 1``, the server-side spans.  It
also stops when its standard input closes, so it cannot outlive the
benchmark process that started it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, install  # noqa: E402

from quilt.dispatch import DispatchServer  # noqa: E402

WORKERS = 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    if tracer:
        install(tracer)
    server = DispatchServer("127.0.0.1", 0, workers=WORKERS).start()
    print(json.dumps({"port": server.address[1]}), flush=True)
    threading.Thread(target=lambda: (sys.stdin.read(), server.stop(drain=False)),
                     daemon=True).start()
    server.wait_until_stopped()
    stats = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        stats["trace"] = tracer.snapshot()
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
