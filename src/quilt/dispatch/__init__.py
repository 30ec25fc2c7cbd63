"""Quantum-resource dispatch: a TCP job server/client pair and a
discrete-event scheduler simulator for monolithic-vs-split hybrid jobs.

The client, server and protocol names are imported on first use (PEP 562),
so ``import quilt.dispatch.sched`` does not load the QASM parser, the
simulator's server or the socket code.
"""

import importlib

from .sched import (
    JobBlock,
    Schedule,
    ScheduleError,
    load_workload,
    make_workload,
    schedule,
    schedule_to_csv,
    split_job,
    verify_schedule,
)

_LAZY = {
    "DispatchClient": "client",
    "DispatchError": "client",
    "DispatchServer": "server",
    "serve": "server",
    "DEFAULT_ADDRESS_ENV": "protocol",
    "observable_from_json": "protocol",
    "observable_to_json": "protocol",
    "parse_address": "protocol",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "DEFAULT_ADDRESS_ENV",
    "DispatchClient",
    "DispatchError",
    "DispatchServer",
    "JobBlock",
    "Schedule",
    "ScheduleError",
    "load_workload",
    "make_workload",
    "observable_from_json",
    "observable_to_json",
    "parse_address",
    "schedule",
    "schedule_to_csv",
    "serve",
    "split_job",
    "verify_schedule",
]
