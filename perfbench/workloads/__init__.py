"""The five benchmark workloads.

Each module defines a ``Workload`` class built from ``(seed, tiny)``.
Building it is the set-up: it draws one *round* of operation inputs from
the seed (and, for ``dispatch``, starts the server and computes dense
references).  Every run repeats whole rounds, so each run has the same mix
of operations.

A workload provides:

* ``round``: list of ``(class_label, op_input)``;
* ``tail_pct``: the latency percentile reported as ``latency_tail_s``;
* ``run(op_input)``: the timed operation, calling quilt's public API;
* ``check(op_input, output)``: raises ``CheckError`` on a wrong output;
* ``warm_up()``: one small fixed operation, run and checked before timing;
* ``close()``: releases what set-up started, returns the server's figures
  (``dispatch`` only) or ``{}``.
"""

from __future__ import annotations

import importlib

NAMES = ("qaoa", "knit", "hhl", "dispatch", "sched")


def rng_for(seed: int, tag: str):
    """Independent numpy stream per (benchmark seed, workload)."""
    import numpy as np  # not at import time: run.py reads NAMES only

    return np.random.default_rng([seed, int.from_bytes(tag.encode(), "little")])


def load(name: str):
    """The ``Workload`` class of one workload (imports quilt)."""
    if name not in NAMES:
        raise KeyError(name)
    return importlib.import_module(f"workloads.{name}").Workload
