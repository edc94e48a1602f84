"""Run a serve worker (``python -m repro work ...``) with its store calls traced.

Usage: ``python3 perfbench/serve_hook.py OUT.json work --store ... ``.  The
traced serve campaign launches its workers through this file instead of
``-m repro``; it wraps the ``ResultStore`` methods, runs the worker's own
command line unchanged and, when the worker exits, writes its store call
counts and times plus the lease grants it received to ``OUT.json``.
"""

import atexit
import json
import runpy
import sys
from pathlib import Path

from tracer import Tracer


def main() -> None:
    out = Path(sys.argv[1])
    sys.argv = ["repro"] + sys.argv[2:]
    from repro.store.db import ResultStore

    tracer = Tracer()
    tracer.install_store()
    grants = {"grants": 0, "cells": 0, "attempts": 0}
    lease_cells = ResultStore.lease_cells

    def counted_lease(self, *args, **kwargs):
        cells = lease_cells(self, *args, **kwargs)
        if cells:
            grants["grants"] += 1
            grants["cells"] += len(cells)
            grants["attempts"] += sum(c.attempts for c in cells)
        return cells

    ResultStore.lease_cells = counted_lease
    atexit.register(
        lambda: out.write_text(json.dumps({"store": tracer.store_totals(), "leases": grants}))
    )
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
