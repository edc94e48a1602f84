"""Write the reference digests the benchmark checks every cell against.

    python3 perfbench/make_reference.py --grid paper_grid --seeds 0-29

For every benchmark seed in the range, takes the scenario seeds that a
run of each workload on *grid* uses, runs the cells whose digest is
missing serially in-process, and adds their digests to
``perfbench/reference/<grid>.json``.  Run it only at a commit whose
outputs are known good: the file is the benchmark's record of correct
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import _use_checkout_source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--grid", required=True)
    parser.add_argument("--seeds", required=True, help="benchmark seeds, as FIRST-LAST")
    args = parser.parse_args()
    _use_checkout_source()
    import workloads as wl

    first, last = (int(x) for x in args.seeds.split("-"))
    users = [w for w in wl.WORKLOADS.values() if w.grid == args.grid]
    if not users:
        parser.error(f"no workload runs grid {args.grid!r}")
    path = wl.REFERENCE / f"{args.grid}.json"
    cells = json.loads(path.read_text())["cells"] if path.is_file() else {}
    n_points = len(wl.points(args.grid))
    protocols = wl.scenario((0,)).protocols
    todo: list[int] = []
    for seed in range(first, last + 1):
        for w in users:
            todo += [s for s in w.seed_set(seed) if s not in todo and any(
                wl.cell_key(s, p, proto) not in cells
                for p in range(n_points) for proto in protocols)]
    for i in range(0, len(todo), 8):
        cells.update(wl.serial_digests(args.grid, todo[i:i + 8]))
        print(f"{args.grid}: {min(i + 8, len(todo))} of {len(todo)} scenario seeds", flush=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "grid": args.grid,
        "made_by": "serial in-process sweep (processes=1), no store",
        "cells": dict(sorted(cells.items())),
    }, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
