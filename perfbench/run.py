"""Campaign benchmark of the repro simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  ``--trace 0`` times whole campaigns of
one workload with nothing traced and prints the end-to-end metrics;
``--trace 1`` runs the workload's grid again under the layer tracer and
prints the per-layer metrics.  Either way every cell's output is checked
against the reference digests in ``perfbench/reference/``, and the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": <cells>, "failed": <cells>, "metrics": {...}}

See ``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run, at least, for the import share of
#: ``setup_s``: one after every campaign, topped up to this many.
IMPORT_SAMPLES = 5


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` only, here and in
    every process the campaigns start."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def import_seconds(module: str) -> float:
    """Process start to ``import repro`` (plus *module*) done, in a fresh
    interpreter: the part of set-up every campaign process pays."""
    code = f"import time, repro, {module}; print(repr(time.time()))"
    t0 = time.time()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT, timeout=60)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# --------------------------------------------------------------------------
# End-to-end metrics (--trace 0)
# --------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile of the cell times with at least ten cells
    above it, but no higher than p95, and its label; the maximum when
    there are too few cells for that.

    The cap keeps the figure on the slow cells of the grid: above p95 of
    serve_store's cells sit only its workers' first (cold) cells.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], f"maximum of {n} cells"
    k = min(n - 11, int(0.95 * (n - 1)))
    return ordered[k], f"p{100.0 * k / (n - 1):.1f} of {n} cells"


def simulated(camps, grid: str) -> tuple[float, float]:
    """(slots, simulate-phase seconds) over the computed cells of *camps*."""
    import workloads as wl

    horizons = [st.horizon for st in wl.points(grid)]
    slots = seconds = 0.0
    for camp in camps:
        for span in camp.result.spans:
            if span["phase"] == "simulate":
                slots += horizons[int(span["cell"].split(":")[0][1:])]
                seconds += span["dur_s"]
    return slots, seconds


def timed_run(w, seed: int, seconds: int) -> dict:
    """Campaigns of *w* back to back for *seconds*; the end-to-end metrics.

    The host's speed drifts by tens of percent within seconds, so
    ``campaign_s`` is the mean over the run's campaigns, which moves
    smoothly with the share of the run spent slow; a median over a few
    campaigns would jump between the fast and the slow speed.  The cell
    percentiles are taken over every cell the run computed.
    """
    import workloads as wl

    module = "repro.serve" if w.name == "serve_store" else "repro.experiments.sweep"
    imports: list[float] = []
    #: Peak RSS as of the end of the first campaign: what one campaign from
    #: a fresh process needs.  Later campaigns leave the heap a little more
    #: fragmented each, so the peak of the whole run would grow with the
    #: number of campaigns, that is with the host's speed.
    rss: list[float] = []

    def between():
        if not rss:
            rss.append(peak_rss_mb())
        imports.append(import_seconds(module))

    run = wl.execute(w, w.seed_set(seed), seconds, between=between)
    while len(imports) < IMPORT_SAMPLES:
        imports.append(import_seconds(module))
    done = [c for c in run.campaigns if c.error is None]
    if not done:
        raise SystemExit("perfbench: every campaign failed")
    cells = [end - start for c in done for start, end, _ in c.cells.values()]
    slots, sim_s = simulated(done, w.grid)
    tail_s, tail_label = tail(cells)
    metrics = {
        "campaign_s": (statistics.fmean(c.wall_s for c in done), "s"),
        "simulate_slots_per_s": (slots / sim_s, "slots/s"),
        "cell_p50_s": (statistics.median(cells), "s"),
        "cell_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(imports)
                    + statistics.median(c.setup_s for c in done), "s"),
        "peak_rss_mb": (rss[0], "MB"),
    }
    checked = run.campaigns + run.replays
    attempted, failed, notes = wl.check_outputs(checked, w.grid)
    print(f"workload {w.name}  seed {seed}  campaigns {len(run.campaigns)}  "
          f"computed cells {len(cells)}")
    print("  campaign walls " + " ".join(f"{c.wall_s:.3f}" for c in done) + " s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:22s} {value:14.6g} {unit}")
    print(f"  {'cell_error_rate':22s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} cells failed)")
    print(f"  cell_tail_s is the {tail_label}; "
          f"setup_s = import {statistics.median(imports):.4f} s (median of {len(imports)}) "
          "+ campaign set-up")
    for note in notes:
        print(f"  check: {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_source()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    if args.trace:
        import layers

        out = layers.traced_run(w, args.seed)
    else:
        out = timed_run(w, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
