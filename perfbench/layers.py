"""The traced run (``--trace 1``): per-layer metrics of one campaign's grid.

For the scenario seeds a timed run with the same ``--seed`` uses, it
makes:

1. the workload's own campaign, untraced -- the ``sweep.*`` and
   ``serve.*`` figures come from the records it returns;
2. the grid serial in-process onto a fresh store, untraced -- the base
   of ``trace.overhead``;
3. the same as 2 under the :class:`~tracer.Tracer` -- every layer's self
   time, the call counts and the spans;
4. on ``serve_store`` only, the serve campaign again with its store calls
   traced in the coordinator and, through ``serve_hook.py``, in every
   worker -- lease grants, attempts and the serve path's store calls.

The simulator runs in-process in 3, so no layer's work is lost in a pool
or serve worker.  Counts that must repeat exactly are compared with the
previous traced run of the same workload and seed in this checkout.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import time
from pathlib import Path
from types import SimpleNamespace

import workloads as wl
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent

#: Counts that depend only on the inputs: two traced runs of one seed must
#: report them identically.
EXACT = (
    "kernel.events", "channel.tx", "channel.rx_decided", "channel.collisions",
    "channel.captures", "mac.frames_dispatched", "mac.nav_sets", "mac.contention_phases",
    "protocols.batch_rounds", "protocols.rak_polls", "protocols.retries",
    "geometry.cover_set_calls", "geometry.cover_angle_calls",
)
#: Store call counts are exact too, except where serve workers poll.
EXACT_STORE = ("store.read_calls", "store.write_calls")


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def serial_with_store(w, seeds, path: Path):
    """The grid serial in-process onto a fresh store."""
    from repro import sweep

    return sweep(wl.scenario(seeds), wl.points(w.grid), processes=1, store=str(path))


def hooked_serve(w, seeds, work: Path):
    """The serve campaign with every store call traced, workers included."""
    service = importlib.import_module("repro.serve.service")
    hook_outs: list[Path] = []

    def popen(cmd, **kwargs):
        # cmd is [python, "-m", "repro", "work", ...]: run the same worker
        # command line through the hook.
        out = work / f"hook{len(hook_outs)}.json"
        hook_outs.append(out)
        return subprocess.Popen([cmd[0], str(HERE / "serve_hook.py"), str(out), *cmd[3:]],
                                **kwargs)

    tracer = Tracer()
    tracer.install_store()
    service.subprocess = SimpleNamespace(
        Popen=popen, DEVNULL=subprocess.DEVNULL, STDOUT=subprocess.STDOUT,
        TimeoutExpired=subprocess.TimeoutExpired,
    )
    try:
        camp = tracer.run(wl.run_serve, w.grid, seeds, work / "hooked.sqlite",
                          wl.serve_workers())
    finally:
        service.subprocess = subprocess
        tracer.uninstall()
    camp.digests = wl.result_digests(camp.result)
    store = tracer.store_totals()
    leases = {"grants": 0, "cells": 0, "attempts": 0}
    for out in hook_outs:
        data = json.loads(out.read_text())
        for key, value in data["store"].items():
            store[key] += value
        for key, value in data["leases"].items():
            leases[key] += value
    return camp, store, leases


def sweep_metrics(rec) -> dict[str, float]:
    """``sweep.*`` and the general ``serve.*`` times from an untraced campaign."""
    res = rec.result
    dispatch = res.timings.get("dispatch", 0.0)
    busy = sum(end - start for start, end, _ in rec.cells.values())
    last_by_worker: dict[int, float] = {}
    for _, end, worker in rec.cells.values():
        last_by_worker[worker] = max(end, last_by_worker.get(worker, 0.0))
    last_end = rec.last_commit or max(last_by_worker.values())
    return {
        "sweep.dispatch_s": dispatch,
        "sweep.merge_s": res.wall_clock_s - dispatch - res.timings.get("store", 0.0),
        "sweep.worker_busy_ratio": ratio(busy, res.processes * dispatch),
        "sweep.idle_tail_s": rec.t_end - min(last_by_worker.values()),
        "serve.spawn_s": rec.setup_s,
        "serve.collect_lag_s": rec.t_end - last_end,
    }


def compare_counts(name: str, counts: dict[str, int]) -> str:
    """Compare exact counts with the previous traced run of *name*."""
    path = wl.WORK / "counts" / f"{name}.json"
    previous = json.loads(path.read_text()) if path.is_file() else None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    if previous is None:
        return "first traced run of these inputs here; counts saved for the next"
    differ = sorted(k for k in counts if previous.get(k) != counts[k])
    if differ:
        return "DIFFER from the previous traced run: " + ", ".join(
            f"{k} {previous.get(k)} -> {counts[k]}" for k in differ)
    return f"all {len(counts)} repeat the previous traced run exactly"


def traced_run(w, seed: int) -> dict:
    seeds = w.seed_set(seed)
    real = wl.execute(w, seeds, 0, min_campaigns=1)
    rec = real.campaigns[0]
    if rec.error is not None:
        raise SystemExit("perfbench: the untraced campaign failed")
    work = wl.fresh_dir(f"{w.name}-trace")
    try:
        t0 = time.perf_counter()
        base = serial_with_store(w, seeds, work / "base.sqlite")
        base_s = time.perf_counter() - t0
        tracer = Tracer()
        tracer.install()
        try:
            traced = tracer.run(serial_with_store, w, seeds, work / "traced.sqlite")
        finally:
            tracer.uninstall()
        hooked = hooked_serve(w, seeds, work) if w.name == "serve_store" else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tracer.write(wl.WORK / "trace" / f"{w.name}-seed{seed}.jsonl")

    checked = real.campaigns + real.replays
    checked += [wl.Campaign(seeds=seeds, t_call=0.0, digests=wl.result_digests(r))
                for r in (base, traced)]
    if hooked is not None:
        checked.append(hooked[0])
    attempted, failed, notes = wl.check_outputs(checked, w.grid)

    counters: dict[str, int] = {}
    for cell in traced.cells.values():
        for m in cell.metrics:
            for key, n in m.counters.items():
                counters[key] = counters.get(key, 0) + n
    sent = sum(n for k, n in counters.items() if k.startswith("frames_sent."))
    delivered = sum(n for k, n in counters.items() if k.startswith("frames_delivered."))
    calls, self_s = tracer.calls, tracer.self_s
    store = hooked[1] if hooked is not None else tracer.store_totals()
    leases = hooked[2] if hooked is not None else {"grants": 0, "cells": 0, "attempts": 0}
    m: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "kernel.events": calls["kernel.events"],
        "kernel.events_per_tx": ratio(calls["kernel.events"], sent),
        "channel.tx": sent,
        "channel.rx_decided": calls["channel.rx_decided"],
        "channel.fanout": ratio(calls["channel.rx_decided"], sent),
        # Captured frames are delivered but not clean.
        "channel.clean_ratio": ratio(delivered - counters.get("captures", 0),
                                     calls["channel.rx_decided"]),
        "channel.collisions": counters.get("collisions", 0),
        "channel.captures": counters.get("captures", 0),
        "mac.frames_dispatched": calls["mac.on_frame"],
        "mac.nav_sets": calls["mac.nav_set"],
        "mac.contention_phases": counters.get("contention_phases", 0),
        "protocols.batch_rounds": counters.get("batch_rounds", 0),
        "protocols.rak_polls": counters.get("rak_polls", 0),
        "protocols.retries": counters.get("retries", 0),
        "geometry.cover_set_calls": calls["geometry.cover_set"],
        "geometry.cover_angle_calls": calls["geometry.cover_angle"],
        "geometry.update_shrink_ratio": ratio(counters.get("lamm.update_shrinks", 0),
                                              counters.get("lamm.updates", 0)),
        "workload.world_s": tracer.incl["workload.world"],
        "workload.inject_s": traced.timings.get("inject", 0.0),
        "workload.cache_hit_rate": ratio(rec.result.cache_hits,
                                         rec.result.cache_hits + rec.result.cache_misses),
        # Computed, not measured: one float64 Bernoulli draw per node and
        # slot for every world built (one per point and seed).
        "workload.schedule_draw_bytes": sum(8 * st.n_nodes * st.horizon
                                            for st in wl.points(w.grid)) * len(seeds),
        "store.read_calls": store["read_calls"],
        "store.write_calls": store["write_calls"],
        "store.read_s": store["read_s"],
        "store.write_s": store["write_s"],
        # Cells a replay of the campaign's store served (serve_store only).
        "store.hit_rate": ratio(sum(c.result.store_hits for c in real.replays),
                                sum(c.result.n_jobs for c in real.replays)),
        "serve.lease_grants": leases["grants"],
        "serve.cells_per_grant": ratio(leases["cells"], leases["grants"]),
        "serve.attempts_per_cell": ratio(leases["attempts"], leases["cells"]),
        "trace.wall_s": tracer.wall_s,
        "trace.overhead": tracer.wall_s / base_s,
    })
    m.update(sweep_metrics(rec))

    exact = {k: m[k] for k in EXACT}
    if hooked is None:
        exact.update({k: m[k] for k in EXACT_STORE})
    verdict = compare_counts(f"{w.name}-seed{seed}", exact)

    split = sum(self_s.values())
    phases = sum(v for k, v in rec.result.timings.items() if k in ("build", "inject", "simulate"))
    host = sum(end - start for start, end, _ in rec.cells.values())
    print(f"workload {w.name}  seed {seed}  traced grid of {len(seeds)} seeds")
    print(f"  layer self times + other = {split:.6f} s; traced wall clock = {tracer.wall_s:.6f} s; "
          f"untraced {base_s:.6f} s")
    for layer in LAYERS:
        print(f"    {layer:10s} {self_s[layer]:10.4f} s  {ratio(self_s[layer], split):6.1%}")
    print(f"  phase accounting: JobResult build+inject+simulate cover {phases:.4f} s of "
          f"{host:.4f} s cell host time ({rec.result.timings.get('dispatch', 0.0):.4f} s "
          f"dispatch); world builds timed from outside: {m['workload.world_s']:.4f} s traced")
    print(f"  exact counts: {verdict}")
    for note in notes:
        print(f"  check: {note}")
    units = {k: ("s" if k.endswith("_s") else "ratio" if isinstance(v, float) else "count")
             for k, v in m.items()}
    units["workload.schedule_draw_bytes"] = "bytes"
    units["trace.overhead"] = "x"
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in m.items()},
    }
