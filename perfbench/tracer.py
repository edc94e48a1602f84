"""Layer tracing from outside the program: wrappers on each layer's entry points.

A :class:`Tracer` patches the entry points of the simulator, workload and
store layers (the layer map in ``README.md``), times every call with a stack so each
layer's *self* time is its calls' duration minus the calls nested inside
them, and counts calls.  Everything the traced campaign does outside a
wrapped call is ``other``, so the layer self times plus ``other`` sum to
the traced wall clock.

Per-frame entry points (reception, NAV, generator steps) are aggregated as
they happen; coarse ones (cells, world builds, simulate, store calls) also
keep a span ``(name, start, end, parent, cell)`` in memory, written out by
:meth:`Tracer.write` when the run ends.  The tracer is single-threaded: it
sees only calls made in its own process.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

LAYERS = ("kernel", "channel", "mac", "protocols", "geometry", "workload", "store", "other")

#: ResultStore methods by kind; ``__init__`` (open + migrate) is neither.
STORE_READS = ("get", "contains", "keys", "done_cells", "queue_counts", "queue_workers",
               "campaigns", "stats")
STORE_WRITES = ("put", "put_many", "enqueue_jobs", "lease_cells", "renew_leases",
                "release_leases", "reclaim_expired", "complete_cells", "clear_campaign",
                "prune", "vacuum")

#: Source directory -> layer, for classifying a process's generator step by
#: the innermost generator it resumes.
_GENERATOR_LAYERS = (
    ("/repro/mac/", "mac"),
    ("/repro/core/", "protocols"),
    ("/repro/protocols/", "protocols"),
    ("/repro/workload/", "workload"),
    ("/repro/sim/", "kernel"),
)


def _generator_layer(filename: str) -> str:
    for part, layer in _GENERATOR_LAYERS:
        if part in filename:
            return layer
    return "other"


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: entry point -> calls / inclusive seconds.
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        #: Kept spans: [name, start, end, parent index, cell].
        self.spans: list[list] = []
        self.cell: str | None = None
        self._stack = [[0.0]]
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wall_s = 0.0

    # -- wrappers ----------------------------------------------------------

    def _timed(self, layer: str, name: str, fn, keep: bool = False):
        stack, self_s, calls, incl = self._stack, self.self_s, self.calls, self.incl
        calls.setdefault(name, 0)
        incl.setdefault(name, 0.0)
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if keep:
                idx = len(tracer.spans)
                parent = tracer._open[-1] if tracer._open else None
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.cell])
                tracer._open.append(idx)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                self_s[layer] += d - frame[0]
                stack[-1][0] += d
                calls[name] += 1
                incl[name] += d
                if keep:
                    tracer._open.pop()
                    tracer.spans[idx][1:3] = [t0, t1]

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _resume(self, fn):
        """``Process._resume``: a MAC, protocol or workload generator step."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        perf = time.perf_counter
        layers: dict[str, str] = {}
        calls.setdefault("kernel.resume", 0)

        def wrapper(proc, event):
            gen = proc._generator
            sub = getattr(gen, "gi_yieldfrom", None)
            while sub is not None and hasattr(sub, "gi_yieldfrom"):
                gen, sub = sub, sub.gi_yieldfrom
            filename = gen.gi_code.co_filename
            layer = layers.get(filename)
            if layer is None:
                layer = layers[filename] = _generator_layer(filename)
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(proc, event)
            finally:
                d = perf() - t0
                stack.pop()
                self_s[layer] += d - frame[0]
                stack[-1][0] += d
                calls["kernel.resume"] += 1

        return wrapper

    def _cell(self, fn):
        """``run_job``: names the cell the spans inside it belong to."""
        timed = self._timed("other", "cell", fn, keep=True)
        tracer = self

        def wrapper(job, cache=None):
            tracer.cell = f"p{job.point}:{job.protocol}:s{job.seed}"
            try:
                return timed(job, cache)
            finally:
                tracer.cell = None

        return wrapper

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    # -- installation ------------------------------------------------------

    def install_store(self) -> None:
        from repro.store.db import ResultStore

        self._patch(ResultStore, "__init__",
                    lambda f: self._timed("store", "store.open", f, keep=True))
        for kind, names in (("read", STORE_READS), ("write", STORE_WRITES)):
            for name in names:
                self._patch(ResultStore, name,
                            lambda f, n=f"store.{kind}.{name}": self._timed("store", n, f, keep=True))

    def install(self) -> None:
        """Wrap every layer's entry points (the layer map in README.md)."""
        import repro.core.lamm as lamm
        sweep_mod = importlib.import_module("repro.experiments.sweep")
        import repro.geometry.cover as cover
        import repro.geometry.mcs as mcs
        from repro.mac.base import MacBase
        from repro.mac.beacons import BeaconService
        from repro.mac.nav import Nav
        from repro.sim.channel import Channel
        from repro.sim.kernel import Environment, Event, Process
        from repro.workload.cache import WorldCache
        from repro.workload.generator import TrafficGenerator

        t = self._timed
        self._patch(Environment, "run", lambda f: t("kernel", "kernel.run", f, keep=True))
        self._patch(Event, "_run_callbacks", lambda f: self._counted("kernel.events", f))
        self._patch(Process, "_resume", self._resume)
        self._patch(Channel, "transmit", lambda f: t("channel", "channel.transmit", f))
        self._patch(Channel, "_finish", lambda f: t("channel", "channel.finish", f))
        self._patch(Channel, "_receive_at", lambda f: self._counted("channel.rx_decided", f))
        self._patch(MacBase, "_on_frame", lambda f: t("mac", "mac.on_frame", f))
        self._patch(BeaconService, "_on_frame", lambda f: t("mac", "mac.on_frame", f))
        self._patch(Nav, "set", lambda f: t("mac", "mac.nav_set", f))
        self._patch(lamm, "greedy_cover_set", lambda f: t("geometry", "geometry.cover_set", f))
        self._patch(lamm, "update_uncovered", lambda f: t("geometry", "geometry.update", f))
        self._patch(mcs, "cover_angle", lambda f: self._counted("geometry.cover_angle", f))
        self._patch(cover, "cover_angle", lambda f: self._counted("geometry.cover_angle", f))
        self._patch(WorldCache, "world", lambda f: t("workload", "workload.world", f, keep=True))
        self._patch(TrafficGenerator, "inject", lambda f: t("workload", "workload.inject", f))
        self._patch(sweep_mod, "run_job", self._cell)
        self.install_store()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- running -----------------------------------------------------------

    def run(self, fn, *args, **kwargs):
        """Call *fn* as the traced root; its uncovered time is ``other``."""
        try:
            return self._timed("other", "campaign", fn, keep=True)(*args, **kwargs)
        finally:
            self.wall_s = self.incl["campaign"]

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then the per-layer totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, cell in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "cell": cell}) + "\n")
            fh.write(json.dumps({"self_s": self.self_s, "calls": self.calls,
                                 "incl_s": self.incl, "wall_s": self.wall_s}) + "\n")

    def store_totals(self) -> dict[str, float]:
        out = {"read_calls": 0, "write_calls": 0, "read_s": 0.0, "write_s": 0.0}
        for name, n in self.calls.items():
            for kind in ("read", "write"):
                if name.startswith(f"store.{kind}."):
                    out[f"{kind}_calls"] += n
                    out[f"{kind}_s"] += self.incl[name]
        return out
