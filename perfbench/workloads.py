"""The benchmark's campaign workloads: inputs from a seed, timed campaigns.

Each workload is a grid of cells -- one cell is one (point, protocol,
seed) simulation, the results store's unit -- run through a public
campaign entry point (``repro.sweep`` or ``repro.serve.serve_campaign``).
A benchmark run draws one set of scenario seeds from its ``--seed`` and
runs campaigns of that grid back to back for ``--seconds``; per campaign
it keeps what its records already say (the merged ``SweepResult``) plus
the host time of every computed cell.

Cell host time runs from ``JobResult.started_at`` (taken by ``run_job``
before the world build) to the moment ``run_job`` returned.  The end is
stamped by a one-line wrapper around ``repro.experiments.sweep.run_job``
that pool workers inherit through ``fork``; serve workers are separate
programs, so their cells end at the commit span each worker writes to its
telemetry stream.  Nothing else is wrapped in a timed run.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Working space for stores, worker streams and trace files (git-ignored).
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference"

#: A timed run makes at least this many campaigns, however long they take.
MIN_CAMPAIGNS = 3


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


def serve_workers() -> int:
    """Workers a serve campaign spawns: the coordinator holds a store
    connection and polls too, so with it at most ``nproc`` processes hold
    work or store connections."""
    return max(1, nproc() - 1)


# --------------------------------------------------------------------------
# Workload definitions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: Names the sweep points and the reference-digest file.
    grid: str
    #: Scenario seeds per campaign.
    seeds_per_campaign: int

    def seed_set(self, seed: int) -> tuple[int, ...]:
        """The scenario seeds every campaign of a run with *seed* uses."""
        rng = random.Random(f"{self.grid}:{seed}")
        return tuple(rng.randrange(1, 2**31) for _ in range(self.seeds_per_campaign))


#: Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_grid", "paper_grid", seeds_per_campaign=16),
        Workload("sparse_longrun", "sparse_longrun", seeds_per_campaign=8),
        Workload("serve_store", "small_grid", seeds_per_campaign=50),
    )
}


def points(grid: str):
    """The sweep points of *grid* (fixed; only the seeds vary with a run)."""
    from repro import SimulationSettings
    from repro.mac.contention import ContentionParams

    base = SimulationSettings()
    if grid == "paper_grid":
        # Table-2 defaults; the horizon is cut from 10k slots so that one
        # campaign of many seeds takes seconds, not minutes.
        return [base.with_(n_nodes=n, horizon=750) for n in (40, 100, 140)]
    if grid == "sparse_longrun":
        cw = ContentionParams(cw_min=1024, cw_max=1024)
        return [base.with_(horizon=200_000, message_rate=2e-5, contention=cw)]
    if grid == "small_grid":
        return [base.with_(n_nodes=20, horizon=2000)]
    raise KeyError(grid)


def scenario(seeds):
    from repro import Scenario

    return Scenario(seeds=seeds)  # the paper's four protocols


# --------------------------------------------------------------------------
# Output digests
# --------------------------------------------------------------------------


def cell_digest(metrics, degree: float) -> str:
    """Digest of one cell's output: every metric, score and counter.

    ``msg_id`` is dropped from the per-message scores: it is drawn from a
    process-wide counter, so it depends on what the process ran before,
    not on the cell.
    """
    payload = dict(vars(metrics))
    for key in ("group_scores", "all_scores"):
        payload[key] = [{k: v for k, v in vars(score).items() if k != "msg_id"}
                        for score in payload[key]]
    blob = json.dumps(
        {"metrics": payload, "degree": degree}, sort_keys=True, default=repr,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def cell_key(seed: int, point: int, protocol: str) -> str:
    return f"{seed}:{point}:{protocol}"


def result_digests(result) -> dict[str, str]:
    """Digest of every cell of a merged ``SweepResult``."""
    out = {}
    for (point, protocol), cell in result.cells.items():
        for seed, metrics, degree in zip(result.seeds, cell.metrics, cell.degrees):
            out[cell_key(seed, point, protocol)] = cell_digest(metrics, degree)
    return out


def load_reference(grid: str) -> dict[str, str]:
    path = REFERENCE / f"{grid}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["cells"]


def serial_digests(grid: str, seeds) -> dict[str, str]:
    """Digests of a serial in-process run of *grid* at *seeds*."""
    from repro import sweep

    return result_digests(sweep(scenario(tuple(seeds)), points(grid), processes=1))


# --------------------------------------------------------------------------
# Output check
# --------------------------------------------------------------------------


def check_outputs(campaigns, grid: str) -> tuple[int, int, list[str]]:
    """Compare every cell of *campaigns* with the reference digests.

    A cell fails if its campaign raised, it is missing from the merged
    result, or its digest differs.  Cells of seeds without a committed
    digest are checked against a serial in-process run made here.
    """
    reference = load_reference(grid)
    n_points = len(points(grid))
    protocols = scenario((0,)).protocols
    attempted = failed = 0
    #: campaign seeds -> {cell key: digest} of cells with no committed digest.
    unreferenced: dict[tuple, dict[str, str]] = {}
    n_unreferenced = 0
    for camp in campaigns:
        got = camp.digests
        for seed in camp.seeds:
            for point in range(n_points):
                for proto in protocols:
                    key = cell_key(seed, point, proto)
                    attempted += 1
                    if key not in got:
                        failed += 1
                    elif key in reference:
                        failed += got[key] != reference[key]
                    else:
                        n_unreferenced += 1
                        seen = unreferenced.setdefault(camp.seeds, {})
                        if seen.setdefault(key, got[key]) != got[key]:
                            failed += 1  # two campaigns of one run disagree
    notes = [f"{attempted - n_unreferenced} cell outputs checked against committed digests"]
    if unreferenced:
        for seeds, got in unreferenced.items():
            serial = serial_digests(grid, seeds)
            failed += sum(serial.get(k) != d for k, d in got.items())
        notes.append(f"{n_unreferenced} against a serial run made now "
                     "(no committed digest for their seeds)")
    return attempted, failed, notes


# --------------------------------------------------------------------------
# Cell end stamps
# --------------------------------------------------------------------------

_MAIN_PID = os.getpid()
#: (point, protocol, seed) -> epoch second run_job returned, for cells run
#: in this process.  Cells run in a forked pool worker carry the stamp on
#: the JobResult they send back instead.
_CELL_ENDS: dict[tuple, float] = {}
_STAMP_ATTR = "perfbench_end"


def install_cell_stamp() -> None:
    sweep_mod = importlib.import_module("repro.experiments.sweep")

    run_job = sweep_mod.run_job
    if getattr(run_job, "perfbench_stamp", False):
        return

    def stamped(job, cache=None):
        res = run_job(job, cache)
        end = time.time()
        if os.getpid() == _MAIN_PID:
            _CELL_ENDS[(job.point, job.protocol, job.seed)] = end
        else:
            setattr(res, _STAMP_ATTR, end)
        return res

    stamped.perfbench_stamp = True
    sweep_mod.run_job = stamped


def _stream_commit_starts(worker_dir: Path) -> dict[str, float]:
    """Serve worker streams: cell label -> epoch second its commit began."""
    starts = {}
    for path in sorted(worker_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("e") == "span" and rec.get("phase") == "commit":
                starts[rec["cell"]] = rec["t0"]
    return starts


# --------------------------------------------------------------------------
# One campaign
# --------------------------------------------------------------------------


@dataclass
class Campaign:
    """What one campaign call produced, as seen from outside."""

    seeds: tuple[int, ...]
    t_call: float
    #: First cell start, or the store being ready for its first read.
    t_first: float = 0.0
    t_end: float = 0.0
    result: object = None
    #: Computed cells: (point, protocol, seed) -> (start, end, worker pid),
    #: times in epoch seconds.
    cells: dict[tuple, tuple[float, float, int]] = field(default_factory=dict)
    #: Epoch second of the last commit (serve only).
    last_commit: float = 0.0
    #: Output digest of every cell of the merged result.
    digests: dict[str, str] = field(default_factory=dict)
    error: str | None = None

    @property
    def wall_s(self) -> float:
        return self.t_end - self.t_call

    @property
    def setup_s(self) -> float:
        return self.t_first - self.t_call


def _collect_cells(camp: Campaign, result, commit_starts=None) -> None:
    """Fill ``camp.cells`` from the fresh JobResults the sweep recorded."""
    camp.result = result
    for span in result.spans:
        if span["phase"] != "build":
            continue
        # The build span starts at JobResult.started_at; the cell label is
        # "p<point>:<protocol>:s<seed>".
        label = span["cell"]
        p, proto, s = label.split(":")
        key = (int(p[1:]), proto, int(s[1:]))
        ends = commit_starts if commit_starts is not None else _CELL_ENDS
        end = ends.get(label if commit_starts is not None else key)
        if end is None:
            raise RuntimeError(f"no end stamp for cell {label}")
        camp.cells[key] = (span["t0"], end, span["worker"])
    if camp.cells:
        camp.t_first = min(start for start, _, _ in camp.cells.values())


def run_pool(grid: str, seeds, processes: int, store=None) -> Campaign:
    """One ``sweep`` campaign through the process pool (or in-process)."""
    from repro import sweep

    sweep_mod = importlib.import_module("repro.experiments.sweep")

    install_cell_stamp()
    _CELL_ENDS.clear()
    ended: dict[tuple, float] = {}
    backend = None
    if processes > 1:
        # Read the end stamps off the results as the pool hands them back.
        class StampReader(sweep_mod.PoolBackend):
            def run(self, pending, record, ctx):
                def read(res):
                    end = res.__dict__.pop(_STAMP_ATTR, None)
                    if end is not None:  # None: the backend ran it in-process
                        ended[(res.point, res.protocol, res.seed)] = end
                    record(res)

                return super().run(pending, read, ctx)

        backend = StampReader(processes=processes)
    camp = Campaign(seeds=tuple(seeds), t_call=time.time())
    result = sweep(scenario(camp.seeds), points(grid), processes=processes, store=store,
                   backend=backend)
    camp.t_end = time.time()
    _CELL_ENDS.update(ended)
    _collect_cells(camp, result)
    return camp


def run_serve(grid: str, seeds, store_path: Path, workers: int) -> Campaign:
    """One ``serve_campaign`` with *workers* spawned workers onto a fresh store."""
    from repro.serve.service import serve_campaign, worker_stream_dir

    camp = Campaign(seeds=tuple(seeds), t_call=time.time())
    result = serve_campaign(
        scenario(camp.seeds), points(grid), store=str(store_path), campaign="bench",
        spawn_workers=workers, wait_timeout=120.0,
    )
    camp.t_end = time.time()
    starts = _stream_commit_starts(worker_stream_dir(store_path))
    camp.last_commit = max(starts.values(), default=camp.t_end)
    _collect_cells(camp, result, commit_starts=starts)
    return camp


def run_replay(grid: str, seeds, store_path: Path) -> Campaign:
    """Replay *grid* from a store a campaign filled: every cell is a hit."""
    from repro import sweep

    camp = Campaign(seeds=tuple(seeds), t_call=time.time())
    camp.result = sweep(scenario(camp.seeds), points(grid), processes=1, store=str(store_path))
    camp.t_end = time.time()
    return camp


def fresh_dir(label: str) -> Path:
    path = WORK / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Run:
    """Every timed campaign of one benchmark run, plus untimed replays."""

    campaigns: list[Campaign]
    #: serve_store: each campaign's store replayed after it, so the warm
    #: path's output is checked too.
    replays: list[Campaign] = field(default_factory=list)


def attempt(seeds, fn, *args) -> Campaign:
    """Run one campaign; an exception fails the campaign, not the run.

    The heap is collected before the campaign and its merged cells are
    reduced to digests after it, so no campaign pays for the garbage or
    the live results of the ones before it.
    """
    gc.collect()
    try:
        camp = fn(*args)
    except Exception as exc:  # every cell of the campaign counts as failed
        traceback.print_exc(file=sys.stderr)
        return Campaign(seeds=tuple(seeds), t_call=0.0, error=repr(exc))
    camp.digests = result_digests(camp.result)
    camp.result.cells.clear()
    return camp


def execute(w: Workload, seeds, seconds: float, min_campaigns: int = MIN_CAMPAIGNS,
            between=None) -> Run:
    """Run campaigns of workload *w* on scenario *seeds* back to back.

    Campaigns start while the run is expected to end within *seconds*
    (judged by the mean time per campaign so far), and at least
    *min_campaigns* of them.  *between*, if given, is called after every
    campaign, outside the campaign's time.
    """
    work = fresh_dir(w.name)
    run = Run([])
    t0 = time.perf_counter()
    try:
        while True:
            i = len(run.campaigns)
            if w.name == "paper_grid":
                run.campaigns.append(attempt(seeds, run_pool, w.grid, seeds, nproc()))
            elif w.name == "sparse_longrun":
                run.campaigns.append(attempt(seeds, run_pool, w.grid, seeds, 1))
            elif w.name == "serve_store":
                store = work / f"c{i}.sqlite"
                run.campaigns.append(attempt(seeds, run_serve, w.grid, seeds, store,
                                             serve_workers()))
                run.replays.append(attempt(seeds, run_replay, w.grid, seeds, store))
            else:
                raise KeyError(w.name)
            if between is not None:
                between()
            n = i + 1
            if n >= min_campaigns and (time.perf_counter() - t0) * (n + 1) / n > seconds:
                return run
    finally:
        shutil.rmtree(work, ignore_errors=True)
