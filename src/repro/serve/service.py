"""The campaign coordinator: plan, enqueue, collect, merge -- bit-identical.

:class:`ServeBackend` is a :class:`~repro.experiments.sweep.DispatchBackend`,
so a distributed campaign goes through the *same* :func:`sweep` as a
pooled one: same planning (``plan_jobs``), same store scan (committed
cells are never recomputed -- that is the killed-coordinator resume
story), same telemetry, same planned-job-order merge.  The backend only
changes *how the pending jobs execute*: it pickles each
:class:`~repro.experiments.sweep.SweepJob` into the store's lease queue,
then polls -- reclaiming expired leases, folding worker telemetry
streams into the campaign stream, and collecting committed results --
until every pending cell is in.

Because workers commit through
:meth:`~repro.store.db.ResultStore.complete_cells` (result + lease
transition in one transaction) and the merge walks planned-job order,
the merged metrics, counters and manifests of a distributed run are
bit-identical to a serial ``sweep`` on the same scenario, whatever
the interleaving of workers, kills and reclamations (pinned by
``tests/serve/`` and the CI ``serve-smoke`` job).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.experiments.sweep import (
    DispatchBackend,
    DispatchContext,
    SweepResult,
    sweep,
)
from repro.obs.telemetry import load_telemetry
from repro.serve.worker import DEFAULT_LEASE_TTL
from repro.store.db import StoreError

__all__ = ["ServeBackend", "serve_campaign", "worker_stream_dir"]


def worker_stream_dir(store_path: str | Path) -> Path:
    """Where workers drop their telemetry streams: ``<store>.workers/``.

    A *convention*, not configuration: workers and coordinator derive it
    from the one thing they already share (the store path), so folding
    needs no extra plumbing.
    """
    return Path(f"{store_path}.workers")


@dataclass
class ServeBackend(DispatchBackend):
    """Dispatch pending cells through the store's lease queue.

    Plug into :func:`~repro.experiments.sweep.sweep` (or use the
    :func:`serve_campaign` wrapper).  Requires ``store=``; workers attach
    by pointing ``repro-mac work`` at the same store path and campaign
    name.  ``spawn_workers=N`` additionally launches N local worker
    processes for single-host distributed runs (and the CI smoke job).

    *wait_timeout* bounds how long the coordinator tolerates **zero
    progress** (no newly committed cell); ``None`` waits forever --
    appropriate for a daemon whose workers come and go.
    """

    campaign: str | None = None
    lease_ttl: float = DEFAULT_LEASE_TTL
    poll_s: float = 0.5
    spawn_workers: int = 0
    wait_timeout: float | None = None
    worker_dir: str | Path | None = None
    #: Filled in by :meth:`run` for the caller's reporting.
    workers_seen: int = field(default=0, init=False)
    reclaimed: int = field(default=0, init=False)
    _folded: dict[str, int] = field(default_factory=dict, init=False, repr=False)

    remote_commits = True

    def run(self, pending, record, ctx: DispatchContext) -> tuple[int, int]:
        store = ctx.store
        if store is None:
            raise ValueError("ServeBackend needs sweep(..., store=...): the "
                             "store is the coordination substrate")
        campaign = self.campaign or ctx.campaign
        fingerprint = ctx.fingerprint

        store.enqueue_jobs(
            campaign,
            (
                (i, ctx.point_digests[job.point], job.protocol, job.seed, job)
                for i, job in enumerate(pending)
            ),
            fingerprint,
        )

        worker_dir: Path | None = None
        if self.worker_dir is not None:
            worker_dir = Path(self.worker_dir)
        elif store.path != ":memory:":
            worker_dir = worker_stream_dir(store.path)

        procs: list[subprocess.Popen] = []
        logs = []
        try:
            for i in range(self.spawn_workers):
                proc, log = self._spawn(store.path, campaign, worker_dir, i)
                procs.append(proc)
                if log is not None:
                    logs.append(log)
            self._collect(pending, record, ctx, campaign, worker_dir, procs)
        finally:
            self._reap(procs)
            for log in logs:
                log.close()

        self.workers_seen = len(store.queue_workers(campaign)) or len(procs)
        store.clear_campaign(campaign)
        # chunksize is worker-chosen here; report the cell width the
        # queue's backpressure chunking aligns to.
        return max(self.workers_seen, 1), len(ctx.protocols)

    # -- internals ---------------------------------------------------------

    def _spawn(
        self, store_path: str, campaign: str, worker_dir: Path | None, index: int
    ):
        """Launch one local ``repro-mac work`` process."""
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "work",
            "--store",
            store_path,
            "--campaign",
            campaign,
            "--lease-ttl",
            str(self.lease_ttl),
            "--poll",
            str(min(self.poll_s, 0.5)),
        ]
        if worker_dir is not None:
            cmd += ["--telemetry-dir", str(worker_dir)]
            worker_dir.mkdir(parents=True, exist_ok=True)
            log = (worker_dir / f"{campaign}.spawn{index}.log").open("w")
            stdout = log
        else:
            log = None
            stdout = subprocess.DEVNULL
        proc = subprocess.Popen(
            cmd, stdout=stdout, stderr=subprocess.STDOUT, env=dict(os.environ)
        )
        return proc, log

    def _collect(
        self, pending, record, ctx: DispatchContext, campaign, worker_dir, procs
    ) -> None:
        store = ctx.store
        remaining = {
            (ctx.point_digests[job.point], job.protocol, job.seed)
            for job in pending
        }
        last_change = time.monotonic()
        while remaining:
            n = store.reclaim_expired(campaign)
            if n:
                self.reclaimed += n
                if ctx.telemetry is not None:
                    ctx.telemetry.event("lease.reclaimed", n=n, campaign=campaign)
            progressed = False
            for _ji, digest, protocol, seed in store.done_cells(campaign, ctx.fingerprint):
                key = (digest, protocol, seed)
                if key not in remaining:
                    continue
                res = store.get(digest, protocol, seed, ctx.fingerprint)
                if res is None:  # pragma: no cover - done implies stored
                    continue
                record(res)
                remaining.discard(key)
                progressed = True
            self._fold_streams(ctx, campaign, worker_dir)
            if not remaining:
                break
            now = time.monotonic()
            if progressed:
                last_change = now
            elif (
                self.wait_timeout is not None
                and now - last_change > self.wait_timeout
            ):
                counts = store.queue_counts(campaign)
                raise StoreError(
                    f"campaign {campaign!r} stalled: no cell committed for "
                    f"{self.wait_timeout:.0f}s with {len(remaining)} cells "
                    f"outstanding (queue: {counts}); are any workers running "
                    f"against {store.path}?"
                )
            time.sleep(self.poll_s)

    def _fold_streams(self, ctx: DispatchContext, campaign: str, worker_dir) -> None:
        """Tail every worker stream and fold new records into the
        campaign stream (heartbeats, commit spans -- not metas/ends)."""
        if ctx.telemetry is None or worker_dir is None:
            return
        worker_dir = Path(worker_dir)
        if not worker_dir.is_dir():
            return
        for path in sorted(worker_dir.glob(f"{campaign}.*.jsonl")):
            try:
                stream = load_telemetry(path)
            except ValueError:
                continue  # malformed beyond a truncated tail: skip this poll
            consumed = self._folded.get(path.name, 0)
            for rec in stream.records[consumed:]:
                ctx.telemetry.fold(rec)
            self._folded[path.name] = len(stream.records)

    def _reap(self, procs: list[subprocess.Popen]) -> None:
        """Collect spawned workers; they exit on their own once the
        campaign completes (or its queue is cleared)."""
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()


def serve_campaign(
    scenario,
    points: Sequence | None = None,
    *,
    store,
    campaign: str = "serve",
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_s: float = 0.5,
    spawn_workers: int = 0,
    wait_timeout: float | None = None,
    worker_dir: str | Path | None = None,
    telemetry=None,
    profile: bool = False,
) -> SweepResult:
    """Coordinate a distributed campaign; returns the merged SweepResult.

    ``serve_campaign(Scenario(...), points, store=path)`` is
    :func:`~repro.experiments.sweep.sweep` with a
    :class:`ServeBackend`: already-committed cells are served from the
    store (killed-coordinator resume), the rest are enqueued for workers
    (``repro-mac work`` against the same store/campaign, or
    ``spawn_workers=N`` local ones), and the merge is bit-identical to a
    serial run.  *telemetry* works exactly as in ``sweep``, with
    worker heartbeat streams folded in.
    """
    backend = ServeBackend(
        campaign=campaign,
        lease_ttl=lease_ttl,
        poll_s=poll_s,
        spawn_workers=spawn_workers,
        wait_timeout=wait_timeout,
        worker_dir=worker_dir,
    )
    result = sweep(
        scenario,
        points,
        store=store,
        telemetry=telemetry,
        profile=profile,
        campaign=campaign,
        backend=backend,
    )
    return result
