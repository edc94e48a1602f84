"""serve_campaign: distributed runs are bit-identical and kill-proof.

Workers run as in-process threads against the same SQLite file (their
own connections), which exercises the real multi-connection coordination
path without subprocess spawn latency; the spawned-process path is
pinned by the CI ``serve-smoke`` job.
"""

import threading

import pytest

from repro.experiments.sweep import sweep
from repro.serve import serve_campaign, work_campaign
from repro.serve.service import ServeBackend, worker_stream_dir
from repro.store.db import ResultStore, StoreError

from tests.serve.conftest import (
    N_CELLS,
    POINTS,
    SCENARIO,
    assert_bit_identical,
)


@pytest.fixture(scope="module")
def serial():
    """The ground truth: a plain serial sweep of the shared grid."""
    return sweep(SCENARIO, POINTS)


def _spawn_worker(store_path, campaign, results=None, **kwargs):
    """A worker thread; crashes are swallowed (they model kill -9)."""
    kwargs.setdefault("poll_s", 0.02)

    def target():
        try:
            report = work_campaign(str(store_path), campaign, **kwargs)
            if results is not None:
                results.append(report)
        except RuntimeError:
            pass

    t = threading.Thread(target=target, daemon=True)
    t.start()
    return t


class TestBitIdentity:
    def test_distributed_run_matches_serial(self, tmp_path, serial):
        path = tmp_path / "s.sqlite"
        reports = []
        workers = [
            _spawn_worker(path, "c", reports, worker_id=f"w{i}") for i in range(2)
        ]
        result = serve_campaign(
            SCENARIO, POINTS, store=str(path), campaign="c",
            poll_s=0.02, wait_timeout=60.0,
        )
        for t in workers:
            t.join(timeout=30)
            assert not t.is_alive()
        assert_bit_identical(serial, result)
        assert result.store_misses == N_CELLS
        assert sum(r.cells_done for r in reports) == N_CELLS
        # The queue is cleared after the merge; the results remain.
        with ResultStore(path) as store:
            assert store.stats()["queue_rows"] == 0
            assert store.stats()["n_results"] == N_CELLS

    def test_workers_seen_and_manifest_inputs(self, tmp_path):
        path = tmp_path / "s.sqlite"
        _spawn_worker(path, "c", worker_id="only")
        backend = ServeBackend(campaign="c", poll_s=0.02, wait_timeout=60.0)
        result = sweep(
            SCENARIO, POINTS, store=str(path), campaign="c", backend=backend
        )
        assert backend.workers_seen == 1
        assert backend.reclaimed == 0
        assert result.processes == 1


class TestKillWorkerMidLease:
    def test_killed_workers_cells_are_recovered(self, tmp_path, serial):
        """The tentpole robustness pin: kill a worker after one cell,
        let its leases expire, and the survivor (plus reclamation)
        still converges to the bit-identical merge."""
        path = tmp_path / "s.sqlite"
        victim_cells = []

        def die_after_one(cell, res):
            victim_cells.append(cell)
            if len(victim_cells) >= 2:
                raise RuntimeError("kill -9")

        reports = []
        _spawn_worker(
            path, "c", worker_id="victim", on_cell=die_after_one,
            lease_ttl=1.0,
        )
        survivor = _spawn_worker(
            path, "c", reports, worker_id="survivor", lease_ttl=1.0,
        )
        result = serve_campaign(
            SCENARIO, POINTS, store=str(path), campaign="c",
            lease_ttl=1.0, poll_s=0.05, wait_timeout=120.0,
        )
        survivor.join(timeout=60)
        assert_bit_identical(serial, result)
        # The victim committed at least one cell before dying; the rest
        # of its batch came back through expiry -- stolen by the
        # survivor or reclaimed by the coordinator's sweep.
        report = reports[0]
        assert report.cells_done >= 1
        assert report.cells_done + len(victim_cells) >= N_CELLS

    def test_abandoned_campaign_recovers_without_the_victim(self, tmp_path, serial):
        """Even if the kill happens before ANY commit, expiry + a fresh
        worker completes the campaign."""
        path = tmp_path / "s.sqlite"

        def die_immediately(cell, res):
            raise RuntimeError("kill -9")

        _spawn_worker(
            path, "c", worker_id="victim", on_cell=die_immediately, lease_ttl=0.5,
        )
        reports = []
        _spawn_worker(path, "c", reports, worker_id="survivor", lease_ttl=0.5)
        result = serve_campaign(
            SCENARIO, POINTS, store=str(path), campaign="c",
            lease_ttl=0.5, poll_s=0.05, wait_timeout=120.0,
        )
        assert_bit_identical(serial, result)
        assert reports[0].cells_done == N_CELLS
        # Every victim-held cell was granted again: the steal/reclaim
        # bookkeeping saw 2nd attempts.
        assert reports[0].cells_stolen >= 1


class TestKillCoordinator:
    def test_restart_resumes_with_zero_recomputation(self, tmp_path, serial):
        """Cells committed before the coordinator died are store hits on
        restart; nothing recomputes, the merge is still bit-identical."""
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            # A coordinator that died mid-campaign: plan enqueued, a
            # worker committed 3 cells, nobody collected or cleared.
            from tests.serve.conftest import enqueue_plan
            from repro.experiments.sweep import plan_jobs
            from repro.store.digests import code_fingerprint, settings_digest

            jobs = plan_jobs(SCENARIO.protocols, POINTS, SCENARIO.seeds)
            digests = [settings_digest(p, SCENARIO.threshold) for p in POINTS]
            enqueue_plan(store, "c", jobs, digests, code_fingerprint())
            work_campaign(store, "c", worker_id="w", max_cells=3, poll_s=0.01)
            assert store.queue_counts("c")["done"] == 3

        _spawn_worker(path, "c", worker_id="w2")
        result = serve_campaign(
            SCENARIO, POINTS, store=str(path), campaign="c",
            poll_s=0.02, wait_timeout=60.0,
        )
        assert_bit_identical(serial, result)
        # At least the 3 pre-crash cells are hits -- more if w2 (already
        # polling the leftover queue) commits some before the restarted
        # coordinator's store scan reaches them.  Either way nothing is
        # computed twice: hits + misses covers the grid exactly once.
        assert result.store_hits >= 3
        assert result.store_hits + result.store_misses == N_CELLS

    def test_fully_warm_store_needs_no_workers(self, tmp_path, serial):
        """Restart after every cell committed: pure store hits, the
        lease queue never engages."""
        path = tmp_path / "s.sqlite"
        sweep(SCENARIO, POINTS, store=str(path))
        result = serve_campaign(
            SCENARIO, POINTS, store=str(path), campaign="c", wait_timeout=5.0
        )
        assert_bit_identical(serial, result)
        assert result.store_hits == N_CELLS
        assert result.store_misses == 0


class TestBackpressureAndErrors:
    def test_stalled_campaign_raises_with_queue_shape(self, tmp_path):
        with pytest.raises(StoreError, match="stalled"):
            serve_campaign(
                SCENARIO, POINTS, store=str(tmp_path / "s.sqlite"),
                campaign="c", poll_s=0.02, wait_timeout=0.3,
            )

    def test_backend_requires_a_store(self):
        with pytest.raises(ValueError, match="store"):
            sweep(SCENARIO, POINTS, backend=ServeBackend(campaign="c"))

    def test_worker_stream_dir_convention(self, tmp_path):
        assert worker_stream_dir(tmp_path / "s.sqlite").name == "s.sqlite.workers"


class TestServeTelemetry:
    def test_worker_streams_fold_into_campaign_stream(self, tmp_path):
        """The coordinator's stream carries the workers' heartbeats and
        ends campaign-scoped -- `repro-mac watch` sees one campaign."""
        from repro.obs.telemetry import load_telemetry

        path = tmp_path / "s.sqlite"
        wdir = worker_stream_dir(path)
        _spawn_worker(
            path, "c", worker_id="host-7", telemetry_dir=wdir, lease_ttl=5.0
        )
        stream_path = tmp_path / "serve.telemetry.jsonl"
        serve_campaign(
            SCENARIO, POINTS, store=str(path), campaign="c",
            poll_s=0.02, wait_timeout=60.0, telemetry=str(stream_path),
        )
        stream = load_telemetry(stream_path)
        assert stream.completed is True
        beats = [r for r in stream.records if r.get("e") == "worker"]
        assert any(r.get("id") == "host-7" for r in beats)
        ends = [r for r in stream.records if r.get("e") == "end"]
        assert all(r.get("scope", "campaign") == "campaign" for r in ends)
