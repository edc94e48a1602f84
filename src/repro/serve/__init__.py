"""The distributed campaign service: multi-host sweeps over the ResultStore.

The sweep engine dispatches a grid through one process pool on one host;
this package promotes the content-addressed results store
(:mod:`repro.store`) from a cache to a **coordination substrate** so a
campaign can span worker processes on any host that can reach the store
file:

* a **coordinator** (:func:`serve_campaign` / ``repro-mac serve``) plans
  the grid exactly like :func:`~repro.experiments.sweep.sweep`
  (because it *is* sweep, with :class:`ServeBackend` plugged in),
  enqueues the pending cells into the store's lease queue, and merges
  committed results in planned-job order -- bit-identical to a serial
  run;
* **workers** (:func:`work_campaign` / ``repro-mac work``) lease batches
  of cells with expiring, heartbeat-renewed leases, execute them through
  the same :func:`~repro.experiments.sweep.run_job` + world cache the
  pool uses, and commit each result atomically with its lease
  transition.

Robustness is the design center: a killed worker's leases expire and its
cells are reclaimed (by the coordinator's sweep or stolen directly by a
hungry peer); a killed coordinator restarts from the store with zero
recomputation of committed cells; and backpressure-aware lease chunking
shrinks grants near the tail of the queue so slow workers cannot starve
fast ones.  See ``docs/serve.md``.
"""

from repro.serve.service import ServeBackend, serve_campaign
from repro.serve.worker import WorkerReport, work_campaign

__all__ = ["ServeBackend", "serve_campaign", "WorkerReport", "work_campaign"]
