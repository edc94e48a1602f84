"""Simulator performance scaling (engineering benchmark, not a paper
figure).

The event-driven design should scale roughly with offered traffic (events)
rather than with nodes x slots; these benchmarks pin the throughput of the
substrate so performance regressions in the kernel/channel show up in CI.
"""

import pytest

from repro.core.bmmm import BmmmMac
from repro.experiments.config import SimulationSettings
from repro.experiments.runner import run_raw


@pytest.mark.parametrize("n_nodes", [25, 50, 100])
def test_simulation_throughput(benchmark, n_nodes):
    settings = SimulationSettings(n_nodes=n_nodes, horizon=2000)

    def run():
        return run_raw(BmmmMac, settings, seed=0)

    raw = benchmark.pedantic(run, rounds=3, iterations=1)
    # Sanity: the run actually simulated traffic.
    assert raw.requests


def test_idle_network_is_cheap(benchmark):
    """Zero traffic -> near-zero events: the kernel must not busy-poll."""
    settings = SimulationSettings(n_nodes=100, horizon=10_000, message_rate=0.0)

    def run():
        return run_raw(BmmmMac, settings, seed=0)

    raw = benchmark.pedantic(run, rounds=3, iterations=1)
    assert not raw.requests


def test_sparse_traffic_run(benchmark):
    """Idle-heavy workload: long DIFS/backoff stretches between frames.

    This is the idle-slot skipper's home turf -- throughput here tracks
    how much simulated time the contention fast path can burn per event.
    """
    settings = SimulationSettings(n_nodes=60, horizon=20_000, message_rate=0.0001)

    def run():
        return run_raw(BmmmMac, settings, seed=0)

    raw = benchmark.pedantic(run, rounds=3, iterations=1)
    assert raw.requests


def test_idle_heavy_contention_run(benchmark):
    """The headline idle-slot-skipping workload: CW pinned to the 802.11
    maximum (1024), very sparse traffic.

    Each sender's per-receiver rounds run back-to-back *solo* contention
    phases averaging ~512 provably idle backoff slots.  The seed machine
    stepped one kernel event per slot here; the fast path collapses each
    phase to a handful of events (>= 3x slots/sec, see EXPERIMENTS.md).
    """
    from repro.mac.contention import ContentionParams

    settings = SimulationSettings(
        n_nodes=50,
        horizon=200_000,
        message_rate=0.00001,
        contention=ContentionParams(cw_min=1024, cw_max=1024),
    )

    def run():
        return run_raw(BmmmMac, settings, seed=0)

    raw = benchmark.pedantic(run, rounds=3, iterations=1)
    assert raw.requests


def test_dense_traffic_run(benchmark):
    """The heavy corner of the sweeps (4x rate)."""
    settings = SimulationSettings(n_nodes=100, horizon=2000, message_rate=0.002)

    def run():
        return run_raw(BmmmMac, settings, seed=0)

    raw = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(raw.requests) > 100


def test_sweep_engine_serial_throughput(benchmark):
    """A small grid through the engine in-process: pins the overhead of
    job planning + world caching on top of the raw runs."""
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import sweep

    points = [
        SimulationSettings(n_nodes=50, horizon=2000),
        SimulationSettings(n_nodes=50, horizon=2000, message_rate=0.001),
    ]
    scenario = Scenario(settings=points[0], protocols=("BMMM", "LAMM"), seeds=(0, 1))

    def run():
        return sweep(scenario, points, processes=1)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    # Caching must have kicked in: the second protocol of every
    # (point, seed) cell reuses the first one's world.
    assert result.cache_hits == len(points) * 2  # cells x (protocols - 1)
    assert result.slots_per_sec and result.slots_per_sec > 0


def test_sweep_engine_pooled_throughput(benchmark):
    """Same grid through the long-lived pool (bit-identical, less wall)."""
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import sweep

    points = [
        SimulationSettings(n_nodes=50, horizon=2000),
        SimulationSettings(n_nodes=50, horizon=2000, message_rate=0.001),
    ]
    scenario = Scenario(settings=points[0], protocols=("BMMM", "LAMM"), seeds=(0, 1))

    def run():
        return sweep(scenario, points, processes=2)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.processes == 2
    assert result.n_jobs == 8
