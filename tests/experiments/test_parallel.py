"""Process-pool execution equals serial execution.

The sweep engine's pool (``sweep(..., processes=2)``) must reproduce the
plain serial runner (:func:`repro.experiments.runner.run`) bit-for-bit:
same per-seed metrics in seed order, same merged counter totals.
"""

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.runner import run, run_protocol
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import sweep
from repro.obs.counters import merge_counter_dicts

SMALL = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.003)


def scenario(protocols, seeds, threshold=None):
    return Scenario(settings=SMALL, protocols=protocols, seeds=seeds, threshold=threshold)


class TestParallelEqualsSerial:
    def test_identical_metrics(self):
        """Pooled execution must be bit-for-bit identical to serial."""
        sc = scenario("BMMM", range(3))
        serial = run_protocol(sc)
        pooled = sweep(sc, processes=2).mean(0, "BMMM")
        assert pooled.delivery_rate == serial.delivery_rate
        assert pooled.avg_contention_phases == serial.avg_contention_phases
        assert pooled.avg_completion_time == serial.avg_completion_time
        assert pooled.average_degree == serial.average_degree

    def test_single_process_shortcut(self):
        sc = scenario("BMW", [0, 1])
        result = sweep(sc, processes=1)
        assert result.processes == 1
        assert result.mean(0, "BMW").delivery_rate == run_protocol(sc).delivery_rate

    def test_order_preserved(self):
        """Per-seed results come back in seed order, not completion order."""
        pooled = sweep(scenario("BMMM", [3, 1, 2]), processes=2).cell(0, "BMMM")
        solo = [
            sweep(scenario("BMMM", s), processes=1).cell(0, "BMMM").metrics[0].delivery_rate
            for s in (3, 1, 2)
        ]
        assert [m.delivery_rate for m in pooled.metrics] == solo

    def test_identical_counter_totals(self):
        """Observability counters merge across the pool to the exact
        totals a serial run produces (same seeds, same sums)."""
        sc = scenario("LAMM", range(3))
        serial = run_protocol(sc)
        pooled = sweep(sc, processes=2).mean(0, "LAMM")
        assert serial.counters  # non-trivial run: counters are populated
        assert pooled.counters == serial.counters

    def test_merged_counters_helper(self):
        metrics = sweep(scenario("BMMM", [0, 1]), processes=2).cell(0, "BMMM").metrics
        merged = merge_counter_dicts(m.counters for m in metrics)
        for key in metrics[0].counters:
            assert merged[key] == sum(m.counters.get(key, 0) for m in metrics)

    def test_threshold_override(self):
        strict = sweep(scenario("BSMA", 0, threshold=1.0), processes=1).mean(0, "BSMA")
        lax = sweep(scenario("BSMA", 0, threshold=0.1), processes=1).mean(0, "BSMA")
        assert lax.delivery_rate >= strict.delivery_rate


class TestCompareParallel:
    def test_runs_all_protocols(self):
        sc = scenario(("BMMM", "BMW"), 0)
        pooled = sweep(sc, processes=2).grid()[0]
        assert pooled == run(sc)
        assert all(0.0 <= m.delivery_rate <= 1.0 for m in pooled.values())

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            scenario("BMMM", [])
