"""Acceptance pins for campaign telemetry, spans and the phase profiler.

Three contracts from the observability PR:

* telemetry and the kernel phase profiler are *inert*: a sweep run with
  both enabled is bit-identical (metrics, counters, degrees) to a bare
  one -- same discipline as the faults subsystem's no-op property;
* the stream is a faithful ledger: it parses, carries one span per
  (fresh cell, phase), and its simulate spans sum to the campaign
  manifest's ``simulate`` phase timing;
* a fully store-served campaign reports ``slots_per_sec: null`` with
  ``store_served: true`` in its BENCH record instead of a misleading
  SQLite-read throughput.
"""

import pytest

from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import bench_record, sweep, sweep_manifest
from repro.obs.profiler import PROFILE_PHASES
from repro.obs.telemetry import load_telemetry
from tests.experiments.test_sweep_store import assert_bit_identical

SMALL = SimulationSettings(n_nodes=15, horizon=500, message_rate=0.003)
POINTS = [SMALL, SMALL.with_(n_nodes=20)]
SCENARIO = Scenario(settings=SMALL, protocols=SIMULATED_PROTOCOLS, seeds=(0, 1))
N_JOBS = len(SIMULATED_PROTOCOLS) * len(POINTS) * len(SCENARIO.seeds)


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """One bare run and one with telemetry + profiler, same grid."""
    bare = sweep(SCENARIO, POINTS, processes=1)
    path = tmp_path_factory.mktemp("telemetry") / "campaign.jsonl"
    instrumented = sweep(
        SCENARIO, POINTS, processes=1, telemetry=path, profile=True, campaign="obs-test"
    )
    return bare, instrumented, path


class TestNoOpDiscipline:
    def test_instrumented_sweep_is_bit_identical(self, observed):
        bare, instrumented, _ = observed
        assert_bit_identical(bare, instrumented)

    def test_bare_sweep_has_no_instrument_outputs(self, observed):
        bare, _, _ = observed
        assert bare.mac_profile is None
        assert bare.telemetry_path is None


class TestStream:
    def test_stream_parses_and_completes(self, observed):
        _, instrumented, path = observed
        assert instrumented.telemetry_path == str(path)
        stream = load_telemetry(path)
        assert not stream.truncated
        assert stream.completed
        assert stream.meta["campaign"] == "obs-test"
        assert stream.meta["n_jobs"] == N_JOBS

    def test_one_span_set_per_fresh_cell(self, observed):
        _, instrumented, path = observed
        stream = load_telemetry(path)
        simulate_spans = [s for s in stream.spans() if s["phase"] == "simulate"]
        assert len(simulate_spans) == N_JOBS
        assert len({s["cell"] for s in simulate_spans}) == N_JOBS

    def test_spans_sum_to_manifest_phase_timings(self, observed):
        """The cross-worker tracing contract (also asserted in CI)."""
        _, instrumented, path = observed
        stream = load_telemetry(path)
        manifest = sweep_manifest(instrumented, name="obs-test")
        for phase in ("build", "inject", "simulate"):
            stream_total = sum(
                s["dur_s"] for s in stream.spans() if s["phase"] == phase
            )
            assert stream_total == pytest.approx(manifest.timings[phase], rel=1e-6)

    def test_result_spans_match_stream_spans(self, observed):
        _, instrumented, path = observed
        stream = load_telemetry(path)
        from_stream = [
            (s["cell"], s["phase"], s["dur_s"], s["worker"]) for s in stream.spans()
        ]
        from_result = [
            (s["cell"], s["phase"], s["dur_s"], s["worker"]) for s in instrumented.spans
        ]
        # The stream emits in completion order, the result merges in
        # planned-job order -- same multiset either way.
        assert sorted(map(repr, from_stream)) == sorted(map(repr, from_result))

    def test_end_record_carries_final_totals(self, observed):
        _, instrumented, path = observed
        end = load_telemetry(path).by_type("end")[-1]
        assert end["done"] == N_JOBS
        assert end["wall_clock_s"] == pytest.approx(instrumented.wall_clock_s)

    def test_manifest_span_summary_is_bounded(self, observed):
        _, instrumented, _ = observed
        summary = sweep_manifest(instrumented, name="obs-test").extra["span_summary"]
        assert summary["n_spans"] == len(instrumented.spans)
        assert len(summary["stragglers"]) <= 5
        assert summary["per_phase_s"]["simulate"] > 0


class TestProfilerAggregation:
    def test_per_protocol_profile_sums_to_simulate(self, observed):
        """Acceptance: attribution within 1% of the simulate wall clock."""
        _, instrumented, _ = observed
        assert set(instrumented.mac_profile) == set(SIMULATED_PROTOCOLS)
        total = sum(
            seconds
            for phases in instrumented.mac_profile.values()
            for seconds in phases.values()
        )
        assert total == pytest.approx(instrumented.timings["simulate"], rel=0.01)

    def test_profile_keys_are_known_phases(self, observed):
        _, instrumented, _ = observed
        for phases in instrumented.mac_profile.values():
            assert set(phases) <= set(PROFILE_PHASES)

    def test_manifest_carries_profile(self, observed):
        _, instrumented, _ = observed
        manifest = sweep_manifest(instrumented, name="obs-test")
        assert manifest.extra["mac_profile"] == instrumented.mac_profile


class TestStoreServedBench:
    """Satellite: no misleading slots/sec when nothing was simulated."""

    @pytest.fixture(scope="class")
    def warm(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "campaign.sqlite"
        sweep(SCENARIO, POINTS, processes=1, store=path)
        return sweep(SCENARIO, POINTS, processes=1, store=path)

    def test_fully_served_campaign_flags_itself(self, warm):
        assert warm.store_hits == N_JOBS
        assert warm.store_served
        assert warm.slots_per_sec is None

    def test_bench_record_reports_null_throughput(self, warm):
        record = bench_record(warm, name="warm")
        assert record["store_served"] is True
        assert record["slots_per_sec"] is None

    def test_fresh_campaign_keeps_real_throughput(self, observed):
        bare, _, _ = observed
        assert not bare.store_served
        record = bench_record(bare, name="cold")
        assert record["store_served"] is False
        assert record["slots_per_sec"] > 0

    def test_as_dict_carries_store_served(self, warm):
        execution = warm.as_dict()["execution"]
        assert execution["store_served"] is True
        assert execution["slots_per_sec"] is None


class TestTelemetryWithStore:
    def test_store_served_cells_counted_not_spanned(self, tmp_path):
        store = tmp_path / "s.sqlite"
        sweep(SCENARIO, POINTS, processes=1, store=store)
        path = tmp_path / "warm.jsonl"
        result = sweep(
            SCENARIO, POINTS, processes=1, store=store, telemetry=path
        )
        assert result.store_served
        stream = load_telemetry(path)
        assert stream.completed
        assert stream.spans() == []  # nothing fresh ran
        assert stream.last_progress["store_served"] == N_JOBS
        assert stream.last_progress["done"] == N_JOBS
