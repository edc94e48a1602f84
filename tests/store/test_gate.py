"""Regression-gate behaviour: baseline round-trips, pass/fail verdicts.

A baseline is just the results JSON a previous sweep wrote; the gate
reruns the campaign it describes and diffs.  With a deterministic
simulator and zero tolerance the fresh run must match exactly -- so an
unmodified baseline passes and any tampering fails with a named check.
"""

import copy
import dataclasses

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import sweep
from repro.faults.plan import FaultPlan, GilbertElliott, NodeChurn
from repro.mac.contention import ContentionParams
from repro.obs.manifest import settings_to_dict
from repro.store.gate import (
    GateTolerances,
    format_gate_report,
    run_gate,
    settings_from_dict,
)
from repro.workload.generator import TrafficMix


@pytest.fixture(scope="module")
def baseline():
    """Results JSON of one small-but-real campaign (2 points x 1 protocol
    x 2 seeds), shared by every gate test in this module."""
    settings = SimulationSettings(n_nodes=8, horizon=300, message_rate=0.01)
    scenario = Scenario(settings=settings, protocols=("BMMM",), seeds=(0, 1))
    points = [settings, settings.with_(n_nodes=12)]
    result = sweep(scenario, points, processes=0)
    return result.as_dict()


class TestRoundTrip:
    def test_settings_survive_dict_round_trip(self):
        original = SimulationSettings(
            n_nodes=17,
            radius=0.33,
            message_rate=0.004,
            mix=TrafficMix(unicast=0.5, multicast=0.25, broadcast=0.25),
            contention=ContentionParams(cw_min=32, cw_max=512),
            faults=FaultPlan(
                burst=GilbertElliott.from_burst(8.0, 0.2),
                churn=NodeChurn(crash_rate=0.001, mean_downtime=100.0),
                location_sigma=0.05,
                receiver_give_up=2,
            ),
        )
        assert settings_from_dict(settings_to_dict(original)) == original

    def test_default_settings_round_trip(self):
        s = SimulationSettings()
        assert settings_from_dict(settings_to_dict(s)) == s

    def test_unknown_top_level_key_rejected(self):
        payload = settings_to_dict(SimulationSettings())
        payload["warp_factor"] = 9
        with pytest.raises(ValueError, match="warp_factor"):
            settings_from_dict(payload)

    def test_unknown_nested_key_rejected(self):
        payload = settings_to_dict(
            SimulationSettings(faults=FaultPlan(burst=GilbertElliott()))
        )
        payload["faults"]["burst"]["flux"] = 1.0
        with pytest.raises(ValueError, match=r"settings\.faults\.burst.*flux"):
            settings_from_dict(payload)


class TestVerdicts:
    def test_unmodified_baseline_passes_exactly(self, baseline):
        report, result = run_gate(baseline, baseline_ref="test")
        assert report.passed
        assert all(c.passed for c in report.checks)
        # 2 points x 1 protocol x (6 metrics + counters) + 1 bench check.
        assert len(report.checks) == 2 * 1 * 7 + 1
        assert result.n_jobs == 4

    def test_tampered_metric_fails_named_check(self, baseline):
        bad = copy.deepcopy(baseline)
        bad["points"][1]["metrics"]["BMMM"]["delivery_rate"] += 0.125
        report, _ = run_gate(bad, baseline_ref="tampered")
        assert not report.passed
        failed = [c.id for c in report.checks if not c.passed]
        assert failed == ["point1.BMMM.delivery_rate"]

    def test_tampered_counter_fails_with_drift_detail(self, baseline):
        bad = copy.deepcopy(baseline)
        counters = bad["points"][0]["metrics"]["BMMM"]["counters"]
        key = sorted(counters)[0]
        counters[key] += 1000
        report, _ = run_gate(bad, baseline_ref="tampered")
        failed = [c for c in report.checks if not c.passed]
        assert [c.id for c in failed] == ["point0.BMMM.counters"]
        assert key in failed[0].detail

    def test_metric_tolerance_forgives_small_drift(self, baseline):
        bad = copy.deepcopy(baseline)
        bad["points"][0]["metrics"]["BMMM"]["avg_completion_time"] *= 1.01
        strict, _ = run_gate(bad, baseline_ref="drift")
        loose, _ = run_gate(
            bad,
            baseline_ref="drift",
            tolerances=GateTolerances(metric_rel_tol=0.05),
        )
        assert not strict.passed
        assert loose.passed

    def test_counters_can_be_disabled(self, baseline):
        bad = copy.deepcopy(baseline)
        bad["points"][0]["metrics"]["BMMM"]["counters"]["phantom"] = 1
        with_counters, _ = run_gate(bad, baseline_ref="t")
        without, _ = run_gate(
            bad,
            baseline_ref="t",
            tolerances=GateTolerances(check_counters=False),
        )
        assert not with_counters.passed
        assert without.passed
        assert all(c.kind != "counters" for c in without.checks)

    def test_missing_baseline_key_raises(self):
        with pytest.raises(ValueError, match="not a sweep results JSON"):
            run_gate({"protocols": ["BMMM"]}, baseline_ref="broken")


class TestReport:
    def test_report_is_json_ready_and_stamped(self, baseline, tmp_path):
        report, _ = run_gate(baseline, name="ci", baseline_ref="test")
        doc = report.as_dict()
        assert doc["kind"] == "gate-report"
        assert doc["name"] == "ci"
        assert doc["passed"] is True
        assert doc["n_checks"] == len(report.checks)
        assert doc["n_failed"] == 0
        assert len(doc["code"]["code_fingerprint"]) == 64
        assert doc["execution"]["n_jobs"] == 4
        assert doc["execution"]["tolerances"]["metric_rel_tol"] == 0.0
        out = report.save(tmp_path / "reports" / "GATE_ci.json")
        assert out.is_file()
        import json

        assert json.loads(out.read_text())["passed"] is True

    def test_format_lists_failures(self, baseline):
        bad = copy.deepcopy(baseline)
        bad["points"][0]["metrics"]["BMMM"]["n_requests"] = -1
        report, _ = run_gate(bad, baseline_ref="tampered")
        text = format_gate_report(report)
        assert "FAIL" in text
        assert "point0.BMMM.n_requests" in text

    def test_format_pass_summary(self, baseline):
        report, _ = run_gate(baseline, baseline_ref="test")
        text = format_gate_report(report)
        assert text.startswith("gate gate: PASS")


class TestTolerancesValidation:
    def test_negative_rel_tol_rejected(self):
        with pytest.raises(ValueError, match="metric_rel_tol"):
            GateTolerances(metric_rel_tol=-0.1)

    def test_negative_bench_frac_rejected(self):
        with pytest.raises(ValueError, match="bench_min_frac"):
            GateTolerances(bench_min_frac=-1.0)

    def test_frozen(self):
        tol = GateTolerances()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tol.metric_rel_tol = 0.5
