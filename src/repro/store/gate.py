"""The regression gate: rerun a stored campaign and diff it.

``repro-mac gate --baseline REF`` takes the results JSON a previous
``repro-mac sweep`` wrote (``SweepResult.as_dict()`` -- grid shape,
per-cell mean metrics, merged counters and the ``slots_per_sec``
throughput record), reruns the *same* campaign -- the grid is
reconstructed from the baseline itself, so there is nothing to keep in
sync -- and emits a machine-readable pass/fail report:

* **metric checks** -- per ``(point, protocol)``: delivery rate,
  contention phases, completion time, request counts.  Default tolerance
  is zero because the simulator is deterministic: same settings + seed +
  code must be bit-identical.  ``metric_rel_tol`` loosens that for gating
  across intentional behaviour changes.
* **counter checks** -- the observability counter totals per cell,
  compared exactly (a counter drift with identical metrics is how subtle
  semantic changes announce themselves first).
* **bench check** -- fresh ``slots_per_sec`` must stay above
  ``bench_min_frac`` of the baseline's.  This is deliberately loose
  (default 0.25) because CI boxes are noisy; it exists to catch
  order-of-magnitude perf regressions, not 5% ones.

The gate composes with the store: pass one and the rerun skips every
already-computed cell, making "gate every push" affordable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.config import SimulationSettings
from repro.faults.plan import FaultPlan, GilbertElliott, NodeChurn
from repro.mac.contention import ContentionParams
from repro.obs.counters import diff_counters
from repro.phy.profile import PhyProfile
from repro.store.digests import code_fingerprint, git_commit
from repro.workload.generator import TrafficMix

__all__ = ["GateTolerances", "settings_from_dict", "run_gate", "format_gate_report"]


@dataclass(frozen=True)
class GateTolerances:
    """Knobs of the comparison; defaults demand bit-identical metrics."""

    #: Relative tolerance on scalar metrics (0.0 = exact).
    metric_rel_tol: float = 0.0
    #: Fresh slots/sec must be >= this fraction of the baseline's.
    bench_min_frac: float = 0.25
    #: Compare per-cell counter totals (exact; independent of metric_rel_tol).
    check_counters: bool = True

    def __post_init__(self) -> None:
        if self.metric_rel_tol < 0.0:
            raise ValueError(f"metric_rel_tol must be >= 0, got {self.metric_rel_tol!r}")
        if not 0.0 <= self.bench_min_frac:
            raise ValueError(f"bench_min_frac must be >= 0, got {self.bench_min_frac!r}")


def _build(cls, payload: dict, path: str):
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(
            f"{path}: unknown {cls.__name__} fields {sorted(unknown)} -- the baseline "
            "was written by a different schema; regenerate it"
        )
    return cls(**payload)


def settings_from_dict(payload: dict) -> SimulationSettings:
    """Inverse of :func:`repro.obs.manifest.settings_to_dict`.

    Rebuilds the full nested structure (mix, contention, fault plan with
    its burst/churn legs) and rejects unknown keys loudly -- a baseline
    that no longer round-trips must not be silently half-applied.
    """
    payload = dict(payload)
    if "mix" in payload and isinstance(payload["mix"], dict):
        payload["mix"] = _build(TrafficMix, payload["mix"], "settings.mix")
    if "contention" in payload and isinstance(payload["contention"], dict):
        payload["contention"] = _build(
            ContentionParams, payload["contention"], "settings.contention"
        )
    if "faults" in payload and isinstance(payload["faults"], dict):
        fp = dict(payload["faults"])
        if fp.get("burst") is not None:
            fp["burst"] = _build(GilbertElliott, fp["burst"], "settings.faults.burst")
        if fp.get("churn") is not None:
            fp["churn"] = _build(NodeChurn, fp["churn"], "settings.faults.churn")
        payload["faults"] = _build(FaultPlan, fp, "settings.faults")
    if "phy" in payload and isinstance(payload["phy"], dict):
        # PhyProfile coerces the JSON lists back to tuples itself; a
        # baseline written before the multi-rate PHY simply has no "phy"
        # key and gets the default single-rate profile.
        payload["phy"] = _build(PhyProfile, payload["phy"], "settings.phy")
    return _build(SimulationSettings, payload, "settings")


@dataclass
class _Check:
    id: str
    kind: str
    passed: bool
    baseline: Any
    fresh: Any
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "passed": self.passed,
            "baseline": self.baseline,
            "fresh": self.fresh,
            "detail": self.detail,
        }


#: Scalar MeanMetrics fields the gate compares per cell.
_METRIC_FIELDS = (
    "delivery_rate",
    "avg_contention_phases",
    "avg_completion_time",
    "average_degree",
    "n_runs",
    "n_requests",
)


def _close(baseline: float, fresh: float, rel_tol: float) -> bool:
    if baseline == fresh:
        return True
    return abs(fresh - baseline) <= rel_tol * max(abs(baseline), abs(fresh))


@dataclass
class GateReport:
    """Everything the gate decided, JSON-ready."""

    name: str
    baseline_ref: str
    passed: bool
    checks: list[_Check] = field(default_factory=list)
    execution: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        failed = [c for c in self.checks if not c.passed]
        return {
            "kind": "gate-report",
            "name": self.name,
            "baseline": self.baseline_ref,
            "passed": self.passed,
            "n_checks": len(self.checks),
            "n_failed": len(failed),
            "code": {"git_commit": git_commit(), "code_fingerprint": code_fingerprint()},
            "execution": self.execution,
            "checks": [c.as_dict() for c in self.checks],
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2))
        return path


def run_gate(
    baseline: dict,
    *,
    name: str = "gate",
    baseline_ref: str = "<dict>",
    processes: int | None = None,
    store=None,
    tolerances: GateTolerances | None = None,
) -> tuple[GateReport, "Any"]:
    """Rerun the baseline's campaign and compare; returns (report, SweepResult).

    *baseline* is the parsed results JSON of a previous sweep
    (``SweepResult.as_dict()``); its points/protocols/seeds/threshold
    define the grid, so the gate always compares like with like.
    """
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import sweep

    tol = tolerances or GateTolerances()
    try:
        protocols = list(baseline["protocols"])
        seeds = list(baseline["seeds"])
        threshold = baseline.get("threshold")
        points_payload = baseline["points"]
    except KeyError as exc:
        raise ValueError(
            f"baseline {baseline_ref} is missing key {exc}: not a sweep results JSON"
        ) from None
    points = [settings_from_dict(p["settings"]) for p in points_payload]
    scenario = Scenario(
        settings=points[0],
        protocols=tuple(protocols),
        seeds=tuple(seeds),
        threshold=threshold,
    )
    result = sweep(scenario, points, processes=processes, store=store)

    checks: list[_Check] = []
    for p, point in enumerate(points_payload):
        for proto in protocols:
            base_m = point["metrics"][proto]
            fresh_m = result.mean(p, proto)
            for fname in _METRIC_FIELDS:
                b, f = base_m[fname], getattr(fresh_m, fname)
                checks.append(
                    _Check(
                        id=f"point{p}.{proto}.{fname}",
                        kind="metric",
                        passed=_close(b, f, tol.metric_rel_tol),
                        baseline=b,
                        fresh=f,
                        detail=f"rel_tol={tol.metric_rel_tol}",
                    )
                )
            if tol.check_counters:
                drift = diff_counters(base_m.get("counters", {}), fresh_m.counters)
                checks.append(
                    _Check(
                        id=f"point{p}.{proto}.counters",
                        kind="counters",
                        passed=not drift,
                        baseline=len(base_m.get("counters", {})),
                        fresh=len(fresh_m.counters),
                        detail=(
                            "drifted: "
                            + ", ".join(
                                f"{k} {b}->{f}" for k, (b, f) in sorted(drift.items())
                            )
                            if drift
                            else "identical"
                        ),
                    )
                )

    base_sps = (baseline.get("execution") or {}).get("slots_per_sec")
    fresh_sps = result.slots_per_sec
    if base_sps and fresh_sps is not None and result.store_hits < result.n_jobs:
        checks.append(
            _Check(
                id="bench.slots_per_sec",
                kind="bench",
                passed=fresh_sps >= base_sps * tol.bench_min_frac,
                baseline=base_sps,
                fresh=fresh_sps,
                detail=f"min {tol.bench_min_frac:.0%} of baseline",
            )
        )
    else:
        checks.append(
            _Check(
                id="bench.slots_per_sec",
                kind="bench",
                passed=True,
                baseline=base_sps,
                fresh=fresh_sps,
                detail=(
                    "skipped: campaign served from store"
                    if result.store_hits >= result.n_jobs
                    else "skipped: no baseline throughput"
                ),
            )
        )

    report = GateReport(
        name=name,
        baseline_ref=baseline_ref,
        passed=all(c.passed for c in checks),
        checks=checks,
        execution={
            "n_jobs": result.n_jobs,
            "processes": result.processes,
            "wall_clock_s": result.wall_clock_s,
            "slots_per_sec": result.slots_per_sec,
            "store_hits": result.store_hits,
            "store_misses": result.store_misses,
            "tolerances": {
                "metric_rel_tol": tol.metric_rel_tol,
                "bench_min_frac": tol.bench_min_frac,
                "check_counters": tol.check_counters,
            },
        },
    )
    return report, result


def format_gate_report(report: GateReport, max_failures: int = 20) -> str:
    """Human-readable summary (full detail lives in the JSON report)."""
    failed = [c for c in report.checks if not c.passed]
    lines = [
        f"gate {report.name}: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.checks) - len(failed)}/{len(report.checks)} checks passed; "
        f"baseline {report.baseline_ref})"
    ]
    for c in failed[:max_failures]:
        lines.append(f"  FAIL {c.id}: baseline={c.baseline!r} fresh={c.fresh!r} ({c.detail})")
    if len(failed) > max_failures:
        lines.append(f"  ... and {len(failed) - max_failures} more failures")
    return "\n".join(lines)
