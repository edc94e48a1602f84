"""The rate sweep: delivered throughput vs. reliability across MCS spreads.

The multi-rate question the :class:`~repro.phy.profile.PhyProfile` API
exists to ask: how much delivered throughput does rate adaptation buy,
and what does it cost in reliability, as the rate table's spread widens?
Each sweep point is the *same* Table-2 world under a different profile
-- from the paper's single-rate 5-slot DATA up to an aggressive 3-tier
table -- so a fixed-rate protocol (LAMM) and the rate-adaptive RAM face
identical workloads and the delta is pure rate policy.

``repro-mac rate-sweep`` drives this and writes ``BENCH_rate.json``: one
record per (profile, protocol) cell with the delivery rate, delivered
requests per kslot, completion time and the rate-machinery counters
(per-MCS round counts, channel rate losses), stamped with the git commit
and code fingerprint like every other BENCH surface.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.config import SimulationSettings
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import SweepResult, sweep
from repro.phy.profile import PhyProfile
from repro.store.digests import code_fingerprint, git_commit

__all__ = [
    "RATE_PROFILES",
    "RATE_SWEEP_PROTOCOLS",
    "run_rate_sweep",
    "rate_bench_record",
    "save_rate_bench",
]

#: The MCS-spread axis, mildest first.  Fractions follow the usual
#: range/rate tradeoff shape (faster MCS needs more SNR, so less range):
#: "mild" adds one 3-slot tier reaching 70% of the cell radius,
#: "aggressive" adds a 2-slot tier reaching 45%.
RATE_PROFILES: dict[str, PhyProfile] = {
    "single": PhyProfile(),
    "mild": PhyProfile(signal_slots=1, data_slots=(5, 3), range_fractions=(1.0, 0.7)),
    "aggressive": PhyProfile(
        signal_slots=1, data_slots=(5, 3, 2), range_fractions=(1.0, 0.65, 0.45)
    ),
}

#: The head-to-head the sweep exists for: fixed-rate LAMM vs. RAM.
RATE_SWEEP_PROTOCOLS = ("LAMM", "RAM")


def run_rate_sweep(
    base: SimulationSettings | None = None,
    *,
    protocols: Sequence[str] = RATE_SWEEP_PROTOCOLS,
    profiles: Mapping[str, PhyProfile] | None = None,
    seeds: Sequence[int] = (0, 1, 2),
    processes: int | None = None,
    store=None,
    telemetry=None,
    profile: bool = False,
    campaign: str = "rate",
) -> tuple[SweepResult, list[str]]:
    """Run the protocols x profiles x seeds grid.

    Returns ``(result, profile_names)``; point *i* of the result is
    ``profiles[profile_names[i]]`` applied to *base*.
    """
    base = base if base is not None else SimulationSettings()
    profiles = dict(profiles) if profiles is not None else dict(RATE_PROFILES)
    names = list(profiles)
    points = [base.with_(phy=profiles[n]) for n in names]
    scenario = Scenario(settings=base, protocols=tuple(protocols), seeds=tuple(seeds))
    result = sweep(
        scenario,
        points,
        processes=processes,
        store=store,
        telemetry=telemetry,
        profile=profile,
        campaign=campaign,
    )
    return result, names


#: Counters worth surfacing per cell (per-MCS rounds are matched by prefix).
_RATE_COUNTER_PREFIXES = ("ram.rounds_mcs", "rate_losses")


def rate_bench_record(
    result: SweepResult, profile_names: Sequence[str], name: str = "rate"
) -> dict:
    """The ``BENCH_rate.json`` payload: the throughput/reliability surface."""
    cells = []
    for idx, pname in enumerate(profile_names):
        prof = result.points[idx].phy
        for proto in result.protocols:
            mm = result.mean(idx, proto)
            horizon = result.points[idx].horizon
            per_run_requests = mm.n_requests / mm.n_runs if mm.n_runs else 0.0
            cells.append(
                {
                    "profile": pname,
                    "data_slots": list(prof.data_slots),
                    "range_fractions": list(prof.range_fractions),
                    "protocol": proto,
                    "delivery_rate": mm.delivery_rate,
                    "delivered_per_kslot": (
                        mm.delivery_rate * per_run_requests / horizon * 1000.0
                    ),
                    "avg_completion_time": mm.avg_completion_time,
                    "avg_contention_phases": mm.avg_contention_phases,
                    "n_runs": mm.n_runs,
                    "n_requests": mm.n_requests,
                    "counters": {
                        k: v
                        for k, v in sorted(mm.counters.items())
                        if any(k.startswith(p) for p in _RATE_COUNTER_PREFIXES)
                    },
                }
            )
    return {
        "name": name,
        "kind": "rate-sweep",
        "profiles": list(profile_names),
        "protocols": list(result.protocols),
        "seeds": list(result.seeds),
        "slots_per_sec": result.slots_per_sec,
        "cells": cells,
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
    }


def save_rate_bench(
    result: SweepResult,
    profile_names: Sequence[str],
    out_dir: str | Path,
    name: str = "rate",
) -> Path:
    """Write ``BENCH_<name>.json`` under *out_dir*; returns the path."""
    path = Path(out_dir) / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rate_bench_record(result, profile_names, name), indent=2))
    return path
