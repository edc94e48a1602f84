"""The campaign benchmark's layer tracer still fits the program.

``perfbench/tracer.py`` wraps hot-path methods by name (``Channel._finish``,
``Channel._receive_at``, ``MacBase._on_frame``, ``Nav.set`` and more).  A
refactor that renames or inlines one of them would break the traced
per-layer split only when the benchmark runs; this test installs the
tracer, runs one small cell under it and uninstalls it again.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import run_raw
from repro.mac.base import MacBase
from repro.mac.nav import Nav
from repro.sim.channel import Channel

TRACER = Path(__file__).resolve().parents[2] / "perfbench" / "tracer.py"
SETTINGS = SimulationSettings(n_nodes=25, horizon=800, message_rate=0.003)


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_entry_point(tracer_module):
    originals = (Channel._finish, Channel._receive_at, MacBase._on_frame, Nav.set)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert Channel._finish is not originals[0]
        assert MacBase._on_frame is not originals[2]
    finally:
        tracer.uninstall()
    assert (Channel._finish, Channel._receive_at, MacBase._on_frame, Nav.set) == originals


def test_traced_cell_counts_each_layer_and_matches_bare(tracer_module):
    mac_cls, kwargs = protocol_class("BMMM")
    bare = run_raw(mac_cls, SETTINGS, 1, kwargs).counters.total
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = run_raw(mac_cls, SETTINGS, 1, kwargs).counters.total
    finally:
        tracer.uninstall()
    assert traced == bare
    calls = tracer.calls
    for name in ("channel.transmit", "channel.finish", "channel.rx_decided",
                 "mac.on_frame", "mac.nav_set", "kernel.resume"):
        assert calls[name] > 0, name
    assert calls["channel.transmit"] == sum(
        n for key, n in bare.items() if key.startswith("frames_sent.")
    )
