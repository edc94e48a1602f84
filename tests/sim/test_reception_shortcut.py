"""The bystander shortcut changes nothing a run can observe.

A control frame decoded by a radio it does not address goes straight to
the MAC's ``_yield_to`` (Figure 3's last receiver rule) while the MAC is
the radio's only listener, instead of through ``Radio._deliver`` and
``MacBase._on_frame``.  These tests run the same seeded cells with the
shortcut disabled (``Radio._update_yield_to`` patched to a no-op, so
``yield_to`` stays ``None``) and demand identical metrics, counters and
event streams.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.core.bmmm import BmmmMac
from repro.core.lamm import LammMac
from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import run_raw
from repro.mac.base import MacBase
from repro.mac.beacons import BeaconConfig
from repro.metrics.aggregate import summarize_run
from repro.phy.capture import ZorziRaoCapture
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import Channel
from repro.sim.frames import Frame, FrameType
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.radio import Radio
from repro.workload.generator import TrafficGenerator

SETTINGS = SimulationSettings(n_nodes=30, horizon=1500, message_rate=0.003)


def _disable_shortcut(monkeypatch):
    monkeypatch.setattr(Radio, "_update_yield_to", lambda self: None)


def _count_on_frame(monkeypatch) -> list[int]:
    """Count MacBase._on_frame calls (patched before any MAC is built)."""
    calls = [0]
    original = MacBase._on_frame

    def counted(self, frame, clean):
        calls[0] += 1
        return original(self, frame, clean)

    monkeypatch.setattr(MacBase, "_on_frame", counted)
    return calls


def _strip_ids(metrics):
    """msg_ids come from a process-global counter; everything else must
    match exactly."""
    def strip(scores):
        return [dataclasses.replace(s, msg_id=-1) for s in scores]

    return dataclasses.replace(
        metrics,
        group_scores=strip(metrics.group_scores),
        all_scores=strip(metrics.all_scores),
    )


def _normalized(events):
    """Event stream with frame uids and msg_ids renumbered by first
    appearance (both come from process-global counters)."""
    ids: dict[tuple[str, int], int] = {}
    out = []
    for ev in events:
        data = {}
        for key, value in sorted(ev.data.items()):
            if key in ("uid", "msg_id") and value is not None:
                value = ids.setdefault((key, value), len(ids))
            data[key] = value
        out.append((ev.etype, ev.time, ev.node, data))
    return out


def _run_cell(protocol, seed, subscribe=False):
    mac_cls, kwargs = protocol_class(protocol)
    events = []
    raw = run_raw(
        mac_cls, SETTINGS, seed, kwargs,
        subscribers=(events.append,) if subscribe else (),
    )
    return _strip_ids(raw.metrics()), raw.counters.total, _normalized(events)


@pytest.mark.parametrize("protocol", ["BMW", "BSMA", "BMMM", "LAMM"])
def test_whole_run_identical_without_shortcut(protocol, monkeypatch):
    calls = _count_on_frame(monkeypatch)
    fast = _run_cell(protocol, seed=3)
    fast_calls = calls[0]
    _disable_shortcut(monkeypatch)
    calls[0] = 0
    slow = _run_cell(protocol, seed=3)
    assert fast == slow
    # Not vacuous: the shortcut took bystander frames off _on_frame.
    assert fast_calls < calls[0]


def test_traced_run_identical_without_shortcut(monkeypatch):
    """frame_rx is emitted before either path, so the observed event
    stream (NAV sets included) is the same event for event."""
    fast = _run_cell("BMMM", seed=5, subscribe=True)
    _disable_shortcut(monkeypatch)
    slow = _run_cell("BMMM", seed=5, subscribe=True)
    assert fast[2] and any(ev[0] == "nav_set" for ev in fast[2])
    assert fast == slow


def _lamm_with_beacons(seed):
    rng = np.random.default_rng(seed)
    net = Network(
        rng.random((25, 2)), 0.2, LammMac,
        capture=ZorziRaoCapture(), seed=seed,
        beacons=BeaconConfig(period=200, jitter=20, lifetime=800),
    )
    gen = TrafficGenerator(
        25, net.propagation.neighbors, horizon=1500, message_rate=0.003,
        mix=SETTINGS.mix, seed=seed,
    )
    requests = gen.inject(net)
    net.run(until=1500)
    metrics = summarize_run(requests, net.channel.stats, threshold=0.9,
                            counters=net.channel.counters)
    sent = sum(s.sent for s in net.beacon_services)
    return _strip_ids(metrics), net.channel.counters.total, sent


def test_lamm_with_beacons_identical_without_shortcut(monkeypatch):
    """A BeaconService is a second listener, so its radios take the
    generic dispatch; the run must still match the unshortcut one."""
    fast = _lamm_with_beacons(2)
    _disable_shortcut(monkeypatch)
    slow = _lamm_with_beacons(2)
    assert fast[2] > 0
    assert fast == slow


class TestYieldToSwitch:
    def _net(self):
        positions = np.array([[0.5, 0.5], [0.55, 0.5], [0.5, 0.55]])
        return Network(positions, 0.2, BmmmMac, seed=0)

    def test_mac_alone_arms_the_shortcut(self):
        net = self._net()
        radio = net.mac(0).radio
        assert radio.yield_to == net.mac(0)._yield_to

    def test_expect_waiter_receives_a_foreign_control_frame(self):
        net = self._net()
        env, mac = net.env, net.mac(0)
        radio = mac.radio
        got = []

        def waiter():
            got.append((yield radio.expect(lambda f: f.ftype is FrameType.CTS, timeout=5)))

        env.process(waiter())
        # A CTS from node 1 to node 2: foreign to node 0.
        cts = Frame(FrameType.CTS, src=1, ra=2, duration=7)
        armed = []
        env.timeout(2).callbacks.append(lambda _e: armed.append(radio.yield_to))
        env.timeout(2).callbacks.append(
            lambda _e: net.channel.transmit(net.mac(1).radio, cts)
        )
        env.run(until=4)
        assert armed == [None]  # disarmed while the waiter listens
        assert got == [cts]
        # The MAC still yielded to it (generic dispatch reached _on_frame).
        assert mac.nav.until == 3 + 7 and mac.nav.owner == 2
        # The waiter is gone: the shortcut is armed again.
        assert radio.yield_to == mac._yield_to

    def test_second_listener_disarms_until_removed(self):
        net = self._net()
        radio = net.mac(0).radio

        def listener(frame, clean):
            pass

        radio.add_listener(listener)
        assert radio.yield_to is None
        radio.remove_listener(listener)
        assert radio.yield_to == net.mac(0)._yield_to


# -- is_transmitting is O(1) and means what the any() scan meant -----------------

_STEPS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),  # wait before the step
        st.sampled_from([None, 1, 2, 5]),  # transmit airtime (None: probe only)
    ),
    max_size=40,
)


@hsettings(max_examples=60, deadline=None)
@given(steps=_STEPS)
def test_is_transmitting_matches_own_tx_scan(steps):
    env = Environment()
    prop = UnitDiskPropagation(np.array([[0.5, 0.5], [0.55, 0.5]]), 0.2)
    ch = Channel(env, prop)
    radio, peer = ch.attach(0), ch.attach(1)
    checked = []

    def old(r):
        now = env.now
        return any(t.start <= now < t.end for t in r.own_tx)

    def driver():
        for i, (wait, airtime) in enumerate(steps):
            if wait:
                yield env.timeout(wait)
            assert radio.is_transmitting == old(radio)
            assert peer.is_transmitting == old(peer)
            checked.append(env.now)
            if airtime is None:
                continue
            frame = Frame(FrameType.RTS, src=0, ra=1, seq=i, airtime_slots=airtime)
            if old(radio):
                with pytest.raises(RuntimeError):
                    ch.transmit(radio, frame)
            else:
                ch.transmit(radio, frame)
                assert radio.is_transmitting and old(radio)
            if not old(peer) and i % 3 == 0:
                ch.transmit(peer, Frame(FrameType.CTS, src=1, ra=0, seq=i))

    env.process(driver())
    env.run()
    assert len(checked) == len(steps)
