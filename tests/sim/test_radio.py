"""Unit tests for the Radio interface (expect(), listeners, state)."""

import numpy as np

from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import Channel
from repro.sim.frames import Frame, FrameType
from repro.sim.kernel import Environment


def pair():
    env = Environment()
    prop = UnitDiskPropagation(np.array([[0.5, 0.5], [0.55, 0.5]]), 0.2)
    ch = Channel(env, prop)
    return env, ch, ch.attach(0), ch.attach(1)


def rts(src, ra, seq=None):
    return Frame(FrameType.RTS, src=src, ra=ra, seq=seq)


class TestExpect:
    def test_matching_frame_resolves(self):
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            ev = r0.expect(lambda f: f.ftype is FrameType.RTS, timeout=10)
            got.append((yield ev))

        env.process(waiter())
        env.timeout(3).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0)))
        env.run(until=30)
        assert len(got) == 1 and got[0].src == 1

    def test_timeout_resolves_none(self):
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            got.append((yield r0.expect(lambda f: True, timeout=5)))
            got.append(env.now)

        env.process(waiter())
        env.run(until=30)
        assert got == [None, 5]

    def test_frame_at_exact_deadline_wins(self):
        """A frame whose reception completes exactly at the deadline beats
        the timer (delivery priority) -- the 'wait T_CTS' semantics."""
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            # RTS airtime 1: transmitted at t=4, delivered at t=5 == deadline.
            got.append((yield r0.expect(lambda f: True, timeout=5)))

        env.process(waiter())
        env.timeout(4).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0)))
        env.run(until=30)
        assert got[0] is not None

    def test_predicate_filters(self):
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            ev = r0.expect(lambda f: f.seq == 2, timeout=20)
            got.append((yield ev))

        env.process(waiter())
        env.timeout(1).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0, seq=1)))
        env.timeout(5).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0, seq=2)))
        env.run(until=40)
        assert got[0].seq == 2

    def test_listener_removed_after_match(self):
        env, ch, r0, r1 = pair()

        def waiter():
            yield r0.expect(lambda f: True, timeout=10)

        env.process(waiter())
        env.timeout(1).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0)))
        env.run(until=30)
        # Only the permanent listeners (none here) remain.
        assert r0._listeners == []

    def test_listener_removed_after_timeout(self):
        env, ch, r0, r1 = pair()

        def waiter():
            yield r0.expect(lambda f: True, timeout=3)

        env.process(waiter())
        env.run(until=30)
        assert r0._listeners == []


class TestListeners:
    def test_add_remove(self):
        env, ch, r0, r1 = pair()
        calls = []
        fn = lambda f, c: calls.append(f)
        r0.add_listener(fn)
        ch.transmit(r1, rts(1, 0))
        env.run(until=5)
        r0.remove_listener(fn)
        ch.transmit(r1, rts(1, 0))
        env.run(until=10)
        assert len(calls) == 1

    def test_listener_may_remove_itself_during_delivery(self):
        env, ch, r0, r1 = pair()
        calls = []

        def once(f, c):
            calls.append(f)
            r0.remove_listener(once)

        r0.add_listener(once)
        ch.transmit(r1, rts(1, 0))
        env.run(until=5)
        assert len(calls) == 1


class TestState:
    def test_is_transmitting_window(self):
        env, ch, r0, r1 = pair()
        states = []
        ch.transmit(r0, Frame(FrameType.DATA, src=0, ra=-1, group=frozenset({1})))
        env.timeout(2).callbacks.append(lambda _e: states.append(r0.is_transmitting))
        env.timeout(5).callbacks.append(lambda _e: states.append(r0.is_transmitting))
        env.run(until=10)
        assert states == [True, False]
