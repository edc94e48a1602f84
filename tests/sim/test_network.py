"""Unit tests for the Network assembly helper."""

import numpy as np
import pytest

from repro.core.bmmm import BmmmMac
from repro.mac.base import MacConfig, MessageKind
from repro.mac.contention import ContentionParams
from repro.protocols.plain import PlainMulticastMac
from repro.sim.network import Network

from tests.conftest import make_star, star_positions


class TestNetwork:
    def test_close_releases_the_run(self):
        net = make_star(BmmmMac, n_receivers=3)
        net.mac(0).submit(MessageKind.MULTICAST, frozenset({1, 2, 3}))
        net.run(until=4)  # mid-exchange: events pending, listeners attached
        totals = dict(net.channel.finalize_counters().total)
        net.close()
        assert net.env.peek() == float("inf")
        assert net.channel.radios == []
        assert all(not mac.radio._listeners and mac.radio.yield_to is None for mac in net.macs)
        assert all(mac.process._generator.gi_frame is None for mac in net.macs)
        assert net.channel.counters.total == totals

    def test_one_mac_per_node(self):
        net = Network(star_positions(3), 0.2, PlainMulticastMac, seed=0)
        assert net.n_nodes == 4
        assert len(net.macs) == 4
        assert all(net.mac(i).node_id == i for i in range(4))

    def test_macs_share_channel(self):
        net = Network(star_positions(2), 0.2, PlainMulticastMac, seed=0)
        assert net.mac(0).channel is net.mac(1).channel

    def test_config_propagates(self):
        cfg = MacConfig(
            contention=ContentionParams(cw_min=4), timeout_slots=77
        )
        net = Network(star_positions(2), 0.2, PlainMulticastMac, seed=0, mac_config=cfg)
        assert net.mac(1).config.timeout_slots == 77
        assert net.mac(0).contender.params.cw_min == 4

    def test_mac_kwargs_forwarded(self):
        from repro.core.lamm import LammMac, LammPolicy

        net = Network(
            star_positions(2), 0.2, LammMac, seed=0,
            mac_kwargs={"policy": LammPolicy(mcs="exact")},
        )
        assert net.mac(0).policy.mcs == "exact"

    def test_per_node_rngs_independent(self):
        net = Network(star_positions(2), 0.2, PlainMulticastMac, seed=0)
        a = [net.mac(0).rng.random() for _ in range(5)]
        b = [net.mac(1).rng.random() for _ in range(5)]
        assert a != b

    def test_same_seed_same_rng_streams(self):
        n1 = Network(star_positions(2), 0.2, PlainMulticastMac, seed=3)
        n2 = Network(star_positions(2), 0.2, PlainMulticastMac, seed=3)
        assert [n1.mac(0).rng.random() for _ in range(3)] == [
            n2.mac(0).rng.random() for _ in range(3)
        ]

    def test_all_requests_collects_across_nodes(self):
        net = Network(star_positions(3), 0.2, BmmmMac, seed=1)
        net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        net.mac(1).submit(MessageKind.UNICAST, frozenset({0}))
        net.run(until=300)
        assert len(net.all_requests()) == 2

    def test_average_degree_delegates(self):
        net = Network(star_positions(3), 0.2, PlainMulticastMac, seed=0)
        assert net.average_degree() == net.propagation.average_degree()

    def test_run_advances_clock(self):
        net = Network(star_positions(2), 0.2, PlainMulticastMac, seed=0)
        net.run(until=123)
        assert net.env.now == 123


class TestDegenerateNetworks:
    def test_zero_node_network(self):
        net = Network(np.zeros((0, 2)), 0.2, PlainMulticastMac, seed=0)
        net.run(until=10)
        assert net.n_nodes == 0
        assert net.all_requests() == []

    def test_isolated_node_broadcast_rejected(self):
        net = Network(np.array([[0.5, 0.5]]), 0.2, PlainMulticastMac, seed=0)
        with pytest.raises(ValueError, match="empty destination"):
            net.mac(0).submit(MessageKind.BROADCAST)

    def test_single_pair_minimum_viable_network(self):
        net = Network(np.array([[0.5, 0.5], [0.6, 0.5]]), 0.2, BmmmMac, seed=0)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=200)
        assert req.acked == {1}
