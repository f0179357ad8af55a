"""Tests for network introspection statistics."""

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.stats import NetworkStats, PeerLoad, network_stats
from repro.kadop.system import KadopNetwork
from repro.workloads.dblp import DblpGenerator


@pytest.fixture(scope="module")
def net():
    net = KadopNetwork.create(num_peers=8, config=KadopConfig(replication=1))
    gen = DblpGenerator(seed=5, target_doc_bytes=4000)
    for i, doc in enumerate(gen.documents(6)):
        net.peers[i % 4].publish(doc, uri="d:%d" % i)
    return net


class TestNetworkStats:
    def test_totals_match_stores(self, net):
        stats = network_stats(net)
        direct = sum(
            node.store.total_postings() for node in net.net.alive_nodes()
        )
        assert stats.total_postings == direct
        assert stats.total_terms > 10

    def test_hot_terms_are_the_heavy_ones(self, net):
        stats = network_stats(net, top_terms=5)
        hot = {term for _, term in stats.hottest_terms}
        assert "elem:author" in hot

    def test_gini_reflects_skew(self, net):
        stats = network_stats(net)
        assert 0.0 <= stats.gini <= 1.0
        # the DHT spreads terms but posting skew leaves imbalance
        assert stats.max_over_mean >= 1.0

    def test_gini_extremes(self):
        even = NetworkStats(peers=[PeerLoad(i, postings=10) for i in range(4)])
        assert even.gini == pytest.approx(0.0)
        skewed = NetworkStats(
            peers=[PeerLoad(0, postings=100)]
            + [PeerLoad(i, postings=0) for i in range(1, 4)]
        )
        assert skewed.gini > 0.7
        assert NetworkStats().gini == 0.0
        assert NetworkStats().max_over_mean == 1.0

    def test_dead_peers_excluded(self, net):
        victim = next(
            p for p in net.peers if not p.documents and p.node.alive
        )
        before = len(network_stats(net).peers)
        net.net.remove_node(victim.node)
        after = network_stats(net)
        assert len(after.peers) == before - 1

    def test_format(self, net):
        text = network_stats(net).format()
        assert "gini" in text and "hottest" in text

    def test_cli_stats(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 0
        assert "load balance" in capsys.readouterr().out


class TestNetworkStatsEdgeCases:
    def test_empty_network(self):
        stats = NetworkStats()
        assert stats.gini == 0.0
        assert stats.max_over_mean == 1.0
        data = stats.to_dict()
        assert data["peers"] == [] and data["gini"] == 0.0

    def test_single_peer(self):
        stats = NetworkStats(peers=[PeerLoad(0, postings=42)])
        assert stats.gini == pytest.approx(0.0)
        assert stats.max_over_mean == pytest.approx(1.0)

    def test_all_zero_loads(self):
        stats = NetworkStats(peers=[PeerLoad(i, postings=0) for i in range(5)])
        assert stats.gini == 0.0
        assert stats.max_over_mean == 1.0

    def test_to_dict_carries_derived_summaries(self, net):
        data = network_stats(net).to_dict()
        assert data["gini"] == pytest.approx(network_stats(net).gini)
        assert {"count", "term"} <= set(data["hottest_terms"][0])
        assert all("postings" in p for p in data["peers"])
        assert data["total_postings"] == sum(p["postings"] for p in data["peers"])


class TestTrafficMeterAccounting:
    """Satellite coverage for the meter paths the experiments lean on."""

    def test_negative_byte_rejection_leaves_state_untouched(self):
        from repro.sim.meter import TrafficMeter

        m = TrafficMeter()
        m.record("postings", 10)
        with pytest.raises(ValueError):
            m.record("postings", -1)
        assert m.bytes("postings") == 10
        assert m.messages("postings") == 1

    def test_delta_since_sees_new_categories(self):
        from repro.sim.meter import TrafficMeter

        m = TrafficMeter()
        m.record("postings", 5)
        snap = m.snapshot()
        m.record("filters", 3)
        assert m.delta_since(snap) == {"postings": 0, "filters": 3}

    def test_delta_since_after_reset_goes_negative(self):
        """A reset between snapshot and delta shows up as negative — the
        caller's bug, but the arithmetic must stay honest."""
        from repro.sim.meter import TrafficMeter

        m = TrafficMeter()
        m.record("a", 9)
        snap = m.snapshot()
        m.reset()
        assert m.delta_since(snap) == {"a": -9}

    def test_reset_clears_messages_too(self):
        from repro.sim.meter import TrafficMeter

        m = TrafficMeter()
        m.record("a", 5)
        m.reset()
        assert m.bytes() == 0
        assert m.messages() == 0
