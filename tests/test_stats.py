"""Tests for network introspection statistics."""

from pathlib import Path

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.stats import format_stats, gini, max_over_mean, network_stats
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
        assert stats["total_postings"] == direct
        assert stats["total_terms"] > 10

    def test_hot_terms_are_the_heavy_ones(self, net):
        stats = network_stats(net, top_terms=5)
        hot = {row["term"] for row in stats["hottest_terms"]}
        assert "elem:author" in hot

    def test_gini_reflects_skew(self, net):
        stats = network_stats(net)
        assert 0.0 <= stats["gini"] <= 1.0
        # the DHT spreads terms but posting skew leaves imbalance
        assert stats["max_over_mean"] >= 1.0

    def test_gini_extremes(self):
        assert gini([10] * 4) == pytest.approx(0.0)
        assert gini([100, 0, 0, 0]) > 0.7
        assert gini([]) == 0.0
        assert max_over_mean([]) == 1.0

    def test_dead_peers_excluded(self, net):
        victim = next(
            p for p in net.peers if not p.documents and p.node.alive
        )
        before = len(network_stats(net)["peers"])
        net.net.remove_node(victim.node)
        after = network_stats(net)
        assert len(after["peers"]) == before - 1

    def test_format(self, net):
        text = format_stats(network_stats(net))
        assert "gini" in text and "hottest" in text

    def test_cli_stats(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 0
        assert "load balance" in capsys.readouterr().out


class TestNetworkStatsEdgeCases:
    def test_empty_network(self):
        net = KadopNetwork.create(num_peers=4, config=KadopConfig(replication=1))
        data = network_stats(net)
        assert [p["postings"] for p in data["peers"]] == [0] * 4
        assert data["gini"] == 0.0 and data["max_over_mean"] == 1.0
        assert data["hottest_terms"] == [] and data["hot_keys"] == []
        assert data["balance"] == {}
        assert "balancing:" not in format_stats(data)

    def test_single_peer(self):
        assert gini([42]) == pytest.approx(0.0)
        assert max_over_mean([42]) == pytest.approx(1.0)

    def test_all_zero_loads(self):
        assert gini([0] * 5) == 0.0
        assert max_over_mean([0] * 5) == 1.0

    def test_to_dict_carries_derived_summaries(self, net):
        data = network_stats(net)
        loads = [p["postings"] for p in data["peers"]]
        assert data["gini"] == gini(loads)
        assert data["max_over_mean"] == max_over_mean(loads)
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


class TestHotReads:
    """The hot peers and keys rank the reads the span tree holds."""

    @staticmethod
    def _served(net, reads):
        tracer = net.enable_tracing()
        for peer, key, nbytes in reads:
            tracer.add(
                "dht:get %s" % key, "dht", "peer:0", 0.0, 0.0,
                args={"served_by": peer, "key": key, "payload": nbytes},
            )
        tracer.add("dht:append k", "dht", "peer:0", 0.0, 0.0, args={"served_by": None})

    def test_hottest_ordering_and_truncation(self, net):
        self._served(
            net,
            [(0, "cold", 10), (1, "hot", 300), (3, "warm2", 100),
             (2, "warm", 100), (1, "zero", 0)],
        )
        try:
            top = network_stats(net, top_terms=3)
            every = network_stats(net, top_terms=8)
        finally:
            net.disable_tracing()
        # ties rank by ident; a zero-byte read stays listed
        assert top["hot_keys"] == [
            {"read_bytes": 300, "key": "hot"},
            {"read_bytes": 100, "key": "warm"},
            {"read_bytes": 100, "key": "warm2"},
        ]
        assert every["hot_keys"][-1] == {"read_bytes": 0, "key": "zero"}
        assert top["hot_peers"] == [
            {"read_bytes": 300, "peer": 1},
            {"read_bytes": 100, "peer": 2},
            {"read_bytes": 100, "peer": 3},
        ]
        assert len(every["hot_peers"]) == 4

    def test_untraced_network_lists_no_hot_reads(self, net):
        net.query("//article//author")
        stats = network_stats(net)
        assert stats["hot_keys"] == [] and stats["hot_peers"] == []
        assert "hottest keys" not in format_stats(stats)
        assert stats["balance"]["read_policy"] == "owner"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, golden", [(["stats"], "stats.txt"), (["stats", "--json"], "stats.json")]
)
def test_cli_stats_matches_golden_output(argv, golden, capsys):
    """``repro stats`` and ``repro stats --json`` print exactly the pinned
    files (pure kernels, so the backend line is the same on every leg);
    zero-byte reads stay listed among the hot keys and peers."""
    from repro.cli import main
    from repro.postings import kernels

    previous = kernels.use_backend("pure")
    try:
        assert main(argv) == 0
    finally:
        kernels.use_backend(previous)
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
