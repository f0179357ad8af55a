"""Tests for the Chord overlay (substrate-independence of KadoP)."""

import math

import pytest

from repro.dht.chord import _in_interval_open_closed
from repro.dht.network import DhtNetwork
from repro.dht.nodeid import NodeId, key_id
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings.posting import Posting


def P(start, peer=0, doc=0):
    return Posting(peer, doc, start, start + 1, 1)


def chord_owner(key_ring_id, ring):
    """Reference ``successor(key)`` over a sorted list of ids: the first
    id at or after the key, wrapping to the smallest."""
    return next((i for i in ring if i >= key_ring_id), ring[0])


class TestIntervals:
    def test_plain_interval(self):
        assert _in_interval_open_closed(5, 2, 7)
        assert not _in_interval_open_closed(2, 2, 7)
        assert _in_interval_open_closed(7, 2, 7)

    def test_wrapped_interval(self):
        assert _in_interval_open_closed(1, 9, 3)
        assert _in_interval_open_closed(10, 9, 3)
        assert not _in_interval_open_closed(5, 9, 3)


class TestChordOwnership:
    def test_owner_is_successor(self):
        ring = sorted(NodeId(v) for v in (100, 200, 300))
        assert chord_owner(150, ring) == 200
        assert chord_owner(200, ring) == 200
        assert chord_owner(301, ring) == 100  # wraps

    def test_network_owner_matches_successor_rule(self):
        net = DhtNetwork.create(30, replication=1, overlay="chord")
        ring = sorted(n.node_id for n in net.nodes)
        for i in range(20):
            key = "key:%d" % i
            expected_id = chord_owner(key_id(key), ring)
            assert int(net.owner_of(key).node_id) == int(expected_id)


class TestChordRouting:
    def test_routing_reaches_owner(self):
        net = DhtNetwork.create(40, replication=1, overlay="chord")
        for i in range(30):
            key = "key:%d" % i
            expected = net.owner_of(key)
            owner, hops = net.route(net.nodes[i % 40], key)
            assert owner is expected, key

    def test_hops_logarithmic(self):
        net = DhtNetwork.create(64, replication=1, overlay="chord")
        worst = 0
        for i in range(60):
            _, hops = net.route(net.nodes[i % 64], "key:%d" % i)
            worst = max(worst, hops)
        assert worst <= math.ceil(math.log2(64)) + 3

    def test_single_node(self):
        net = DhtNetwork.create(1, replication=1, overlay="chord")
        owner, hops = net.route(net.nodes[0], "anything")
        assert owner is net.nodes[0] and hops == 0

    def test_replicas_are_successors(self):
        net = DhtNetwork.create(12, replication=3, overlay="chord")
        key = "k"
        replicas = net.replica_nodes(key)
        ring = sorted(net.nodes, key=lambda n: int(n.node_id))
        start = ring.index(replicas[0])
        expected = [ring[(start + k) % len(ring)] for k in range(3)]
        assert replicas == expected

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_hash_owner_backs_up_a_placed_key(self, overlay):
        """A placed node leads the replica set and the hash owner stays on
        as a backup, under either overlay: an append acknowledged while the
        key is placed survives the placed node's crash."""
        from repro.dht.replicas import reconcile

        net = DhtNetwork.create(12, replication=2, overlay=overlay)
        target = net.nodes[7]
        owner = net.owner_of("k")
        assert target not in net.replica_nodes("k")
        net.append(net.nodes[0], "k", [P(1)])
        reconcile(net, "k", [target])
        net.set_placement("k", target)
        assert net.replica_nodes("k") == [target, owner]
        net.append(net.nodes[0], "k", [P(5)])
        net.crash_node(target)
        plist, _ = net.get(net.nodes[0], "k")
        assert [p.start for p in plist] == [1, 5]

    def test_bad_overlay_rejected(self):
        with pytest.raises(ValueError):
            DhtNetwork(overlay="kademlia")


class TestChordDhtApi:
    def test_append_get_survive_failure(self):
        net = DhtNetwork.create(12, replication=3, overlay="chord")
        net.append(net.nodes[0], "t", [P(1), P(5)])
        owner = net.owner_of("t")
        src = next(n for n in net.nodes if n is not owner)
        net.remove_node(owner)
        plist, _ = net.get(src, "t")
        assert [p.start for p in plist] == [1, 5]

    def test_join_handover(self):
        from repro.storage.clustered import ClusteredIndexStore

        net = DhtNetwork.create(6, replication=2, overlay="chord")
        keys = ["k:%d" % i for i in range(25)]
        for i, key in enumerate(keys):
            net.append(net.nodes[0], key, [P(2 * i + 1)])
        net.add_node("peer://late", ClusteredIndexStore())
        for key in keys:
            plist, _ = net.get(net.nodes[0], key)
            assert len(plist) == 1, key


class TestKadopOverChord:
    """The paper's claim: the techniques assume only the DHT interface."""

    QUERIES = [
        ("//article//author", ()),
        ("//article[//title]//author", ()),
        ("//article//author//Smith", ("Smith",)),
    ]

    def _pair(self, **kwargs):
        from repro.workloads.dblp import DblpGenerator

        nets = []
        for overlay in ("pastry", "chord"):
            config = KadopConfig(replication=1, overlay=overlay, **kwargs)
            net = KadopNetwork.create(num_peers=10, config=config, seed=9)
            gen = DblpGenerator(seed=9, target_doc_bytes=3000)
            for i, doc in enumerate(gen.documents(6)):
                net.peers[i % 4].publish(doc, uri="d:%d" % i)
            nets.append(net)
        return nets

    def test_same_answers_plain(self):
        pastry, chord = self._pair()
        for query, kw in self.QUERIES:
            a1 = pastry.query(query, keyword_steps=kw)
            a2 = chord.query(query, keyword_steps=kw)
            assert [a.bindings for a in a1] == [a.bindings for a in a2], query

    def test_same_answers_with_dpp(self):
        pastry, chord = self._pair(use_dpp=True, dpp_block_entries=25)
        for query, kw in self.QUERIES:
            a1 = pastry.query(query, keyword_steps=kw)
            a2 = chord.query(query, keyword_steps=kw)
            assert [a.bindings for a in a1] == [a.bindings for a in a2], query

    def test_bloom_strategies_over_chord(self):
        _, chord = self._pair()
        baseline = chord.query("//article//author")
        for strategy in ("ab", "db", "bloom", "subquery", "auto", "pushdown"):
            assert chord.query("//article//author", strategy=strategy) == baseline

    def test_config_validates_overlay(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            KadopConfig(overlay="bogus")
