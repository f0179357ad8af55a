"""Tests for the DHT substrate: ids, routing, API, replication, failures."""

import math

import pytest

from repro.dht.network import DhtNetwork
from repro.dht.nodeid import DIGITS, NodeId, key_id
from repro.errors import DhtError, NoSuchPeerError
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting


def P(start, peer=0, doc=0):
    return Posting(peer, doc, start, start + 1, 1)


class TestNodeId:
    def test_from_uri_deterministic(self):
        assert NodeId.from_uri("peer://1") == NodeId.from_uri("peer://1")
        assert NodeId.from_uri("peer://1") != NodeId.from_uri("peer://2")

    def test_digits(self):
        nid = NodeId(0xA5 << 120)
        assert nid.digit(0) == 0xA
        assert nid.digit(1) == 0x5
        assert nid.digit(2) == 0x0

    def test_shared_prefix(self):
        a = NodeId(0x12345 << 108)
        b = NodeId(0x12999 << 108)
        assert a.shared_prefix_len(b) == 2
        assert a.shared_prefix_len(a) == DIGITS

    def test_ring_distance_wraps(self):
        a, b = NodeId(1), NodeId((1 << 128) - 1)
        assert a.distance(b) == 2

    def test_key_id_stable(self):
        assert key_id("elem:author") == key_id("elem:author")


class TestRouting:
    def test_route_reaches_global_owner(self):
        net = DhtNetwork.create(40, replication=1)
        for key in ("elem:author", "word:xml", "overflow:3:elem:title", "doc:1:2"):
            expected = net.owner_of(key)
            for src in net.nodes[::7]:
                owner, hops = net.route(src, key)
                assert owner is expected, key

    def test_hop_counts_logarithmic(self):
        net = DhtNetwork.create(64, replication=1)
        worst = 0
        for i in range(50):
            key = "key:%d" % i
            _, hops = net.route(net.nodes[i % 64], key)
            worst = max(worst, hops)
        # Pastry bound: ~log16(64) ≈ 2, allow slack for leaf-set hops
        assert worst <= math.ceil(math.log(64, 16)) + 3

    def test_route_from_owner_is_zero_hops(self):
        net = DhtNetwork.create(16, replication=1)
        key = "elem:title"
        owner = net.owner_of(key)
        _, hops = net.route(owner, key)
        assert hops == 0

    def test_single_node_owns_everything(self):
        net = DhtNetwork.create(1, replication=1)
        owner, hops = net.route(net.nodes[0], "anything")
        assert owner is net.nodes[0] and hops == 0

    def test_empty_network_rejected(self):
        net = DhtNetwork(replication=1)
        with pytest.raises(DhtError):
            net.owner_of("k")


class TestDhtApi:
    def test_append_then_get(self):
        net = DhtNetwork.create(10, replication=1)
        src = net.nodes[0]
        net.append(src, "t", [P(3)])
        net.append(src, "t", [P(1)])
        plist, receipt = net.get(src, "t")
        assert [p.start for p in plist] == [1, 3]
        assert receipt.duration_s > 0

    def test_get_missing_key(self):
        net = DhtNetwork.create(4, replication=1)
        plist, _ = net.get(net.nodes[0], "missing")
        assert len(plist) == 0

    def test_delete(self):
        net = DhtNetwork.create(6, replication=1)
        src = net.nodes[0]
        net.append(src, "t", [P(1), P(3)])
        removed, _ = net.delete(src, "t", [P(1)])
        assert removed
        plist, _ = net.get(src, "t")
        assert [p.start for p in plist] == [3]

    def test_delete_a_run_is_one_routed_request(self):
        net = DhtNetwork.create(6, replication=2)
        src = net.nodes[0]
        net.append(src, "t", [P(1), P(3), P(5)])
        run = PostingList([P(1), P(2), P(5)])
        messages = net.meter.messages()
        removed, receipt = net.delete(src, "t", run)
        assert removed == 2  # P(2) was never there
        assert net.meter.messages() - messages == 1
        assert receipt.request_bytes == encoded_size(run) * max(1, receipt.hops)
        for node in net.replica_nodes("t"):  # the copies follow, off the wire
            assert [p.start for p in node.store.get("t")] == [3]

    def test_pipelined_get_chunks(self):
        net = DhtNetwork.create(6, replication=1)
        src = net.nodes[0]
        net.append(src, "t", [P(i) for i in range(1, 101, 2)])
        chunks, receipt = net.pipelined_get(src, "t", chunk_postings=16)
        assert [len(c) for c in chunks] == [16, 16, 16, 2]
        merged = PostingList.concat(chunks)
        full, _ = net.get(src, "t")
        assert merged.items() == full.items()
        assert receipt.response_bytes > 0

    def test_pipelined_get_empty(self):
        net = DhtNetwork.create(4, replication=1)
        chunks, _ = net.pipelined_get(net.nodes[0], "none")
        assert chunks == []

    def test_pipelined_get_emptied_key(self):
        net = DhtNetwork.create(4, replication=1)
        src = net.nodes[0]
        net.append(src, "t", [P(1)])
        net.delete(src, "t")
        chunks, receipt = net.pipelined_get(src, "t")
        assert chunks == []
        assert receipt.response_bytes == 0
        # still pays the locate plus the fixed per-op latencies of an
        # empty first "chunk" — but no payload-proportional cost
        _, locate_receipt = net.locate(src, "t", _observe=False)
        expected = (
            locate_receipt.duration_s
            + net.cost.disk_read_time(0)
            + net.cost.transfer_time(0, hops=1)
        )
        assert receipt.duration_s == pytest.approx(expected)

    def test_pipelined_get_exact_chunk_boundary(self):
        net = DhtNetwork.create(6, replication=1)
        src = net.nodes[0]
        net.append(src, "t", [P(i) for i in range(16)])
        chunks, receipt = net.pipelined_get(src, "t", chunk_postings=16)
        assert [len(c) for c in chunks] == [16]
        full, _ = net.get(src, "t")
        assert chunks[0].items() == full.items()
        assert receipt.response_bytes == encoded_size(chunks[0])

    def test_pipelined_get_receipt_covers_first_chunk_only(self):
        net = DhtNetwork.create(6, replication=1)
        src = net.nodes[0]
        net.append(src, "t", [P(i) for i in range(64)])
        chunks, receipt = net.pipelined_get(src, "t", chunk_postings=16)
        assert [len(c) for c in chunks] == [16, 16, 16, 16]
        # duration is time-to-first-data: locate + disk + one-hop transfer
        # of the first chunk only; later chunks are the executor's problem
        _, locate_receipt = net.locate(src, "t", _observe=False)
        first = encoded_size(chunks[0])
        expected = (
            locate_receipt.duration_s
            + net.cost.disk_read_time(first)
            + net.cost.transfer_time(first, hops=1)
        )
        assert receipt.duration_s == pytest.approx(expected)
        # ...but the byte accounting covers the whole list
        assert receipt.response_bytes == sum(encoded_size(c) for c in chunks)

    def test_traffic_recorded(self):
        net = DhtNetwork.create(6, replication=1)
        net.append(net.nodes[0], "t", [P(1)])
        assert net.meter.bytes("postings") > 0
        net.get(net.nodes[0], "t")
        assert net.meter.bytes("control") > 0

    def test_objects(self):
        net = DhtNetwork.create(6, replication=2)
        net.put_object(net.nodes[0], "obj:1", {"x": 1}, nbytes=20)
        obj, receipt = net.get_object(net.nodes[3], "obj:1")
        assert obj == {"x": 1}
        missing, _ = net.get_object(net.nodes[3], "obj:2")
        assert missing is None

    def test_multi_hop_requests_cost_more(self):
        net = DhtNetwork.create(64, replication=1)
        key = "elem:author"
        owner = net.owner_of(key)
        far = next(n for n in net.nodes if n is not owner)
        r_far = net.append(far, key, [P(1)])
        r_near = net.append(owner, key, [P(3)])
        assert r_far.hops >= r_near.hops


class TestReplication:
    def test_replicas_hold_copies(self):
        net = DhtNetwork.create(10, replication=3)
        net.append(net.nodes[0], "t", [P(1)])
        holders = [n for n in net.nodes if "t" in n.store]
        assert len(holders) == 3

    def test_replication_factor_validated(self):
        with pytest.raises(ValueError):
            DhtNetwork(replication=0)

    def test_data_survives_owner_failure(self):
        net = DhtNetwork.create(10, replication=3)
        src = net.nodes[0]
        net.append(src, "t", [P(1), P(5)])
        owner = net.owner_of("t")
        src2 = next(n for n in net.nodes if n is not owner)
        net.remove_node(owner)
        plist, _ = net.get(src2, "t")
        assert [p.start for p in plist] == [1, 5]

    def test_objects_survive_owner_failure(self):
        net = DhtNetwork.create(10, replication=3)
        net.put_object(net.nodes[0], "o", "payload", nbytes=7)
        owner = net.owner_of("o")
        net.remove_node(owner)
        obj, _ = net.get_object(net.alive_nodes()[0], "o")
        assert obj == "payload"

    def test_double_removal_rejected(self):
        net = DhtNetwork.create(5, replication=1)
        node = net.nodes[2]
        net.remove_node(node)
        with pytest.raises(NoSuchPeerError):
            net.remove_node(node)

    def test_routing_from_dead_node_rejected(self):
        net = DhtNetwork.create(5, replication=1)
        node = net.nodes[2]
        net.remove_node(node)
        with pytest.raises(NoSuchPeerError):
            net.route(node, "k")

    def test_routing_still_works_after_failures(self):
        net = DhtNetwork.create(20, replication=2)
        for node in (net.nodes[3], net.nodes[11], net.nodes[17]):
            net.remove_node(node)
        for key in ("a", "b", "c"):
            owner, _ = net.route(net.alive_nodes()[0], key)
            assert owner is net.owner_of(key)

    def test_node_id_collision_rejected(self):
        from repro.storage.clustered import ClusteredIndexStore

        net = DhtNetwork.create(3, replication=1)
        with pytest.raises(DhtError):
            net.add_node("peer://1", ClusteredIndexStore())


class TestJoinHandover:
    def test_new_owner_receives_keys(self):
        """Data published before a join must remain reachable after it."""
        net = DhtNetwork.create(6, replication=2)
        keys = ["k:%d" % i for i in range(30)]
        for i, key in enumerate(keys):
            net.append(net.nodes[0], key, [P(2 * i + 1)])
        owners_before = {key: net.owner_of(key) for key in keys}
        from repro.storage.clustered import ClusteredIndexStore

        joined = net.add_node("peer://late-joiner", ClusteredIndexStore())
        moved = [k for k in keys if net.owner_of(k) is joined]
        assert moved, "a join over 30 keys should capture some key space"
        for key in keys:
            plist, _ = net.get(net.nodes[0], key)
            assert len(plist) == 1, key

    def test_join_into_empty_ring_is_cheap(self):
        net = DhtNetwork.create(3, replication=1)
        before = net.meter.bytes()
        from repro.storage.clustered import ClusteredIndexStore

        net.add_node("peer://fresh", ClusteredIndexStore())
        assert net.meter.bytes() == before

    def test_kadop_peer_join_end_to_end(self):
        from repro.kadop.config import KadopConfig
        from repro.kadop.system import KadopNetwork

        system = KadopNetwork.create(num_peers=5, config=KadopConfig(replication=1))
        for i in range(6):
            system.peers[0].publish(
                "<a><b>term%d xyz</b></a>" % i, uri="u:%d" % i
            )
        before = system.query("//a//b")
        system.add_peer("kadop://late")
        after = system.query("//a//b")
        assert [a.bindings for a in after] == [a.bindings for a in before]


class TestReplicationExceeded:
    def test_data_loss_detected_by_verification(self):
        """Killing more peers than the replication factor loses index
        entries; verify_query is the tool that detects it."""
        from repro.kadop.config import KadopConfig
        from repro.kadop.system import KadopNetwork
        from repro.kadop.verify import verify_query
        from repro.postings.term_relation import label_key

        net = KadopNetwork.create(
            num_peers=10, config=KadopConfig(replication=2), seed=8
        )
        net.peers[0].publish("<a><b>payload</b></a>", uri="u")
        key = label_key("b")
        # kill every holder of the key (owner + its single replica)
        holders = [n for n in net.net.alive_nodes() if key in n.store]
        assert len(holders) == 2
        for node in holders:
            if node is not net.peers[0].node:
                net.net.remove_node(node, rehome=False)
        report = verify_query(net, "//a//b")
        if net.peers[0].node.alive and key in net.peers[0].node.store:
            assert report.recall_ok  # the publisher happened to hold a copy
        else:
            assert not report.recall_ok
