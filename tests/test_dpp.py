"""Tests for the DPP distributed posting partitioning (Section 4)."""

import pytest

from repro.dht.network import DhtNetwork
from repro.index.dpp import ZONE_BYTES, Condition, DppIndex, overflow_key
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.workloads.dblp import DblpGenerator


def P(start, doc=0, peer=0):
    return Posting(peer, doc, start, start + 1, 1)


@pytest.fixture
def dpp_net():
    net = DhtNetwork.create(12, replication=1)
    return net, DppIndex(net, max_block_entries=10)


class TestCondition:
    def test_contains(self):
        c = Condition(P(1), P(9))
        assert P(5) in c
        assert P(11) not in c

    def test_doc_intersection(self):
        c = Condition(P(1, doc=2), P(9, doc=5))
        assert c.intersects_docs((0, 3), (0, 4))
        assert c.intersects_docs((0, 5), (0, 9))
        assert not c.intersects_docs((0, 6), (0, 9))
        assert not c.intersects_docs((0, 0), (0, 1))

    def test_ordering(self):
        assert Condition(P(1), P(3)) < Condition(P(5), P(9))


class TestDppInsertion:
    def test_small_list_single_local_block(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 9)])
        assert dpp.block_count("t") == 1
        assert [p.start for p in dpp.full_list(net.nodes[0], "t")] == list(
            range(1, 9)
        )

    def test_overflow_splits(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 31)])
        assert dpp.block_count("t") >= 2
        assert len(dpp.full_list(net.nodes[0], "t")) == 30

    def test_split_moves_block_to_pseudo_key_peer(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 25)])
        owner = net.owner_of("t")
        root = owner.objects[DppIndex.ROOT_KEY_PREFIX + "t"][0]
        remote = [e for e in root.entries if not e.is_local]
        assert remote
        for entry in remote:
            holder = net.owner_of(entry.pseudo_key)
            assert entry.pseudo_key in holder.store

    def test_root_conditions_ordered_and_disjoint(self, dpp_net):
        net, dpp = dpp_net
        for batch_start in (1, 101, 51, 151):
            dpp.append(
                net.nodes[0],
                "t",
                [P(i) for i in range(batch_start, batch_start + 40, 2)],
            )
        owner = net.owner_of("t")
        root = owner.objects[DppIndex.ROOT_KEY_PREFIX + "t"][0]
        root.check_invariants()

    def test_unordered_batches_reassemble_sorted(self, dpp_net):
        net, dpp = dpp_net
        import random

        rng = random.Random(4)
        starts = list(range(1, 200, 2))
        rng.shuffle(starts)
        for i in range(0, len(starts), 7):
            dpp.append(net.nodes[0], "t", sorted(P(s) for s in starts[i : i + 7]))
        full = dpp.full_list(net.nodes[0], "t")
        assert [p.start for p in full] == sorted(starts)

    def test_blocks_respect_conditions(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(net.nodes[0], "t", [P(i, doc=i // 20) for i in range(1, 100, 2)])
        owner = net.owner_of("t")
        root = owner.objects[DppIndex.ROOT_KEY_PREFIX + "t"][0]
        for entry in root.entries:
            postings, _, _ = dpp.fetch_block(net.nodes[0], "t", entry)
            for p in postings:
                assert entry.condition.lo <= p <= entry.condition.hi

    def test_empty_append_noop(self, dpp_net):
        net, dpp = dpp_net
        receipt = dpp.append(net.nodes[0], "t", [])
        assert receipt.duration_s == 0
        assert dpp.block_count("t") == 0

    def test_block_size_validation(self):
        net = DhtNetwork.create(3, replication=1)
        with pytest.raises(ValueError):
            DppIndex(net, max_block_entries=1)

    def test_missing_root(self, dpp_net):
        net, dpp = dpp_net
        root, _ = dpp.root(net.nodes[0], "never-seen")
        assert root is None
        assert len(dpp.full_list(net.nodes[0], "never-seen")) == 0

    def test_overflow_key_format(self):
        assert overflow_key(3, "elem:a") == "overflow:3:elem:a"


class TestDppFetch:
    def test_fetch_block_range_restricted(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(
            net.nodes[0], "t", [P(i, doc=i % 5) for i in range(1, 80, 2)]
        )
        owner = net.owner_of("t")
        root = owner.objects[DppIndex.ROOT_KEY_PREFIX + "t"][0]
        for entry in root.entries:
            postings, _, _ = dpp.fetch_block(
                net.nodes[0], "t", entry, doc_lo=(0, 2), doc_hi=(0, 3)
            )
            assert all(2 <= p.doc <= 3 for p in postings)

    def test_traffic_recorded_per_block(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 30)])
        before = net.meter.bytes("postings")
        owner = net.owner_of("t")
        root = owner.objects[DppIndex.ROOT_KEY_PREFIX + "t"][0]
        dpp.fetch_block(net.nodes[0], "t", root.entries[0])
        assert net.meter.bytes("postings") > before


class TestDppQueryEquivalence:
    def _build(self, use_dpp):
        config = KadopConfig(
            use_dpp=use_dpp, dpp_block_entries=25, replication=1
        )
        net = KadopNetwork.create(num_peers=10, config=config, seed=5)
        gen = DblpGenerator(seed=9, target_doc_bytes=2500)
        for i, doc in enumerate(gen.documents(6)):
            net.peers[i % 4].publish(doc, uri="d:%d" % i)
        return net

    @pytest.mark.parametrize(
        "query,keywords",
        [
            ("//article//author", ()),
            ("//inproceedings//title", ()),
            ("//dblp//article//journal", ()),
            ("//article//author//Smith", ("Smith",)),
            ("//article[//title]//author", ()),
        ],
    )
    def test_same_answers_with_and_without_dpp(self, query, keywords):
        with_dpp = self._build(True)
        without = self._build(False)
        a1, r1 = with_dpp.query_with_report(query, keyword_steps=keywords)
        a2, r2 = without.query_with_report(query, keyword_steps=keywords)
        assert [a.bindings for a in a1] == [a.bindings for a in a2]

    def test_dpp_blocks_fetched_reported(self):
        net = self._build(True)
        _, report = net.query_with_report("//article//author")
        assert report.blocks_fetched >= 1

    def test_forest_query_sums_component_block_counters(self):
        """A wildcard splits the pattern into an `author` and a `journal`
        component; the report counts the blocks of both."""
        config = KadopConfig(use_dpp=True, dpp_block_entries=16)
        net = KadopNetwork.create(num_peers=8, config=config, seed=0)
        gen = DblpGenerator(seed=3, target_doc_bytes=4096)
        for i, doc in enumerate(gen.documents(12)):
            net.peers[i % 8].publish(doc, uri="d:%d" % i)
        _, forest = net.query_with_report("//*[//author]//journal")
        parts = [net.query_with_report(q)[1] for q in ("//*[//author]", "//journal")]
        assert forest.blocks_fetched == sum(r.blocks_fetched for r in parts) == 18
        assert forest.blocks_skipped == sum(r.blocks_skipped for r in parts)

    def test_min_max_filter_skips_blocks(self):
        """A term confined to few documents prunes the other term's blocks."""
        config = KadopConfig(use_dpp=True, dpp_block_entries=20, replication=1)
        net = KadopNetwork.create(num_peers=8, config=config, seed=3)
        # 'a' spans many docs; 'rare' appears only in the last doc
        for d in range(12):
            body = "".join("<a>x%d</a>" % i for i in range(30))
            if d == 11:
                body += "<rare>hit</rare>"
            net.peers[0].publish("<r>%s</r>" % body, uri="u:%d" % d)
        _, report = net.query_with_report("//r[//rare]//a")
        assert report.blocks_skipped > 0
        answers, _ = net.query_with_report("//r[//rare]//a")
        assert len(answers) == 30  # only the doc with 'rare'


class TestZoneMaps:
    """Per-block synopses (count, start span, level span) on the root."""

    def _root(self, net, key):
        return net.owner_of(key).objects[DppIndex.ROOT_KEY_PREFIX + key][0]

    def test_zones_exactly_cover_block_contents(self, dpp_net):
        net, dpp = dpp_net
        postings = [
            Posting(0, i % 5, i, i + 3, i % 4) for i in range(1, 80, 2)
        ]
        dpp.append(net.nodes[0], "t", postings)
        assert dpp.block_count("t") >= 2
        total = 0
        for entry in self._root(net, "t").entries:
            zone = entry.zone
            assert zone is not None
            block, _, _ = dpp.fetch_block(net.nodes[0], "t", entry)
            assert zone.count == len(block)
            assert zone.min_start == min(p.start for p in block)
            assert zone.max_start == max(p.start for p in block)
            assert zone.min_level == min(p.level for p in block)
            assert zone.max_level == max(p.level for p in block)
            total += len(block)
        assert total == len(postings)

    def test_zone_widens_across_appends(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 6)])
        zone = self._root(net, "t").entries[0].zone
        assert (zone.min_start, zone.max_start, zone.count) == (1, 5, 5)
        dpp.append(net.nodes[0], "t", [P(i) for i in range(6, 9)])
        zone = self._root(net, "t").entries[0].zone
        assert (zone.min_start, zone.max_start, zone.count) == (1, 8, 8)

    def test_split_zones_partition_the_start_range(self, dpp_net):
        net, dpp = dpp_net
        # single doc, ascending starts: block order == start order, so
        # post-split zones must carry disjoint, increasing start spans
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 31)])
        entries = self._root(net, "t").entries
        assert len(entries) >= 2
        for prev, cur in zip(entries, entries[1:]):
            assert prev.zone.max_start < cur.zone.min_start

    def test_encoded_bytes_include_zones(self, dpp_net):
        net, dpp = dpp_net
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 31)])
        root = self._root(net, "t")
        with_zones = root.encoded_bytes()
        saved = [entry.zone for entry in root.entries]
        try:
            for entry in root.entries:
                entry.zone = None
            without = root.encoded_bytes()
        finally:
            for entry, zone in zip(root.entries, saved):
                entry.zone = zone
        assert with_zones == without + ZONE_BYTES * len(root.entries)


class TestTypeFiltering:
    """Section 4.1: type information in DPP conditions filters blocks."""

    def _mixed_network(self):
        config = KadopConfig(use_dpp=True, dpp_block_entries=30, replication=1)
        net = KadopNetwork.create(num_peers=8, config=config, seed=11)
        # type 'catalog': has <item> and <price>; type 'log': has <item> only
        for d in range(4):
            body = "".join(
                "<item>i%d</item><price>%d</price>" % (i, i) for i in range(20)
            )
            net.peers[0].publish("<catalog>%s</catalog>" % body, uri="c:%d" % d)
        for d in range(4):
            body = "".join("<item>e%d</item>" % i for i in range(20))
            net.peers[1].publish("<log>%s</log>" % body, uri="l:%d" % d)
        return net

    def test_blocks_tagged_with_types(self):
        net = self._mixed_network()
        from repro.postings.term_relation import label_key

        owner = net.net.owner_of(label_key("item"))
        root = owner.objects[DppIndex.ROOT_KEY_PREFIX + label_key("item")][0]
        all_types = set()
        for entry in root.entries:
            all_types |= entry.types
        assert all_types == {"catalog", "log"}

    def test_type_mismatch_skips_blocks(self):
        """A query joining item with price can only match 'catalog' docs,
        so 'log'-only item blocks are skipped."""
        net = self._mixed_network()
        answers, report = net.query_with_report("//catalog[//price]//item")
        assert len(answers) == 4 * 20 * 20  # item x price pairs per doc
        assert report.blocks_skipped > 0

    def test_answers_identical_to_untyped_run(self):
        net = self._mixed_network()
        plain_config = KadopConfig(replication=1)
        plain = KadopNetwork.create(num_peers=8, config=plain_config, seed=11)
        for d in range(4):
            body = "".join(
                "<item>i%d</item><price>%d</price>" % (i, i) for i in range(20)
            )
            plain.peers[0].publish("<catalog>%s</catalog>" % body, uri="c:%d" % d)
        for d in range(4):
            body = "".join("<item>e%d</item>" % i for i in range(20))
            plain.peers[1].publish("<log>%s</log>" % body, uri="l:%d" % d)
        q = "//catalog[//price]//item"
        assert [a.bindings for a in net.query(q)] == [
            a.bindings for a in plain.query(q)
        ]

    def test_explicit_doc_type_override(self):
        config = KadopConfig(use_dpp=True, replication=1)
        net = KadopNetwork.create(num_peers=4, config=config, seed=3)
        net.peers[0].publish("<a><b>x</b></a>", uri="u", doc_type="custom")
        from repro.postings.term_relation import label_key

        owner = net.net.owner_of(label_key("b"))
        root = owner.objects[DppIndex.ROOT_KEY_PREFIX + label_key("b")][0]
        assert root.entries[0].types == {"custom"}


class TestDppFailureTolerance:
    """DPP data enjoys the DHT's reliability replication (Section 4.2)."""

    def _replicated_net(self):
        config = KadopConfig(
            use_dpp=True, dpp_block_entries=20, replication=3
        )
        net = KadopNetwork.create(num_peers=12, config=config, seed=6)
        for d in range(4):
            body = "".join("<x>w%d</x>" % i for i in range(15))
            net.peers[d % 2].publish("<r>%s</r>" % body, uri="u:%d" % d)
        return net

    def test_query_survives_term_owner_failure(self):
        net = self._replicated_net()
        from repro.postings.term_relation import label_key

        baseline = net.query("//r//x")
        owner = net.net.owner_of(label_key("x"))
        doc_holders = {0, 1}
        if owner.peer_index in doc_holders:
            return  # cannot kill a document holder without losing answers
        net.net.remove_node(owner.node if hasattr(owner, "node") else owner)
        after = net.query("//r//x")
        assert [a.bindings for a in after] == [a.bindings for a in baseline]

    def test_query_survives_block_holder_failure(self):
        net = self._replicated_net()
        from repro.index.dpp import DppIndex
        from repro.postings.term_relation import label_key

        baseline = net.query("//r//x")
        term_owner = net.net.owner_of(label_key("x"))
        root = term_owner.objects[DppIndex.ROOT_KEY_PREFIX + label_key("x")][0]
        remote = [e for e in root.entries if not e.is_local]
        if not remote:
            return
        holder = net.net.owner_of(remote[0].pseudo_key)
        if holder.peer_index in {0, 1} or holder is term_owner:
            return
        net.net.remove_node(holder)
        after = net.query("//r//x")
        assert [a.bindings for a in after] == [a.bindings for a in baseline]

    def test_routing_alias(self):
        from repro.dht.replicas import routing_alias

        assert routing_alias("dpproot:elem:a") == "elem:a"
        assert routing_alias("dppdata:elem:a") == "elem:a"
        assert routing_alias("overflow:3:elem:a") == "overflow:3:elem:a"
        assert routing_alias("elem:a") == "elem:a"

    def test_root_and_local_block_colocated(self):
        """The root and the first data block live at the term owner even
        after re-homing, because their placement follows the term key."""
        net = self._replicated_net()
        from repro.postings.term_relation import label_key

        key = label_key("x")
        owner = net.net.owner_of(key)
        assert net.net.owner_of("dpproot:" + key) is owner
        assert net.net.owner_of("dppdata:" + key) is owner


class TestPinnedWritePathOddities:
    """Behaviour the write-path refactor (ISSUE 24) found and kept: each is
    recorded here so that the PR that fixes it has a test to turn over."""

    def test_one_oversized_append_splits_once(self):
        """Pinned, see ROADMAP 6.4: ``_split_block`` halves an overfull
        block once, so a delta of 10x the capacity leaves two blocks of 5x
        — and later appends land in the last block, so the first stays
        oversized (a view block under the same delta is cut to capacity,
        ``test_views.py``)."""
        net = DhtNetwork.create(12, replication=1)
        dpp = DppIndex(net, max_block_entries=4)
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 41)])
        root = net.owner_of("t").objects[DppIndex.ROOT_KEY_PREFIX + "t"][0]
        assert [entry.zone.count for entry in root.entries] == [20, 20]
        dpp.append(net.nodes[0], "t", [P(i) for i in range(41, 44)])
        assert [entry.zone.count for entry in root.entries] == [20, 11, 12]

    def test_dpp_delete_skips_the_replicas_until_repair(self):
        """Pinned, see ROADMAP 6.4: the flat ``DhtNetwork.delete`` removes
        a posting on every replica under one stamp; ``DppIndex.delete``
        removes it at the block's holder only, and the replicas keep it at
        the old stamp until anti-entropy repair pushes the rewrite."""

        def copies(key):
            return [
                (node.store.count(key), node.versions[key])
                for node in net.replica_nodes(key)
            ]

        net = DhtNetwork.create(12, replication=2)
        dpp = DppIndex(net, max_block_entries=10)
        dpp.append(net.nodes[0], "t", [P(i) for i in range(1, 7)])
        removed, _ = dpp.delete(net.nodes[0], "t", [P(1), P(2)])
        assert removed == 2
        (held, fresh), (backed_up, stale) = copies("dppdata:t")
        assert (held, backed_up) == (4, 6) and stale < fresh
        net.anti_entropy_repair()
        assert copies("dppdata:t") == [(4, fresh), (4, fresh)]

        net.append(net.nodes[0], "flat", [P(i) for i in range(1, 7)])
        net.delete(net.nodes[0], "flat", [P(1)])
        (count, stamp), backup = copies("flat")
        assert count == 5 and backup == (count, stamp)
