"""End-to-end tests of the KadoP facade: publish, query, config, reports."""

import pytest

from repro.errors import ConfigError, UnindexableQueryError
from repro.kadop.config import KadopConfig
from repro.kadop.execution import Answer
from repro.kadop.system import KadopNetwork


class TestPublish:
    def test_publish_receipt(self, small_net):
        receipt = small_net.peers[0].publish("<a><b>x</b></a>", uri="u:1")
        assert receipt.documents == 1
        assert receipt.postings == 3  # a, b, word x
        assert receipt.duration_s > 0
        assert receipt.bytes_sent > 0

    def test_doc_ids_sequential_per_peer(self, small_net):
        p = small_net.peers[1]
        p.publish("<a/>", uri="u:1")
        p.publish("<b/>", uri="u:2")
        assert sorted(p.documents) == [0, 1]

    def test_catalog_registration(self, small_net):
        small_net.peers[2].publish("<a/>", uri="doc:uri:42")
        assert (
            small_net.catalog.doc_uri(small_net.peers[0].node, 2, 0) == "doc:uri:42"
        )
        assert small_net.catalog.peer_uri(
            small_net.peers[0].node, 3
        ) == small_net.peers[3].uri

    def test_postings_routed_to_term_owner(self, small_net):
        from repro.postings.term_relation import label_key

        small_net.peers[0].publish("<zzz/>", uri="u:z")
        owner = small_net.net.owner_of(label_key("zzz"))
        assert label_key("zzz") in owner.store

    def test_document_count(self, small_net):
        before = small_net.document_count()
        small_net.peers[0].publish("<a/>", uri="x")
        assert small_net.document_count() == before + 1


class TestQueryEndToEnd:
    def test_multi_peer_answers(self, dblp_net):
        answers = dblp_net.query("//article//author")
        assert answers
        assert len({a.peer for a in answers}) > 1

    def test_answers_sorted(self, dblp_net):
        answers = dblp_net.query("//dblp//author")
        keys = [(a.peer, a.doc, a.bindings) for a in answers]
        assert keys == sorted(keys)

    def test_query_from_any_peer_same_result(self, dblp_net):
        a0 = dblp_net.query("//article//title", peer=dblp_net.peers[0])
        a7 = dblp_net.query("//article//title", peer=dblp_net.peers[7])
        assert [a.bindings for a in a0] == [a.bindings for a in a7]

    def test_no_match(self, dblp_net):
        assert dblp_net.query("//nonexistent//thing") == []

    def test_unindexable_query_raises_a_typed_error(self, dblp_net):
        with pytest.raises(UnindexableQueryError, match="no indexable term"):
            dblp_net.query("//*")

    def test_report_fields(self, dblp_net):
        answers, report = dblp_net.query_with_report("//article//author")
        assert report.response_time_s > 0
        assert report.index_time_s > 0
        assert report.postings_fetched > 0
        assert report.candidate_docs >= len({a.doc_id for a in answers})
        assert report.total_bytes > 0
        assert report.precise

    def test_imprecise_flag_for_wildcards(self, dblp_net):
        _, report = dblp_net.query_with_report("//*//author")
        assert not report.precise

    def test_answer_accessors(self, dblp_net):
        (answer, *_rest) = dblp_net.query("//article//author")
        assert answer.doc_id == (answer.peer, answer.doc)
        assert answer.binding_of(0).peer == answer.peer
        with pytest.raises(KeyError):
            answer.binding_of(99)

    def test_blocking_vs_pipelined_same_answers(self, dblp_generator):
        nets = []
        for pipelined in (True, False):
            net = KadopNetwork.create(
                num_peers=6,
                config=KadopConfig(pipelined_get=pipelined, replication=1),
                seed=3,
            )
            for i, doc in enumerate(dblp_generator.documents(4)):
                net.peers[i % 3].publish(doc, uri="d:%d" % i)
            nets.append(net)
        a_pipe, r_pipe = nets[0].query_with_report("//article//author")
        a_block, r_block = nets[1].query_with_report("//article//author")
        assert [a.bindings for a in a_pipe] == [a.bindings for a in a_block]
        # pipelining can only improve the time to the first answer
        assert r_pipe.time_to_first_s <= r_block.time_to_first_s

    def test_pattern_object_accepted(self, dblp_net):
        pattern = dblp_net.parse("//article//author")
        answers = dblp_net.query(pattern)
        assert answers == dblp_net.query("//article//author")

    def test_forest_query_intersects_docs(self, dblp_net):
        wild = dblp_net.query("//*[//article]//booktitle")
        # every answer doc must truly contain both article and booktitle
        for answer in wild:
            doc = dblp_net.peers[answer.peer].documents[answer.doc]
            labels = {e.label for e in doc.iter_elements()}
            assert "article" in labels and "booktitle" in labels


class TestNaiveStoreConfig:
    def test_naive_store_same_answers(self, dblp_generator):
        naive = KadopNetwork.create(
            num_peers=6,
            config=KadopConfig(store_backend="naive", replication=1),
            seed=3,
        )
        btree = KadopNetwork.create(
            num_peers=6, config=KadopConfig(replication=1), seed=3
        )
        for i, doc in enumerate(dblp_generator.documents(3)):
            naive.peers[i % 2].publish(doc, uri="d:%d" % i)
            btree.peers[i % 2].publish(doc, uri="d:%d" % i)
        q = "//article//author"
        assert [a.bindings for a in naive.query(q)] == [
            a.bindings for a in btree.query(q)
        ]

    def test_naive_store_insert_cost_grows_superlinearly(self):
        """Section 3: the PAST-style store's simulated insert time blows up
        as the stored list grows, the B+-tree's does not.  (At toy corpus
        sizes end-to-end publish time is latency-bound, so this compares
        the store cost component directly; the store-ablation benchmark
        measures the end-to-end gap at scale.)"""
        from repro.postings.posting import Posting
        from repro.sim.cost import CostModel
        from repro.storage.clustered import ClusteredIndexStore
        from repro.storage.naive_store import NaiveGzipStore

        cost = CostModel()

        def insert_cost(store, batches):
            import random

            rng = random.Random(1)
            start = 0
            for _ in range(batches):
                batch = []
                for _ in range(50):
                    start += rng.randint(1, 50)
                    batch.append(Posting(0, 0, start, start + 1, 1))
                store.append("author", batch)
            return store.stats.delta_since((0, 0, 0)).cost_seconds(cost)

        naive_growth = insert_cost(NaiveGzipStore(), 800) / insert_cost(
            NaiveGzipStore(), 200
        )
        btree_growth = insert_cost(ClusteredIndexStore(), 800) / insert_cost(
            ClusteredIndexStore(), 200
        )
        # 4x the batches: linear cost grows ~4x, quadratic ~16x
        assert btree_growth < 6
        assert naive_growth > 1.8 * btree_growth


class TestConfigValidation:
    def test_bad_store(self):
        with pytest.raises(ConfigError):
            KadopConfig(store_backend="bogus")

    def test_bad_strategy(self):
        with pytest.raises(ConfigError):
            KadopConfig(filter_strategy="bogus")

    def test_bad_parallelism(self):
        with pytest.raises(ConfigError):
            KadopConfig(parallelism=0)

    def test_bad_fp_rates(self):
        with pytest.raises(ConfigError):
            KadopConfig(ab_fp_rate=0)
        with pytest.raises(ConfigError):
            KadopConfig(db_fp_rate=1.0)

    def test_bad_chunk(self):
        with pytest.raises(ConfigError):
            KadopConfig(chunk_postings=0)

    def test_bad_replication_and_dpp_knobs(self):
        """Once a bare ValueError from DhtNetwork / DppIndex, inside
        ``KadopNetwork.create``."""
        for bad in (
            {"replication": 0},
            {"use_dpp": True, "dpp_block_entries": 1},
        ):
            with pytest.raises(ConfigError):
                KadopConfig(**bad)


class TestResilience:
    def test_query_survives_replicated_peer_failure(self, dblp_generator):
        net = KadopNetwork.create(
            num_peers=10, config=KadopConfig(replication=3), seed=4
        )
        for i, doc in enumerate(dblp_generator.documents(4)):
            net.peers[0].publish(doc, uri="d:%d" % i)
        baseline = net.query("//article//title")
        from repro.postings.term_relation import label_key

        victim = net.net.owner_of(label_key("title"))
        # never kill a document-holding peer: only index data is replicated
        if victim.peer_index != 0:
            net.net.remove_node(victim)
            after = net.query("//article//title")
            assert [a.bindings for a in after] == [a.bindings for a in baseline]


class TestDocumentModification:
    def test_unpublish_removes_answers(self, small_net):
        peer = small_net.peers[0]
        peer.publish("<a><b>keepme</b></a>", uri="u:1")
        peer.publish("<a><b>dropme</b></a>", uri="u:2")
        assert len(small_net.query("//a//b")) == 2
        removed = peer.unpublish(1)
        assert removed > 0
        answers = small_net.query("//a//b")
        assert len(answers) == 1
        assert answers[0].doc == 0

    def test_unpublish_unknown_doc(self, small_net):
        with pytest.raises(KeyError):
            small_net.peers[0].unpublish(99)

    def test_republish_is_delete_plus_insert(self, small_net):
        peer = small_net.peers[1]
        peer.publish("<a><b>old words</b></a>", uri="u:1")
        peer.republish(0, "<a><b>new words</b></a>", uri="u:1b")
        assert small_net.query("//a//b//old", keyword_steps={"old"}) == []
        assert len(small_net.query("//a//b//new", keyword_steps={"new"})) == 1

    def test_unpublish_with_dpp(self):
        config = KadopConfig(use_dpp=True, dpp_block_entries=10, replication=1)
        net = KadopNetwork.create(num_peers=6, config=config, seed=2)
        peer = net.peers[0]
        for i in range(4):
            peer.publish(
                "<r>%s</r>" % "".join("<x>w%d</x>" % j for j in range(15)),
                uri="u:%d" % i,
            )
        before = len(net.query("//r//x"))
        peer.unpublish(2)
        after = len(net.query("//r//x"))
        assert after == before - 15

    def test_replicas_also_cleaned_without_dpp(self):
        config = KadopConfig(replication=3)
        net = KadopNetwork.create(num_peers=8, config=config, seed=5)
        peer = net.peers[0]
        peer.publish("<a><b>gone</b></a>", uri="u:1")
        peer.unpublish(0)
        from repro.postings.term_relation import label_key

        for node in net.net.alive_nodes():
            assert node.store.count(label_key("b")) == 0


class TestFaultyDocumentPeers:
    def test_timeout_marks_answer_incomplete(self):
        """Section 3: faulty peers are detected with time-outs and the
        answer is reported incomplete."""
        net = KadopNetwork.create(
            num_peers=10, config=KadopConfig(replication=3), seed=6
        )
        net.peers[0].publish("<a><b>one</b></a>", uri="u:0")
        net.peers[1].publish("<a><b>two</b></a>", uri="u:1")
        full, report = net.query_with_report("//a//b")
        assert report.complete and len(full) == 2
        net.net.remove_node(net.peers[1].node)
        partial, report = net.query_with_report("//a//b")
        assert not report.complete
        assert report.timed_out_peers == 1
        assert len(partial) == 1
        assert partial[0].peer == 0

    def test_healthy_network_reports_complete(self, dblp_net):
        _, report = dblp_net.query_with_report("//article//author")
        assert report.complete
        assert report.timed_out_peers == 0
