"""Tests for the workload generators."""

import pytest

from repro.workloads.dblp import DblpGenerator, RECORD_KINDS
from repro.workloads.inex import InexGenerator
from repro.workloads.profiles import DATASET_PROFILES, generate_profile_document
from repro.workloads.queries import HEAVY_TERMS, traffic_workload
from repro.xmldata.parser import parse_document


class TestDblpGenerator:
    def test_deterministic(self):
        a = DblpGenerator(seed=4).document(3)
        b = DblpGenerator(seed=4).document(3)
        assert a == b

    def test_seed_changes_content(self):
        assert DblpGenerator(seed=1).document(0) != DblpGenerator(seed=2).document(0)

    def test_target_size(self):
        doc = DblpGenerator(seed=1, target_doc_bytes=20_000).document(0)
        assert 20_000 <= len(doc) <= 22_000

    def test_parses(self):
        doc = parse_document(DblpGenerator(seed=1, target_doc_bytes=4000).document(0))
        assert doc.root.label == "dblp"

    def test_record_mix(self):
        gen = DblpGenerator(seed=1, target_doc_bytes=60_000)
        doc = parse_document(gen.document(0))
        from collections import Counter

        kinds = Counter(e.label for e in doc.root.child_elements())
        assert kinds["inproceedings"] > kinds["article"] > 0
        assert set(kinds) <= {k for k, _ in RECORD_KINDS}

    def test_posting_skew(self):
        """author must dominate title, which dominates inproceedings — the
        skew of Section 4.3 that motivates the DPP."""
        gen = DblpGenerator(seed=2, target_doc_bytes=40_000)
        doc = parse_document(gen.document(0))
        from collections import Counter

        labels = Counter(e.label for e in doc.iter_elements())
        assert labels["author"] > labels["title"] >= labels["inproceedings"]

    def test_rare_author_present_at_scale(self):
        gen = DblpGenerator(seed=3, target_doc_bytes=20_000)
        text = "".join(gen.documents(40))
        count = text.count("Ullman")
        records = text.count("<title>")
        assert 0 < count < records / 50

    def test_documents_for_bytes(self):
        gen = DblpGenerator(seed=1, target_doc_bytes=5000)
        docs = gen.documents_for_bytes(30_000)
        assert sum(len(d) for d in docs) >= 30_000
        assert len(docs) >= 5

    def test_document_counter(self):
        gen = DblpGenerator(seed=1, target_doc_bytes=2000)
        first = gen.document()
        second = gen.document()
        assert first != second


class TestInexGenerator:
    def test_guaranteed_matches(self):
        gen = InexGenerator(seed=3, match_count=5, collection_size=100)
        assert len(gen.matching_ids) == 5
        for i in gen.matching_ids:
            assert "system" in gen.document(i)
            assert "interface" in gen.abstract_text(i)

    def test_documents_parse_with_include(self):
        gen = InexGenerator(seed=3, match_count=2, collection_size=10)
        doc = parse_document(gen.document(0))
        assert doc.root.is_intensional
        (ref,) = doc.iter_refs()
        assert ref.target == gen.abstract_uri(0)

    def test_abstract_resolvable_registration(self):
        from repro.kadop.system import KadopNetwork

        net = KadopNetwork.create(num_peers=2)
        gen = InexGenerator(seed=3, match_count=1, collection_size=5)
        gen.register_abstracts(net, 5)
        assert net.resolver(gen.abstract_uri(2)) is not None

    def test_abstract_size_about_1kb(self):
        gen = InexGenerator(seed=3, collection_size=5)
        assert 400 <= len(gen.abstract_text(0)) <= 2000

    def test_query_parses(self):
        from repro.query.xpath import parse_query

        gen = InexGenerator(seed=3, collection_size=5)
        pattern = parse_query(gen.query())
        assert pattern.root.label == "article"

    def test_deterministic(self):
        a = InexGenerator(seed=9, collection_size=50)
        b = InexGenerator(seed=9, collection_size=50)
        assert a.matching_ids == b.matching_ids
        assert a.document(7) == b.document(7)


class TestProfiles:
    def test_all_table1_datasets_present(self):
        assert set(DATASET_PROFILES) == {"IMDB", "XMark", "SwissProt", "NASA", "DBLP"}

    @pytest.mark.parametrize("name", sorted(DATASET_PROFILES))
    def test_generation_hits_element_budget(self, name):
        profile = DATASET_PROFILES[name]
        doc = generate_profile_document(profile, element_count=2000, seed=1)
        assert 1500 <= doc.element_count <= 2000

    def test_sids_valid(self):
        doc = generate_profile_document(DATASET_PROFILES["DBLP"], 500, seed=2)
        for el in doc.iter_elements():
            assert el.sid.start < el.sid.end

    def test_deterministic(self):
        a = generate_profile_document(DATASET_PROFILES["IMDB"], 300, seed=1)
        b = generate_profile_document(DATASET_PROFILES["IMDB"], 300, seed=1)
        assert [tuple(e.sid) for e in a.iter_elements()] == [
            tuple(e.sid) for e in b.iter_elements()
        ]

    def test_mostly_small_elements(self):
        """The Table 1 premise: XML elements are small and bushy."""
        doc = generate_profile_document(DATASET_PROFILES["XMark"], 2000, seed=1)
        widths = [e.sid.width for e in doc.iter_elements()]
        small = sum(1 for w in widths if w <= 4)
        assert small / len(widths) > 0.5


class TestTrafficWorkload:
    def test_count_and_heavy_terms(self):
        workload = traffic_workload(50, seed=1)
        assert len(workload) == 50
        for query, _ in workload:
            assert any(term in query for term in HEAVY_TERMS)

    def test_queries_parse(self):
        from repro.query.xpath import parse_query

        for query, keywords in traffic_workload(50, seed=2):
            parse_query(query, keyword_steps=keywords)

    def test_deterministic(self):
        assert traffic_workload(20, seed=3) == traffic_workload(20, seed=3)

    def test_keyword_variants_present(self):
        workload = traffic_workload(50, seed=1)
        assert any(keywords for _, keywords in workload)


class TestXMarkGenerator:
    def test_document_parses(self):
        from repro.workloads.xmark import XMarkGenerator
        from repro.xmldata.parser import parse_document

        doc = parse_document(XMarkGenerator(seed=1).document())
        assert doc.root.label == "site"
        labels = {e.label for e in doc.iter_elements()}
        assert {"regions", "people", "open_auctions", "closed_auctions"} <= labels

    def test_deterministic(self):
        from repro.workloads.xmark import XMarkGenerator

        assert XMarkGenerator(seed=2).document() == XMarkGenerator(seed=2).document()
        assert XMarkGenerator(seed=2).document() != XMarkGenerator(seed=3).document()

    def test_scale_grows_entities(self):
        from repro.workloads.xmark import XMarkGenerator

        small = XMarkGenerator(seed=1, scale=0.5)
        big = XMarkGenerator(seed=1, scale=2.0)
        assert big.num_items > small.num_items
        assert len(big.document()) > len(small.document())

    def test_scale_validation(self):
        from repro.workloads.xmark import XMarkGenerator

        with pytest.raises(ValueError):
            XMarkGenerator(scale=0)

    def test_queries_verify_exactly(self):
        """All XMark query shapes stay exact end-to-end (distributed vs
        centralized oracle)."""
        from repro.kadop.config import KadopConfig
        from repro.kadop.system import KadopNetwork
        from repro.kadop.verify import verify_workload
        from repro.workloads.xmark import XMARK_QUERIES, XMarkGenerator

        net = KadopNetwork.create(num_peers=6, config=KadopConfig(replication=1))
        for d in range(3):
            net.peers[d % 3].publish(
                XMarkGenerator(seed=d, scale=0.4).document(), uri="xm:%d" % d
            )
        reports = verify_workload(net, XMARK_QUERIES)
        for report in reports:
            assert report.exact, report
        # the workload is not vacuous
        assert sum(r.distributed for r in reports) > 0
