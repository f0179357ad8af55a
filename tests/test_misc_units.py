"""Focused unit tests for behaviors not covered by the larger suites."""

import pytest

from repro.dht.network import DhtNetwork, OpReceipt
from repro.errors import IndexError_, ReproError, XmlParseError
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.sim.cost import CostModel
from repro.sim.meter import TrafficMeter


class TestCostModelDetails:
    def test_disk_and_store_costs(self):
        cm = CostModel()
        assert cm.disk_read_time(cm.params.disk_read_bw) == pytest.approx(1.0)
        assert cm.disk_write_time(cm.params.disk_write_bw) == pytest.approx(1.0)
        assert cm.store_op_time(10) == pytest.approx(10 * cm.params.store_op_s)
        assert cm.join_time(cm.params.join_rate) == pytest.approx(1.0)
        assert cm.parse_time(cm.params.parse_rate) == pytest.approx(1.0)

    def test_message_overhead_charged(self):
        cm = CostModel()
        assert cm.transfer_time(0) > 0  # envelope + latency


class TestOpReceipt:
    def test_merge_accumulates(self):
        a = OpReceipt(hops=2, request_bytes=10, response_bytes=5, duration_s=0.5)
        b = OpReceipt(hops=1, request_bytes=3, response_bytes=2, duration_s=0.25)
        a.merge(b)
        assert (a.hops, a.request_bytes, a.response_bytes) == (3, 13, 7)
        assert a.duration_s == pytest.approx(0.75)


class TestRoutingKnownIds:
    def test_pastry_known_ids(self):
        net = DhtNetwork.create(10, replication=1)
        node = net.nodes[0]
        known = node.routing.known_ids()
        assert known  # leaf set and table populated
        assert node.node_id not in known

    def test_chord_known_ids(self):
        net = DhtNetwork.create(10, replication=1, overlay="chord")
        node = net.nodes[0]
        known = node.routing.known_ids()
        assert known
        assert node.node_id not in known


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(XmlParseError, ReproError)
        assert issubclass(IndexError_, ReproError)

    def test_parse_error_offset_formatting(self):
        err = XmlParseError("boom", offset=17)
        assert "offset 17" in str(err)
        assert err.offset == 17
        assert XmlParseError("boom").offset is None


class TestPostingListEdges:
    def test_first_last_empty(self):
        pl = PostingList()
        assert pl.first is None and pl.last is None

    def test_merge_with_empty(self):
        pl = PostingList([Posting(0, 0, 1, 2, 1)])
        assert PostingList.concat((pl, PostingList())).items() == pl.items()

    def test_repr_forms(self):
        short = PostingList([Posting(0, 0, 1, 2, 1)])
        assert "PostingList" in repr(short)
        long = PostingList([Posting(0, 0, i, i + 1, 1) for i in range(1, 20, 2)])
        assert "postings" in repr(long)

    def test_equality_with_non_plist(self):
        assert PostingList() != 5


class TestMeterMessages:
    def test_per_category_message_counts(self):
        m = TrafficMeter()
        m.record("a", 1)
        m.record("a", 1)
        m.record("b", 1)
        assert m.messages("a") == 2
        assert m.messages("b") == 1
        assert "TrafficMeter" in repr(m)


class TestSerializerEdges:
    def test_serialize_element_directly(self):
        from repro.xmldata.parser import parse_document
        from repro.xmldata.serializer import serialize

        doc = parse_document("<a><b>x</b></a>")
        assert serialize(doc.root.find("b")) == "<b>x</b>"

    def test_doctype_for_extensional_doc_empty(self):
        from repro.xmldata.parser import parse_document
        from repro.xmldata.serializer import doctype_for

        assert doctype_for(parse_document("<a/>")) == ""

    def test_intensional_ref_pretty_printed(self):
        from repro.xmldata.parser import parse_document
        from repro.xmldata.serializer import serialize

        doc = parse_document(
            '<!DOCTYPE a [ <!ENTITY x SYSTEM "u:x"> ]><a>&x;</a>'
        )
        pretty = serialize(doc, indent="  ")
        assert "&x;" in pretty and "\n" in pretty


class TestZipfChoice:
    def test_bias_toward_head(self):
        import random

        from repro.workloads.vocab import zipf_choice

        rng = random.Random(1)
        pool = list(range(50))
        picks = [zipf_choice(rng, pool) for _ in range(3000)]
        head = sum(1 for p in picks if p < 10)
        tail = sum(1 for p in picks if p >= 40)
        assert head > 3 * max(tail, 1)

    def test_single_element_pool(self):
        import random

        from repro.workloads.vocab import zipf_choice

        assert zipf_choice(random.Random(0), ["only"]) == "only"
