"""The document phase as a local twig join: lifecycle and independence.

``tests/test_query_eval.py`` proves ``KadopPeer.evaluate`` equal to the tree
matcher on random inputs.  This file pins what surrounds it:

* the element streams are built when a document is stored and live *on*
  the stored document, so no path that withdraws a document can leave its
  streams behind;
* the serving path never enters ``repro.query.matcher`` — the matcher is
  the oracle (``oracle_answers``, the fuzzer), and a benchmark whose answer
  check compares the matcher with itself checks nothing.
"""

import gc
import weakref

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.serving import QueryArrival
from repro.kadop.system import KadopNetwork
from repro.kadop.verify import oracle_answers
from repro.query import matcher
from repro.workloads.dblp import DblpGenerator
from repro.xmldata.streams import ElementStreams

QUERIES = (
    ("//article//author", ()),
    ("//dblp//inproceedings[//year]//title", ()),
    ("//article[//journal]//author", ()),
    ("//dblp/*/title", ()),
    ("//article//title//data", ("data",)),
    ('//inproceedings[. contains "the"]//author', ()),
)


def build_net(docs=6, num_peers=4, **overrides):
    overrides.setdefault("replication", 1)
    net = KadopNetwork.create(num_peers, config=KadopConfig(**overrides), seed=9)
    gen = DblpGenerator(seed=5, target_doc_bytes=2_500)
    for i in range(docs):
        net.peers[i % num_peers].publish(gen.document(), uri="d:%d" % i)
    return net


# -- lifecycle ------------------------------------------------------------------


class TestStreamLifecycle:
    def test_built_by_publish_and_publish_batch(self):
        net = KadopNetwork.create(2, config=KadopConfig(replication=1), seed=1)
        net.peers[0].publish("<a><b>x</b></a>")
        net.peers[1].publish_batch(["<a><b>y</b></a>", "<c/>"])
        for peer in net.peers:
            for document in peer.documents.values():
                assert isinstance(document.streams, ElementStreams)
                assert document.streams.spans[None] == (0, document.element_count)

    def test_rebuilt_by_load(self, tmp_path):
        net = build_net(docs=3)
        path = tmp_path / "net.json"
        net.save(str(path))
        restored = KadopNetwork.load(str(path))
        documents = [d for p in restored.peers for d in p.documents.values()]
        assert len(documents) == 3
        assert all(isinstance(d.streams, ElementStreams) for d in documents)
        pattern = restored.parse("//article//author")
        answers, _ = restored.executor.run(pattern, restored.peers[0])
        assert {a.bindings for a in answers} == oracle_answers(restored, pattern)

    @pytest.mark.parametrize("withdraw", ["unpublish", "republish"])
    def test_dropped_with_the_document(self, withdraw):
        """The streams hang off the ``documents`` entry: once that entry is
        gone nothing on the peer keeps document or streams alive."""
        net = build_net(docs=2)
        peer = net.peers[0]
        (doc_index,) = peer.documents
        gone = weakref.ref(peer.documents[doc_index])
        if withdraw == "unpublish":
            peer.unpublish(doc_index)
        else:
            peer.republish(doc_index, "<dblp><article><author>new</author></article></dblp>")
            (new_index,) = peer.documents
            assert new_index != doc_index
            assert peer.documents[new_index].streams.spans[None] == (0, 3)
        gc.collect()
        assert gone() is None
        pattern = net.parse("//article//author")
        answers, report = net.executor.run(pattern, net.peers[1])
        assert report.complete
        assert {a.bindings for a in answers} == oracle_answers(net, pattern)

    def test_functional_documents_need_no_streams(self):
        """Fundex function results enter ``documents`` directly; they are
        index-only, never evaluated, and carry no streams."""
        net = KadopNetwork.create(4, config=KadopConfig(replication=1), seed=2)
        net.register_resource("u:abs", "<abstract>graph theory</abstract>")
        net.peers[0].publish(
            '<!DOCTYPE article [ <!ENTITY abs SYSTEM "u:abs"> ]>'
            "<article><title>xml</title>&abs;</article>"
        )
        functional = [
            (peer, index) for peer in net.peers for index in peer.functional_docs
        ]
        assert functional
        for peer, index in functional:
            assert peer.documents[index].streams is None
        for text in ("//article//title", "//abstract", "//article//abstract"):
            pattern = net.parse(text)
            answers, report = net.executor.run(pattern, net.peers[1])
            assert report.complete
            assert {a.bindings for a in answers} == oracle_answers(net, pattern)
        answers, _ = net.fundex.query(
            net.parse('//article[contains(.//abstract, "graph")]'), net.peers[2]
        )
        assert [(a.peer, a.doc) for a in answers] == [(0, 0)]


# -- the serving path and the oracle share no code --------------------------------


def _no_matcher(*args, **kwargs):
    raise AssertionError("the serving path entered repro.query.matcher")


CONFIGS = {
    "default": {},
    "dpp-eager": {"use_dpp": True, "dpp_fetch_mode": "eager", "dpp_block_entries": 64},
    "dpp-window": {"use_dpp": True, "dpp_fetch_mode": "window", "dpp_block_entries": 64},
    "dpp-lazy": {"use_dpp": True, "dpp_fetch_mode": "lazy", "dpp_block_entries": 64},
    "auto-filters": {"filter_strategy": "auto"},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_queries_never_enter_the_matcher(name, monkeypatch):
    net = build_net(**CONFIGS[name])
    patterns = [net.parse(text, keyword_steps=kw) for text, kw in QUERIES]
    expected = [oracle_answers(net, pattern) for pattern in patterns]
    assert any(expected)
    monkeypatch.setattr(matcher, "match_document", _no_matcher)
    monkeypatch.setattr(matcher._Evaluator, "__init__", _no_matcher)
    for i, (pattern, truth) in enumerate(zip(patterns, expected)):
        answers, report = net.executor.run(pattern, net.peers[i % len(net.peers)])
        assert report.complete
        assert {a.bindings for a in answers} == truth


def test_serving_engine_never_enters_the_matcher(monkeypatch):
    net = build_net(max_inflight=2, read_policy="least_loaded")
    expected = {
        text: oracle_answers(net, net.parse(text, keyword_steps=kw))
        for text, kw in QUERIES
    }
    monkeypatch.setattr(matcher, "match_document", _no_matcher)
    monkeypatch.setattr(matcher._Evaluator, "__init__", _no_matcher)
    arrivals = [
        QueryArrival(
            arrival_s=i / 50.0, query_text=text, keyword_steps=kw, src=i % len(net.peers)
        )
        for i, (text, kw) in enumerate(QUERIES * 2)
    ]
    result = net.serve(arrivals)
    assert len(result.queries) == len(arrivals)
    for served in result.queries:
        assert served.report.complete
        assert {a.bindings for a in served.answers} == expected[served.query_text]
