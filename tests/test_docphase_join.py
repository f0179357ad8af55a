"""The document phase as a local twig join: lifecycle and independence.

``tests/test_query_eval.py`` proves ``KadopPeer.evaluate`` equal to the tree
matcher on random inputs.  This file pins what surrounds it:

* the element streams are built when a document is stored and live *on*
  the stored document, so no path that withdraws a document can leave its
  streams behind;
* the serving path never enters ``repro.query.matcher`` — the matcher is
  the oracle (``oracle_answers``, the fuzzer), and a benchmark whose answer
  check compares the matcher with itself checks nothing;
* the stream cursor's precomputed keys and its two skips behave like the
  plain "advance while the end key (start key) sorts before" loops at
  every boundary.
"""

import gc
import random
import weakref

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.serving import QueryArrival
from repro.kadop.system import KadopNetwork
from repro.kadop.verify import oracle_answers
from repro.postings import kernels
from repro.postings.plist import PostingList
from repro.query import matcher
from repro.query.twigjoin import _INF_KEY, _Stream
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


# -- the stream cursor ---------------------------------------------------------------


class _ReferenceCursor:
    """What ``_Stream`` must behave like: keys built on demand, skips one
    row at a time."""

    def __init__(self, rows):
        self.rows = rows
        self.pos = 0

    def start_key(self):
        if self.pos >= len(self.rows):
            return _INF_KEY
        return self.rows[self.pos][:3]

    def end_key(self):
        if self.pos >= len(self.rows):
            return _INF_KEY
        peer, doc, _, end, _ = self.rows[self.pos]
        return (peer, doc, end)

    def skip_end_lt(self, key):
        before = self.pos
        while self.end_key() < key:
            self.pos += 1
        return self.pos - before

    def skip_to(self, key):
        while self.start_key() < key:
            self.pos += 1


def _same_state(stream, reference):
    assert stream.pos == reference.pos
    assert stream.n == len(reference.rows)
    assert stream.skeys[stream.pos] == reference.start_key()
    assert stream.ekeys[stream.pos] == reference.end_key()
    if stream.pos < stream.n:
        row = tuple(col[stream.pos] for col in (stream.peer, stream.doc, stream.start, stream.end, stream.level))
        assert row == reference.rows[reference.pos]


def _head(key):
    """A stream whose head row starts at ``key`` (``_Stream.skip_to``'s
    argument is the parent's stream)."""
    if key == _INF_KEY:
        return _Stream(PostingList())
    return _Stream(PostingList([key + (key[2] + 1, 0)]))


def _nested_rows(rng, docs):
    """Sorted postings of a few documents with nested, non-monotonic ends."""
    rows = []
    for doc in range(docs):
        tag = 1
        for _ in range(rng.randint(1, 6)):
            width = rng.randint(1, 12)
            rows.append((doc % 2, doc, tag, tag + 2 * width + 1, 1))
            for inner in range(rng.randint(0, width)):
                rows.append((doc % 2, doc, tag + 1 + 2 * inner, tag + 2 + 2 * inner, 2))
            tag += 2 * width + 2
    return sorted(rows)


@pytest.fixture(params=["pure", "numpy"])
def backend(request):
    if request.param == "numpy" and not kernels.numpy_available():
        pytest.skip("numpy not importable")
    previous = kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(previous)


class TestStreamCursor:
    def test_empty_stream_reads_inf_and_skips_nothing(self, backend):
        stream = _Stream(PostingList())
        assert stream.pos == stream.n == 0
        assert stream.skeys == stream.ekeys == [_INF_KEY]
        assert stream.skip_end_lt((0, 0, 5)) == 0
        assert stream.skip_end_lt(_INF_KEY) == 0
        stream.skip_to(_head(_INF_KEY))
        assert stream.pos == 0

    def test_first_row_stop_costs_no_kernel_call(self, backend, monkeypatch):
        rows = [(0, 0, 1, 10, 0), (0, 0, 2, 3, 1)]
        stream = _Stream(PostingList(rows))
        monkeypatch.setattr(kernels.active(), "seek_end_ge", _no_matcher)
        assert stream.skip_end_lt((0, 0, 10)) == 0  # end == key: not before it
        assert stream.skip_end_lt((0, 0, 4)) == 0
        assert stream.pos == 0

    def test_skip_that_runs_off_the_end(self, backend):
        rows = [(0, 0, 1, 2, 1), (0, 0, 3, 4, 1), (0, 1, 1, 2, 0)]
        stream = _Stream(PostingList(rows))
        reference = _ReferenceCursor(rows)
        assert stream.skip_end_lt((0, 0, 4)) == reference.skip_end_lt((0, 0, 4)) == 1
        _same_state(stream, reference)
        assert stream.skip_end_lt((3, 0, 0)) == reference.skip_end_lt((3, 0, 0)) == 2
        _same_state(stream, reference)
        assert stream.skip_end_lt((9, 9, 9)) == 0  # already at eof
        stream.skip_to(_head((9, 9, 9)))
        assert stream.pos == stream.n == 3

    def test_skip_to_stops_at_an_equal_start(self, backend):
        """A row starting where the parent's head starts is the same
        element in both streams (``//a//a``, ``.//``): it is kept."""
        rows = [(0, 0, 1, 8, 0), (0, 0, 2, 3, 1), (0, 0, 4, 7, 1), (0, 0, 5, 6, 2)]
        stream = _Stream(PostingList(rows))
        stream.skip_to(_head((0, 0, 4)))
        assert stream.pos == 2
        stream.skip_to(_head((0, 0, 4)))
        assert stream.pos == 2
        stream.skip_to(_head(_INF_KEY))
        assert stream.pos == stream.n

    def test_random_walk_equals_reference(self, backend):
        rng = random.Random(17)
        for _ in range(150):
            rows = _nested_rows(rng, docs=rng.randint(1, 4))
            stream = _Stream(PostingList(rows))
            reference = _ReferenceCursor(rows)
            _same_state(stream, reference)
            while stream.pos < stream.n:
                step = rng.random()
                if step < 0.4:
                    stream.pos += 1
                    reference.pos += 1
                elif step < 0.7:
                    peer, doc, start, _, _ = rng.choice(rows)
                    key = (peer, doc, rng.choice((start, start + 1, 10**6)))
                    stream.skip_to(_head(key))
                    reference.skip_to(key)
                else:
                    peer, doc, start, end, _ = rng.choice(rows)
                    key = (peer, doc, rng.choice((start, end, end + 1, 10**6)))
                    assert stream.skip_end_lt(key) == reference.skip_end_lt(key)
                _same_state(stream, reference)
