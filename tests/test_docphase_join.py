"""The document phase as a local twig join: lifecycle and independence.

``tests/test_query_eval.py`` proves ``KadopPeer.evaluate`` equal to the tree
matcher on random inputs.  This file pins what surrounds it:

* the element streams are built when a document is stored and live *on*
  the stored document, so no path that withdraws a document can leave its
  streams behind;
* the serving path never enters ``repro.query.matcher`` — the matcher is
  the oracle (``oracle_answers``, the fuzzer), and a benchmark whose answer
  check compares the matcher with itself checks nothing;
* the document phase, which builds its answers in columns, gives the
  answers, the order and the bytes per peer of the per-answer loop it
  replaced (``reference_document_phase``), under every kernel backend.
"""

import gc
import random
import weakref
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.kadop.config import KadopConfig
from repro.kadop.execution import ANSWER_TUPLE_BYTES, Answer, QueryRun
from repro.kadop.serving import QueryArrival
from repro.kadop.system import KadopNetwork
from repro.kadop.verify import oracle_answers
from repro.postings import kernels
from repro.postings.encoder import encoded_size
from repro.query import matcher
from repro.query.xpath import parse_query
from repro.workloads.dblp import DblpGenerator
from repro.xmldata.streams import ElementStreams
from test_query_eval import random_document, random_pattern

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


# -- answers in columns against the per-answer loop ---------------------------------


def reference_document_phase(net, pattern, candidate_docs):
    """The document phase's answers as the per-answer loop built them,
    with ``{peer: answer bytes}``: one :class:`Answer` per match, its
    bindings the match's sorted ``(node_id, Posting)`` items, each answer's
    postings sized on their own.  The matches are the tree matcher's, per
    held document in ``doc`` order (the order ``test_query_eval`` proves
    the join keeps), so nothing here shares code with the join."""
    by_peer = {}
    for peer_idx, doc_idx in sorted(candidate_docs):
        if doc_idx not in net.peers[peer_idx].functional_docs:
            by_peer.setdefault(peer_idx, []).append(doc_idx)
    answers, sent_bytes = [], {}
    for peer_idx, doc_indexes in by_peer.items():
        documents = net.peers[peer_idx].documents
        found, sent = [], []
        for doc_idx in doc_indexes:
            if doc_idx not in documents:
                continue
            for match in matcher.match_document(pattern, documents[doc_idx]):
                postings = matcher.match_to_postings(match, peer_idx, doc_idx)
                found.append(Answer(peer_idx, doc_idx, tuple(sorted(postings.items()))))
                sent.append(sorted(postings.values()))
        sent_bytes[peer_idx] = ANSWER_TUPLE_BYTES * len(sent) + sum(map(encoded_size, sent))
        answers.extend(found)
    answers.sort(key=attrgetter("peer", "doc", "bindings"))
    return answers, sent_bytes


def document_phase(net, pattern, candidate_docs):
    """The executor's document phase, with the answer bytes it ships per
    peer read off its ``documents`` sends."""
    sent_bytes = {}
    ship = net.net.ship
    peer_of = {peer.node.uri: peer.index for peer in net.peers}

    def recording_ship(key, nbytes, category, **kwargs):
        if category == "documents":
            sent_bytes[peer_of[key]] = nbytes
        return ship(key, nbytes, category, **kwargs)

    net.net.ship = recording_ship
    try:
        answers, _, timed_out = net.executor._document_phase(
            pattern, net.peers[0], candidate_docs, QueryRun()
        )
    finally:
        del net.net.ship
    assert timed_out == 0
    return answers, sent_bytes


#: patterns that bind one label at two nodes, so one element can fill both
REPEATED = ("//a[b][b]", "//a[b][b]//c", "//*[b][b]", "//a[//b][//b]", "//a[//a]//a")
BACKENDS = ["pure"] + (["numpy"] if kernels.numpy_available() else [])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from((None,) + REPEATED))
def test_document_phase_equals_the_per_answer_loop(seed, repeated):
    """Same answers, same order, same bytes per peer, under every kernel
    backend: random documents on three peers, a withdrawn and a never
    published candidate, and random or repeated-binding patterns."""
    rng = random.Random(seed)
    net = KadopNetwork.create(3, config=KadopConfig(replication=1), seed=1)
    # what a rich document's include calls: its result is a functional
    # document, index-only and never a candidate the phase evaluates
    net.register_resource("u:inc", "<c>x y</c>")
    for i in range(rng.randint(1, 6)):
        net.peers[i % 3].publish_document(random_document(rng, max_nodes=14, rich=True))
    withdrawn = rng.choice([p for p in net.peers if p.documents])
    gone = rng.choice(sorted(withdrawn.documents))
    withdrawn.unpublish(gone)
    candidates = {(p.index, d) for p in net.peers for d in p.documents}
    candidates |= {(withdrawn.index, gone), (rng.randrange(3), 99)}
    if repeated is None:
        pattern = random_pattern(rng, rich=True)
    else:
        pattern = parse_query(repeated)
    expected = reference_document_phase(net, pattern, candidates)
    previous = kernels.backend_name()
    try:
        for backend in BACKENDS:
            kernels.use_backend(backend)
            answers, sent_bytes = document_phase(net, pattern, candidates)
            assert repr(answers) == repr(expected[0]), backend
            assert sent_bytes == expected[1], backend
    finally:
        kernels.use_backend(previous)


def test_each_answer_is_sized_in_posting_order():
    """A match of ``//a[b][b]`` may bind the later ``b`` first; the answer
    ships its postings sorted, and with the two ``b`` far apart the
    unsorted order would size differently."""
    net = KadopNetwork.create(2, config=KadopConfig(replication=1), seed=1)
    net.peers[1].publish("<a><b/>%s<b/></a>" % ("<c/>" * 100))
    pattern = parse_query("//a[b][b]")
    candidates = {(1, 0)}
    expected = reference_document_phase(net, pattern, candidates)
    assert len(expected[0]) == 4
    previous = kernels.backend_name()
    try:
        for backend in BACKENDS:
            kernels.use_backend(backend)
            answers, sent_bytes = document_phase(net, pattern, candidates)
            assert (repr(answers), sent_bytes) == (repr(expected[0]), expected[1]), backend
    finally:
        kernels.use_backend(previous)


def test_answers_keep_the_answer_api():
    """``Answer`` fields, ``doc_id``, ``binding_of``, equality and hash."""
    net = build_net(docs=4)
    answers, _ = net.executor.run(net.parse("//article//author"), net.peers[0])
    answer = answers[0]
    assert answer == Answer(answer.peer, answer.doc, answer.bindings)
    assert hash(answer) == hash((answer.peer, answer.doc, answer.bindings))
    assert answer.doc_id == (answer.peer, answer.doc)
    assert [nid for nid, _ in answer.bindings] == [0, 1]
    assert answer.binding_of(1) == answer.bindings[1][1]
    with pytest.raises(KeyError):
        answer.binding_of(2)
    assert repr(answer).startswith("Answer(peer=%d, doc=%d, bindings=((0, Posting(" % answer.doc_id)
