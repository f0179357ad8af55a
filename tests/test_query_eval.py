"""Tests for query evaluation: the matcher oracle and the twig join.

The key tests are differential: on random documents and random patterns,
the holistic twig join over extracted posting streams, and the document
phase (``KadopPeer.evaluate``, the same join over the document's stored
element streams), must produce exactly the matches the direct tree matcher
finds.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.publisher import extract_postings
from repro.kadop.config import KadopConfig
from repro.kadop.peer import KadopPeer
from repro.kadop.system import KadopNetwork
from repro.postings import kernels
from repro.postings.plist import PostingList
from repro.query.matcher import Match, match_document, match_to_postings
from repro.query.pattern import Axis, PatternNode, TreePattern
from repro.query.twigjoin import twig_docs, twig_join
from repro.query.xpath import parse_query
from repro.xmldata.parser import parse_document
from repro.xmldata.streams import ElementStreams

DOC = parse_document(
    "<lib>"
    "<article><author>jones smith</author><title>xml data</title></article>"
    "<article><author>ullman</author><title>databases</title></article>"
    "<book><author>smith</author><chapter><title>intro</title></chapter></book>"
    "</lib>"
)


def streams_for(pattern, document, peer=0, doc=0):
    """Build twig-join input streams from a document, per pattern node."""
    extracted = extract_postings(document, peer, doc)
    from repro.kadop.execution import term_key_of

    streams = {}
    for node in pattern.nodes():
        key = term_key_of(node)
        streams[node.node_id] = PostingList(extracted.get(key, []))
    return streams


def join_results(pattern, document):
    return {
        tuple(sorted(sol.items()))
        for sol in twig_join(pattern, streams_for(pattern, document))
    }


def matcher_results(pattern, document):
    return {
        tuple(sorted(match_to_postings(m, 0, 0).items()))
        for m in match_document(pattern, document)
    }


class TestMatcher:
    def test_simple_descendant(self):
        matches = match_document(parse_query("//article//author"), DOC)
        assert len(matches) == 2

    def test_child_vs_descendant(self):
        assert len(match_document(parse_query("//book/title"), DOC)) == 0
        assert len(match_document(parse_query("//book//title"), DOC)) == 1

    def test_root_child_axis_binds_document_root(self):
        assert len(match_document(parse_query("/lib"), DOC)) == 1
        assert len(match_document(parse_query("/article"), DOC)) == 0

    def test_word_predicate(self):
        matches = match_document(
            parse_query('//article[. contains "ullman"]'), DOC
        )
        assert len(matches) == 1

    def test_word_is_case_insensitive(self):
        assert match_document(parse_query('//article[. contains "ULLMAN"]'), DOC)

    def test_branching(self):
        matches = match_document(parse_query("//article[//title]//author"), DOC)
        assert len(matches) == 2

    def test_wildcard(self):
        matches = match_document(parse_query("//*//title"), DOC)
        # ancestors: lib+article for each article title (4), and
        # lib+book+chapter for the chapter title (3)
        assert len(matches) == 7

    def test_no_match(self):
        assert match_document(parse_query("//nonexistent"), DOC) == []

    def test_multiple_bindings_same_doc(self):
        matches = match_document(parse_query("//lib//author"), DOC)
        assert len(matches) == 3

    def test_match_to_postings(self):
        (match,) = match_document(parse_query('//article[. contains "ullman"]'), DOC)
        postings = match_to_postings(match, 4, 9)
        assert all(p.peer == 4 and p.doc == 9 for p in postings.values())

    def test_match_dedup(self):
        # two identical word children must not duplicate matches
        matches = match_document(
            parse_query('//article[. contains "xml"][. contains "xml"]'), DOC
        )
        assert len(matches) == 1


class TestMatcherIncomplete:
    DOC_INT = parse_document(
        '<!DOCTYPE article [ <!ENTITY a SYSTEM "u:a"> ]>'
        "<article><title>xml</title><abstract>&a;</abstract></article>"
    )

    def test_incomplete_disabled_by_default(self):
        assert (
            match_document(
                parse_query('//article[contains(.//abstract,"graph")]'), self.DOC_INT
            )
            == []
        )

    def test_incomplete_at_intensional_element(self):
        matches = match_document(
            parse_query('//article//abstract[. contains "graph"]'),
            self.DOC_INT,
            allow_incomplete=True,
        )
        assert len(matches) == 1
        (m,) = matches
        assert not m.is_complete
        # the abstract node (node_id 1) is the incomplete variable
        assert 1 in m.incomplete

    def test_failure_under_intensional_ancestor_marked_there(self):
        # title itself is extensional, but the include under article could
        # hide another title: completeness requires marking *article*
        matches = match_document(
            parse_query('//article//title[. contains "graph"]'),
            self.DOC_INT,
            allow_incomplete=True,
        )
        assert len(matches) == 1
        (m,) = matches
        assert m.incomplete == {0}
        assert list(m.bindings) == [0]

    def test_purely_extensional_doc_never_incomplete(self):
        doc = parse_document("<article><title>xml</title></article>")
        matches = match_document(
            parse_query('//article//title[. contains "graph"]'),
            doc,
            allow_incomplete=True,
        )
        assert matches == []

    def test_complete_matches_sort_first(self):
        doc = parse_document(
            '<!DOCTYPE l [ <!ENTITY a SYSTEM "u:a"> ]>'
            "<l><x>graph</x><x>&a;</x></l>"
        )
        matches = match_document(
            parse_query('//l//x[. contains "graph"]'), doc, allow_incomplete=True
        )
        assert len(matches) == 2
        assert matches[0].is_complete and not matches[1].is_complete


class TestTwigJoinBasics:
    @pytest.mark.parametrize(
        "query,keywords",
        [
            ("//article", ()),
            ("//article//author", ()),
            ("//lib//article//title", ()),
            ("//book/author", ()),
            ("//book/title", ()),
            ("//article[//title]//author", ()),
            ("//lib[//book]//article[//author]//title", ()),
            ('//article[. contains "ullman"]', ()),
            ('//article[. contains "ullman"]//title', ()),
            ("//article//author//smith", ("smith",)),
            ("//lib//author", ()),
            ("//a//b", ()),
        ],
    )
    def test_agrees_with_matcher(self, query, keywords):
        pattern = parse_query(query, keyword_steps=keywords)
        assert join_results(pattern, DOC) == matcher_results(pattern, DOC)

    def test_multi_document_streams(self):
        doc2 = parse_document("<lib><article><author>ullman</author></article></lib>")
        pattern = parse_query("//article//author")
        s1 = streams_for(pattern, DOC, peer=0, doc=0)
        s2 = streams_for(pattern, doc2, peer=1, doc=0)
        streams = {
            nid: s1[nid].merge(s2[nid]) for nid in s1
        }
        solutions = twig_join(pattern, streams)
        docs = {(sol[0].peer, sol[0].doc) for sol in solutions}
        assert docs == {(0, 0), (1, 0)}

    def test_missing_stream_rejected(self):
        pattern = parse_query("//a//b")
        with pytest.raises(ValueError):
            twig_join(pattern, {0: PostingList()})

    def test_empty_streams(self):
        pattern = parse_query("//a//b")
        assert twig_join(pattern, {0: PostingList(), 1: PostingList()}) == []

    def test_one_empty_stream(self):
        pattern = parse_query("//article//nothing")
        assert twig_join(pattern, streams_for(pattern, DOC)) == []

    def test_single_node_pattern(self):
        pattern = parse_query("//author")
        solutions = twig_join(pattern, streams_for(pattern, DOC))
        assert len(solutions) == 3

    def test_self_label_nesting(self):
        doc = parse_document("<a><a><a/></a></a>")
        pattern = parse_query("//a//a")
        assert join_results(pattern, doc) == matcher_results(pattern, doc)
        assert len(join_results(pattern, doc)) == 3

    def test_twig_docs_contract(self):
        """The semi-join reads streams as the join does: a missing stream
        raises, an empty one finds nothing, the root's axis is ignored."""
        pattern = parse_query("//article//author")
        with pytest.raises(ValueError):
            twig_docs(pattern, {0: PostingList()})
        assert twig_docs(pattern, {0: PostingList(), 1: PostingList()}) == set()
        nothing = parse_query("//article//nothing")
        assert twig_docs(nothing, streams_for(nothing, DOC)) == set()
        pattern.root.axis = Axis.CHILD
        assert twig_docs(pattern, streams_for(pattern, DOC)) == {(0, 0)}

    def test_duplicate_stream_rows_give_each_match_once(self):
        """Streams given as postings are read as they come, duplicates kept
        (``PostingList.from_sorted``): a row that comes twice gives its
        matches once, in the same order."""
        pattern = parse_query("//lib[//book]//article[//author]//title")
        streams = streams_for(pattern, DOC)
        doubled = {nid: [p for p in s for _ in range(2)] for nid, s in streams.items()}
        assert twig_join(pattern, doubled) == twig_join(pattern, streams)
        assert len(twig_join(pattern, streams)) == 2
        assert twig_docs(pattern, doubled) == {(0, 0)}

    def test_output_deterministic_order(self):
        pattern = parse_query("//lib//author")
        sols = twig_join(pattern, streams_for(pattern, DOC))
        starts = [sol[1].start for sol in sols]
        assert starts == sorted(starts)


# -- randomized differential testing -------------------------------------------

LABELS = ["a", "b", "c", "d"]
WORDS = ["x", "y"]


#: rich draws: a stop word, mixed case, a phrase, a hyphenated pair
RICH_TEXTS = ["x", "y", "the", "The X", "x y", "x-y", "xy"]


def random_document(rng, max_nodes=25, rich=False):
    """A random tree over ``LABELS``.  ``rich`` adds what only the document
    phase sees: text on both sides of child elements, stop words, and an
    unexpanded include (an intensional reference the matcher steps over)."""
    parts = []

    def build(depth, budget):
        label = rng.choice(LABELS)
        parts.append("<%s>" % label)
        if rng.random() < 0.4:
            parts.append(rng.choice(RICH_TEXTS if rich else WORDS))
        n_children = 0 if depth > 4 else rng.randint(0, 3)
        for _ in range(n_children):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            build(depth + 1, budget)
        if rich and rng.random() < 0.2:
            parts.append(rng.choice(RICH_TEXTS))
        if rich and rng.random() < 0.1:
            parts.append("&inc;")
        parts.append("</%s>" % label)

    build(0, [max_nodes])
    prolog = '<!DOCTYPE a [ <!ENTITY inc SYSTEM "u:inc"> ]>' if rich else ""
    return parse_document(prolog + "".join(parts))


def random_pattern(rng, max_nodes=4, rich=False):
    """A random pattern over ``LABELS``.  ``rich`` adds the draws the index
    query cannot express or answers imprecisely, which the document phase
    must get exactly right: a root ``/`` axis, ``*`` anywhere, value
    conditions, a stop word, a label no document has, one label nested in
    itself, and word nodes on every axis with children of their own."""

    def build(depth):
        if rng.random() < 0.25:
            if not rich:
                return PatternNode(
                    word=rng.choice(WORDS), axis=Axis.DESCENDANT_OR_SELF
                )
            node = PatternNode(
                word=rng.choice(WORDS + ["the", "xy", "X"]), axis=rng.choice(list(Axis))
            )
            if depth < 2 and rng.random() < 0.2:
                node.add_child(build(depth + 1))
            return node
        axis = rng.choice([Axis.CHILD, Axis.DESCENDANT])
        labels = LABELS + ["*", "*", "zz"] if rich else LABELS
        node = PatternNode(label=rng.choice(labels), axis=axis)
        if rich and rng.random() < 0.15:
            node.value_equals = rng.choice(RICH_TEXTS + [""])
        if depth < 2:
            for _ in range(rng.randint(0, 2)):
                child = node.add_child(build(depth + 1))
                if rich and not child.is_word and rng.random() < 0.2:
                    child.label = node.label  # //a//a, //*/*
        return node

    root = build(0)
    if root.is_word and not rich:
        parent = PatternNode(label=rng.choice(LABELS), axis=Axis.DESCENDANT)
        parent.add_child(root)
        root = parent
    if not rich or rng.random() < 0.6:
        root.axis = Axis.DESCENDANT
    return TreePattern(root)


def matcher_answers(pattern, document, peer, doc):
    """What ``KadopPeer.evaluate`` must return, list order included."""
    return [
        (match_to_postings(m, peer, doc), m.incomplete)
        for m in match_document(pattern, document)
    ]


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_twigjoin_differential_random(seed):
    """TwigStack over streams == direct tree matching, on random inputs."""
    rng = random.Random(seed)
    document = random_document(rng)
    pattern = random_pattern(rng)
    assert join_results(pattern, document) == matcher_results(pattern, document)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_twigjoin_multi_doc_differential(seed):
    """One join over several documents' merged streams == the per-document
    matcher answers concatenated in ``(peer, doc)`` order, list order
    included: what lets a document peer run one join over its candidates."""
    rng = random.Random(seed)
    docs = [random_document(rng, max_nodes=12) for _ in range(3)]
    pattern = random_pattern(rng)
    expected = [
        match_to_postings(m, i % 2, i)
        for i in sorted(range(len(docs)), key=lambda i: (i % 2, i))
        for m in match_document(pattern, docs[i])
    ]
    assert twig_join(pattern, merged_streams(pattern, docs)) == expected


def merged_streams(pattern, docs):
    """One stream per pattern node over ``docs``, document ``i`` on peer
    ``i % 2``."""
    merged = None
    for i, document in enumerate(docs):
        s = streams_for(pattern, document, peer=i % 2, doc=i)
        merged = s if merged is None else {
            nid: merged[nid].merge(s[nid]) for nid in merged
        }
    return merged


BACKENDS = ["pure"] + (["numpy"] if kernels.numpy_available() else [])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_twig_docs_differential(seed):
    """The index phase's semi-join finds exactly the documents the
    enumerating join binds its root in, under every kernel backend:
    ``/``, ``//`` and ``.//`` word edges, labels nested in themselves,
    three documents on two peers."""
    rng = random.Random(seed)
    docs = [random_document(rng, max_nodes=12) for _ in range(3)]
    pattern = random_pattern(rng)
    streams = merged_streams(pattern, docs)
    root = pattern.root.node_id
    expected = {(b[root].peer, b[root].doc) for b in twig_join(pattern, streams)}
    previous = kernels.backend_name()
    try:
        for backend in BACKENDS:
            kernels.use_backend(backend)
            assert twig_docs(pattern, streams) == expected, backend
    finally:
        kernels.use_backend(previous)


# -- the document phase against the matcher -----------------------------------------


def stored(document, peer=3, doc=5):
    """A peer holding ``document`` the way ``publish_document`` leaves it,
    without a network around it."""
    holder = KadopPeer(None, peer, None)
    document.streams = ElementStreams(document)
    holder.documents[doc] = document
    return holder


class TestDocumentPhase:
    """``KadopPeer.evaluate`` on hand-picked cases; the random sweep below
    covers their combinations."""

    @pytest.mark.parametrize(
        "query,keywords",
        [
            ("/lib", ()),
            ("/article", ()),
            ("/lib/article/author", ()),
            ("/*", ()),
            ("//*", ()),
            ("//*//title", ()),
            ("//book/*/title", ()),
            ("//article/*", ()),
            ("//nonexistent", ()),
            ("//article//nonexistent", ()),
            ('//author[. = "smith"]', ()),
            ('//author[. = "jones smith"]', ()),
            ('//author[. = "jones"]', ()),
            ('//*[. = "smith"]', ()),
            ('//article[. contains "ULLMAN"]', ()),
            ('//article[. contains "xml"][. contains "xml"]', ()),
            ('//lib[contains(.//title, "intro")]//author', ()),
            ("//article//author//smith", ("smith",)),
            ("//article/author/smith", ("smith",)),
            ("//lib[//book]//article[//author]//title", ()),
        ],
    )
    def test_equals_matcher(self, query, keywords):
        pattern = parse_query(query, keyword_steps=keywords)
        assert stored(DOC).evaluate(pattern, [5]) == matcher_answers(pattern, DOC, 3, 5)

    def test_stop_words_are_matched_on_the_document(self):
        doc = parse_document("<a><b>the cat</b><b>a dog</b><b>other</b></a>")
        pattern = parse_query('//b[. contains "the"]')
        answers = stored(doc).evaluate(pattern, [5])
        assert answers == matcher_answers(pattern, doc, 3, 5)
        assert len(answers) == 1  # "other" holds no token "the"

    def test_word_spanning_text_nodes_and_case(self):
        doc = parse_document("<a>Big<b/>DATA big</a>")
        for word, hits in (("big", 1), ("data", 1), ("bigdata", 0), ("ig", 0)):
            pattern = TreePattern(PatternNode(word=word))
            answers = stored(doc).evaluate(pattern, [5])
            assert answers == matcher_answers(pattern, doc, 3, 5)
            assert len(answers) == hits

    def test_value_joins_the_direct_text_nodes(self):
        # the first b holds two text nodes, "x" and "y", around its child
        doc = parse_document("<a><b> x <c>no</c> y </b><b>x y</b><b/></a>")
        for value, hits in (("x y", 2), ("x", 0), ("", 1), ("no", 0)):
            node = PatternNode(label="b")
            node.value_equals = value
            pattern = TreePattern(node)
            answers = stored(doc).evaluate(pattern, [5])
            assert answers == matcher_answers(pattern, doc, 3, 5)
            assert len(answers) == hits

    def test_unexpanded_include_is_stepped_over(self):
        doc = parse_document(
            '<!DOCTYPE a [ <!ENTITY inc SYSTEM "u:inc"> ]>'
            "<a><b>x&inc;</b><b>&inc;</b></a>"
        )
        assert doc.is_intensional
        for query in ('//a//b[. contains "x"]', "//b//c", "//a/b"):
            pattern = parse_query(query)
            assert stored(doc).evaluate(pattern, [5]) == matcher_answers(pattern, doc, 3, 5)

    def test_allow_incomplete_still_marks_potential_answers(self):
        doc = parse_document(
            '<!DOCTYPE l [ <!ENTITY a SYSTEM "u:a"> ]><l><x>graph</x><x>&a;</x></l>'
        )
        pattern = parse_query('//l//x[. contains "graph"]')
        answers = stored(doc).evaluate(pattern, [5], allow_incomplete=True)
        assert [bool(incomplete) for _, incomplete in answers] == [False, True]
        assert len(stored(doc).evaluate(pattern, [5])) == 1

    def test_bindings_carry_the_owner_ids(self):
        pattern = parse_query("//article//author")
        for bindings, incomplete in stored(DOC, peer=4, doc=9).evaluate(pattern, [9]):
            assert not incomplete
            assert all((p.peer, p.doc) == (4, 9) for p in bindings.values())

    @pytest.mark.parametrize(
        "query,keywords",
        [
            ("//lib//article//author", ()),
            ("//article[//title]//author", ()),
            ("/lib//title", ()),
            ('//article[. contains "smith"]', ()),
            ('//author[. = "smith"]', ()),
            ("//article//author//smith", ("smith",)),
        ],
    )
    def test_one_join_per_peer(self, query, keywords):
        """One call over a peer's candidates: the answers of the held
        documents in ``doc`` order.  Document 6 has no ``article`` (so no
        stream for that node), 99 is not held (unpublished), and the list
        comes out of order."""
        other = parse_document(
            "<lib><article><author>smith</author><title>xml</title></article></lib>"
        )
        bare = parse_document("<lib><book><author>smith</author><title>x</title></book></lib>")
        holder = KadopPeer(None, 3, None)
        held = {2: DOC, 4: other, 6: bare}
        for doc, document in held.items():
            document.streams = ElementStreams(document)
            holder.documents[doc] = document
        pattern = parse_query(query, keyword_steps=keywords)
        expected = [
            answer for doc in sorted(held) for answer in matcher_answers(pattern, held[doc], 3, doc)
        ]
        assert len({bindings[0].doc for bindings, _ in expected}) >= 2
        assert holder.evaluate(pattern, [6, 99, 4, 2]) == expected
        assert holder.evaluate(pattern, [99]) == []


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_document_phase_differential_random(seed):
    """The join over stored element streams == direct tree matching: the
    same bindings in the same list order, on rich random inputs."""
    rng = random.Random(seed)
    document = random_document(rng, rich=True)
    pattern = random_pattern(rng, rich=True)
    assert stored(document).evaluate(pattern, [5]) == matcher_answers(pattern, document, 3, 5)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_document_phase_per_peer_differential(seed):
    """One join over a peer's candidate documents == the matcher on each
    held one, concatenated in ``doc`` order, on rich random inputs (a root
    ``/`` axis, ``*``, word nodes on every axis ``.//`` included, value
    conditions, labels some documents lack); the candidates come out of
    order and include a document the peer does not hold."""
    rng = random.Random(seed)
    holder = KadopPeer(None, 3, None)
    held = {}
    for doc in rng.sample(range(10), 4):
        document = random_document(rng, max_nodes=12, rich=True)
        document.streams = ElementStreams(document)
        holder.documents[doc] = held[doc] = document
    pattern = random_pattern(rng, rich=True)
    candidates = list(held) + [10]
    rng.shuffle(candidates)
    expected = [
        answer for doc in sorted(held) for answer in matcher_answers(pattern, held[doc], 3, doc)
    ]
    assert holder.evaluate(pattern, candidates) == expected


@pytest.mark.parametrize(
    "knobs",
    [
        {},
        {"index_granularity": "document"},
        {"word_index_labels": frozenset({"a"})},
        {"index_granularity": "document", "word_index_labels": frozenset({"b"})},
    ],
    ids=["default", "doc-granularity", "word-labels", "both"],
)
def test_document_phase_ignores_index_reductions(knobs):
    """The Section 8 knobs thin the *index*; the streams a peer keeps for
    its own documents must hold every element and every word regardless."""
    net = KadopNetwork.create(3, config=KadopConfig(replication=1, **knobs), seed=5)
    net.register_resource("u:inc", "<a><b>x</b></a>")  # what &inc; stands for
    rng = random.Random(11)
    for i in range(6):
        document = random_document(rng, rich=True)
        peer = net.peers[i % 3]
        peer.publish_document(document)
        doc_index = next(i for i, d in peer.documents.items() if d is document)
        for _ in range(25):
            pattern = random_pattern(rng, rich=True)
            assert peer.evaluate(pattern, [doc_index]) == matcher_answers(
                pattern, document, peer.index, doc_index
            )
