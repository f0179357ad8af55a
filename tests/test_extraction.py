"""``extract_postings`` against the per-element loop it replaced, and the
include flag of the element streams against the tree walk.

``reference_extract_postings`` is the extraction as it was before postings
were cut from the document's element streams: one walk over the elements,
one ``Posting`` row per element for its label and per distinct indexable
word of its direct text.  The columnar extraction must give the same keys
and, per key, the same rows in the same order.
"""

import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.index.publisher import extract_postings
from repro.postings import kernels
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.postings.term_relation import label_key, word_key
from repro.workloads.dblp import DblpGenerator
from repro.workloads.inex import InexGenerator
from repro.workloads.xmark import XMarkGenerator
from repro.xmldata.parser import parse_document
from repro.xmldata.streams import ElementStreams
from repro.xmldata.words import STOP_WORDS, tokenize
from test_parser_fuzz import INCLUDES, documents

BACKENDS = ["pure"] + (["numpy"] if kernels.numpy_available() else [])


@pytest.fixture(params=BACKENDS)
def backend(request):
    previous = kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(previous)


def reference_extract_postings(document, peer_index, doc_index):
    """``{term_key: [Posting, ...]}``, each list in document order."""
    postings = {}
    for element in document.iter_elements():
        sid = element.sid
        posting = Posting(peer_index, doc_index, sid.start, sid.end, sid.level)
        postings.setdefault(label_key(element.label), []).append(posting)
        words = set()
        for text in element.iter_text():
            words |= set(tokenize(text)) - STOP_WORDS
        for word in sorted(words):
            postings.setdefault(word_key(word), []).append(posting)
    return postings


def assert_same_as_reference(document, peer_index=3, doc_index=5):
    expected = reference_extract_postings(document, peer_index, doc_index)
    for streams in (None, ElementStreams(document)):
        document.streams = streams  # laid out by the extraction, or given
        got = extract_postings(document, peer_index, doc_index)
        assert set(got) == set(expected)
        for key, rows in expected.items():
            assert isinstance(got[key], PostingList)
            assert list(got[key]) == rows, key


def inex_documents(inline):
    generator = InexGenerator(seed=3, match_count=2, collection_size=6)
    resolver = {generator.abstract_uri(i): generator.abstract_text(i) for i in range(6)}.get
    return [
        parse_document(generator.document(i), resolver=resolver, inline=inline)
        for i in range(6)
    ]


def corpus():
    dblp = DblpGenerator(seed=4, target_doc_bytes=4_000)
    return (
        [parse_document(dblp.document()) for _ in range(6)]
        + [parse_document(XMarkGenerator(seed=2, scale=0.3).document())]
        + inex_documents(inline=False)
        + inex_documents(inline=True)
    )


FIXED = [
    "<a/>",
    "<a>The THE the, a an Of</a>",
    "<a x='İstanbul ß' y=\"Straße 42\">MiXeD 0x1F &#304;z &#223;q</a>",
    "<a>Kelvin <![CDATA[Cdata <b>words</b>]]> tail</a>",
    "<r><a>one</a>two<a>one two</a><b>two<c>one</c>two</b></r>",
    "<r>x<r>x<r>x</r>x</r>x</r>",
]


class TestExtractionOracle:
    def test_generated_corpora(self, backend):
        for document in corpus():
            assert_same_as_reference(document)

    @pytest.mark.parametrize("text", FIXED)
    def test_fixed_documents(self, backend, text):
        assert_same_as_reference(parse_document(text))

    def test_stop_words_and_case_fold(self):
        keys = set(extract_postings(parse_document(FIXED[1]), 0, 0))
        assert keys == {"elem:a"}

    @settings(max_examples=150, deadline=None)
    @given(documents())
    def test_grammar_documents(self, text):
        for backend in BACKENDS:
            previous = kernels.use_backend(backend)
            try:
                for options in ({}, {"inline": True, "resolver": INCLUDES.get}):
                    try:
                        document = parse_document(text, **options)
                    except ReproError:
                        continue
                    assert_same_as_reference(document)
            finally:
                kernels.use_backend(previous)


class TestIncludeFlag:
    """``ElementStreams.intensional`` equals the tree walk of
    ``Element.is_intensional`` from the root."""

    def test_inex_with_includes(self):
        documents = inex_documents(inline=False)
        assert all(document.root.is_intensional for document in documents)
        assert all(ElementStreams(document).intensional for document in documents)

    def test_inex_inlined(self):
        documents = inex_documents(inline=True)
        assert not any(document.root.is_intensional for document in documents)
        assert not any(ElementStreams(document).intensional for document in documents)

    @pytest.mark.parametrize(
        "text",
        FIXED
        + [
            '<!DOCTYPE a [<!ENTITY e SYSTEM "u:e">]><a><b><c>&e;</c></b></a>',
            '<!DOCTYPE a [<!ENTITY e SYSTEM "u:e">]><a>&e;<b/></a>',
            '<!DOCTYPE a [<!ENTITY e SYSTEM "u:e">]><a><b/><b>x</b></a>',
        ],
    )
    def test_fixed_documents(self, text):
        document = parse_document(text)
        assert ElementStreams(document).intensional == document.root.is_intensional

    def test_generated_corpora(self):
        for document in corpus():
            assert ElementStreams(document).intensional == document.root.is_intensional

    @settings(max_examples=100, deadline=None)
    @given(documents())
    def test_grammar_documents(self, text):
        for options in ({}, {"inline": True, "resolver": INCLUDES.get}):
            try:
                document = parse_document(text, **options)
            except ReproError:
                continue
            assert ElementStreams(document).intensional == document.root.is_intensional
