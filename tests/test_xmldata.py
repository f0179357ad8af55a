"""Tests for the XML substrate: parser, tree model, sids, serializer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EntityResolutionError, XmlParseError
from repro.index.publisher import extract_postings
from repro.xmldata.parser import parse_document
from repro.xmldata.serializer import document_to_xml, serialize
from repro.xmldata.streams import ElementStreams
from repro.xmldata.tree import Document, Element, IntensionalRef, Text, assign_sids
from repro.xmldata.words import _WORD_RE, is_stop_word, tokenize


class TestParserBasics:
    def test_single_element(self):
        doc = parse_document("<a/>")
        assert doc.root.label == "a"
        assert doc.root.sid == (1, 2, 0)

    def test_nested_sids_follow_tag_numbering(self):
        doc = parse_document("<a><b/><c><d/></c></a>")
        sids = {el.label: tuple(el.sid) for el in doc.iter_elements()}
        assert sids == {
            "a": (1, 8, 0),
            "b": (2, 3, 1),
            "c": (4, 7, 1),
            "d": (5, 6, 2),
        }

    def test_text_content(self):
        doc = parse_document("<a>hello <b>deep</b> world</a>")
        assert list(doc.root.iter_text()) == ["hello", "world"]
        assert doc.root.text() == "hello deep world"

    def test_attributes_become_child_elements(self):
        doc = parse_document('<a x="1" y="two"><b/></a>')
        labels = [el.label for el in doc.root.child_elements()]
        assert labels == ["x", "y", "b"]
        assert doc.root.child_elements()[1].text() == "two"

    def test_ancestor_interval_property(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        a, b, c, d = (doc.root.find(l) or doc.root for l in "abcd")
        a = doc.root
        assert a.sid.contains(b.sid) and b.sid.contains(c.sid)
        assert not b.sid.contains(d.sid)

    def test_prolog_comments_cdata(self):
        doc = parse_document(
            "<?xml version='1.0'?><!-- hi --><a><![CDATA[x < y]]><!-- in --></a>"
        )
        assert doc.root.text() == "x < y"

    def test_predefined_entities(self):
        doc = parse_document("<a>x &amp; y &lt;z&gt;</a>")
        assert doc.root.text() == "x & y <z>"

    def test_char_refs(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.root.text() == "AB"

    def test_internal_entity(self):
        doc = parse_document(
            "<!DOCTYPE a [ <!ENTITY who \"World\"> ]><a>Hello &who;</a>"
        )
        assert doc.root.text() == "Hello World"

    def test_self_closing_with_attrs(self):
        doc = parse_document('<a><b x="1"/></a>')
        b = doc.root.find("b")
        assert [c.label for c in b.child_elements()] == ["x"]

    def test_source_bytes_recorded(self):
        text = "<a>hello</a>"
        assert parse_document(text).source_bytes == len(text)

    def test_whitespace_only_text_dropped(self):
        doc = parse_document("<a>\n  <b/>\n</a>")
        assert list(doc.root.iter_text()) == []


class TestParserErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "text only",
            "<a/><b/>",
            "<a attr></a>",
            "<a>&undeclared;</a>",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XmlParseError):
            parse_document(bad)

    def test_error_carries_offset(self):
        try:
            parse_document("<a><b></a></b>")
        except XmlParseError as exc:
            assert exc.offset is not None

    @pytest.mark.parametrize(
        "bad",
        [
            "<a>&#xZZ;</a>",
            '<a b="&#xQ;"/>',
            "<a>&#99999999999;</a>",
            "<a>&#x110000;</a>",
            "<a>&#;</a>",
            "<a b='x &#-1;'/>",
        ],
    )
    def test_malformed_char_ref_is_a_parse_error_at_the_reference(self, bad):
        with pytest.raises(XmlParseError) as info:
            parse_document(bad)
        assert info.value.offset == bad.index("&#")
        assert str(info.value).startswith("bad character reference &#")

    @pytest.mark.parametrize(
        "cut",
        ["<a b=", "<a b= ", "<!DOCTYPE a [<!ENTITY e ", "<!DOCTYPE a [<!ENTITY e SYSTEM "],
    )
    def test_quoted_string_cut_off_by_the_end(self, cut):
        with pytest.raises(XmlParseError) as info:
            parse_document(cut)
        assert str(info.value) == "expected quoted string (at offset %d)" % len(cut)
        assert info.value.offset == len(cut)


class TestIncludes:
    DOC = (
        '<!DOCTYPE article [ <!ENTITY abs SYSTEM "u:abs"> ]>'
        "<article><title>T</title><abstract>&abs;</abstract></article>"
    )

    def test_unresolved_include_becomes_ref(self):
        doc = parse_document(self.DOC)
        refs = list(doc.iter_refs())
        assert len(refs) == 1
        assert refs[0].target == "u:abs"
        assert refs[0].parent.label == "abstract"
        assert doc.root.is_intensional
        assert doc.root.find("abstract").is_intensional
        assert not doc.root.find("title").is_intensional

    def test_inlining_expands(self):
        resolver = {"u:abs": "<p>graph stuff</p>"}.get
        doc = parse_document(self.DOC, resolver=resolver, inline=True)
        assert not doc.root.is_intensional
        assert doc.root.find("p").text() == "graph stuff"

    def test_inline_requires_resolver(self):
        with pytest.raises(EntityResolutionError):
            parse_document(self.DOC, resolver=None, inline=True)

    def test_inline_unresolvable_target(self):
        with pytest.raises(EntityResolutionError):
            parse_document(self.DOC, resolver=lambda uri: None, inline=True)

    def test_include_cycle_detected(self):
        cyclic = (
            '<!DOCTYPE a [ <!ENTITY x SYSTEM "u:x"> ]><a>&x;</a>'
        )
        resolver = lambda uri: cyclic
        with pytest.raises(EntityResolutionError):
            parse_document(cyclic, resolver=resolver, inline=True)

    def test_nested_include(self):
        inner = "<i>leaf</i>"
        middle = '<!DOCTYPE m [ <!ENTITY i SYSTEM "u:i"> ]><m>&i;</m>'
        outer = '<!DOCTYPE o [ <!ENTITY m SYSTEM "u:m"> ]><o>&m;</o>'
        resolver = {"u:i": inner, "u:m": middle}.get
        doc = parse_document(outer, resolver=resolver, inline=True)
        assert doc.root.find("i").text() == "leaf"

    def test_sids_skip_intensional_refs(self):
        doc = parse_document(self.DOC)
        # refs consume no tag numbers: title and abstract are contiguous
        title = doc.root.find("title")
        abstract = doc.root.find("abstract")
        assert abstract.sid.start == title.sid.end + 1


class TestSerializer:
    def test_roundtrip_structure(self):
        text = "<a><b>x y</b><c><d/></c></a>"
        doc = parse_document(text)
        again = parse_document(serialize(doc))
        assert [e.label for e in again.iter_elements()] == [
            e.label for e in doc.iter_elements()
        ]
        assert again.root.text() == doc.root.text()

    def test_escaping(self):
        doc = parse_document("<a>x &amp; y</a>")
        assert "&amp;" in serialize(doc)
        assert parse_document(serialize(doc)).root.text() == "x & y"

    def test_doctype_regenerated_for_refs(self):
        doc = parse_document(TestIncludes.DOC)
        text = document_to_xml(doc)
        assert "<!ENTITY abs SYSTEM" in text
        again = parse_document(text)
        assert [r.target for r in again.iter_refs()] == ["u:abs"]

    def test_pretty_print(self):
        doc = parse_document("<a><b/></a>")
        assert "\n" in serialize(doc, indent="  ")


class TestTreeModel:
    def test_assign_sids_manual_tree(self):
        root = Element("a")
        root.add_child(Element("b"))
        root.add_child(Element("c"))
        assign_sids(root)
        assert tuple(root.sid) == (1, 6, 0)
        assert [tuple(c.sid) for c in root.child_elements()] == [(2, 3, 1), (4, 5, 1)]

    def test_iter_elements_document_order(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        starts = [el.sid.start for el in doc.iter_elements()]
        assert starts == sorted(starts)

    def test_element_count(self):
        assert parse_document("<a><b/><c/></a>").element_count == 3

    def test_find(self):
        doc = parse_document("<a><b><c/></b></a>")
        assert doc.root.find("c").label == "c"
        assert doc.root.find("zz") is None

    def test_repr_smoke(self):
        doc = parse_document("<a>t</a>")
        assert "Document" in repr(doc)
        assert "Element" in repr(doc.root)
        assert "Text" in repr(doc.root.children[0])
        assert "IntensionalRef" in repr(IntensionalRef("n", "t"))


class TestWords:
    def test_tokenize(self):
        assert tokenize("Hello, World-2!") == ["hello", "world", "2"]

    def test_stop_words_dropped(self):
        """The index leaves stop words out."""
        keys = set(extract_postings(parse_document("<a>the quick fox</a>"), 0, 0))
        assert "word:the" not in keys and "word:quick" in keys

    def test_keep_stop_words_option(self):
        """The document's own word streams keep them."""
        streams = ElementStreams(parse_document("<a>the fox</a>"))
        assert streams.word_columns(0, 0, "the") is not None

    @pytest.mark.parametrize(
        "text",
        [
            "Hello, World-2!",
            "İstanbul İzmir",  # lowercases to "i" + a combining dot
            "\u212aelvin",  # the Kelvin sign lowercases to "k"
            "Stra\u00dfe ß ǅ Ⅻ ½",
            "café naïve x\u0130y",
            "",
        ],
    )
    def test_tokenize_is_the_per_match_rule(self, text):
        """``tokenize`` lowercases what the pattern matched in the text
        as written: a non-ASCII letter whose lowercase form is ASCII
        joins no token."""
        assert tokenize(text) == [m.group(0).lower() for m in _WORD_RE.finditer(text)]
        assert all(token.isascii() and token == token.lower() for token in tokenize(text))

    def test_non_ascii_letters_split_tokens(self):
        assert tokenize("\u212aelvin İstanbul Straße") == ["elvin", "stanbul", "stra", "e"]

    def test_is_stop_word(self):
        assert is_stop_word("The")
        assert not is_stop_word("xml")


@settings(max_examples=30, deadline=None)
@given(st.recursive(
    st.just([]),
    lambda children: st.lists(children, min_size=1, max_size=4),
    max_leaves=20,
))
def test_sid_invariants_random_trees(shape):
    """start < end everywhere; intervals properly nest; 2n tags total."""

    def build(kids, label_iter):
        el = Element("n%d" % next(label_iter))
        for sub in kids:
            el.add_child(build(sub, label_iter))
        return el

    from itertools import count

    root = build(shape, count())
    assign_sids(root)
    elements = list(root.iter_elements())
    n = len(elements)
    numbers = sorted([e.sid.start for e in elements] + [e.sid.end for e in elements])
    assert numbers == list(range(1, 2 * n + 1))
    for el in elements:
        assert el.sid.start < el.sid.end
        for child in el.child_elements():
            assert el.sid.contains(child.sid)
            assert child.sid.level == el.sid.level + 1
