"""Grammar-based differential fuzzing of ``repro.xmldata.parser``.

A hypothesis grammar writes documents with a prolog, a DOCTYPE declaring
internal and SYSTEM entities, nested elements with attributes in both
quote styles, character and predefined references, comments, CDATA,
processing instructions and non-ASCII names and text.  Mutations then cut
the input short and insert or delete markup characters.  Every input is
parsed by the parser under test and by ``reference_parser`` (the
character-at-a-time parser it replaced, kept verbatim), with and without
in-lining, and the two outcomes must be equal: the same tree and
``source_bytes``, or the same ``(type, message, offset)``.

Two error classes were fixed after the reference, and the comparison maps
them: a malformed character reference (the reference lets ``ValueError`` or
``OverflowError`` escape) is an ``XmlParseError`` at the reference's
``&``, and a quoted string cut off by the end of input (the reference
reports "missing ''" past the end) is "expected quoted string" at the end.
Only ``repro.errors`` types escape the parser under test.
"""

import re

from hypothesis import given, settings, strategies as st

import reference_parser
from repro.errors import ReproError, XmlParseError
from repro.workloads.dblp import DblpGenerator
from repro.xmldata.parser import parse_document
from repro.xmldata.tree import Element, Text

MUTATION_CHARS = "<>/&;#x\"'=!-[]?"
NAME_CHARS = "abé²_-.:1"
TEXT_CHARS = "ab é²\n\t>]=;'\"#x"

#: the documents SYSTEM ids resolve to when in-lining; "u:missing" resolves
#: to nothing, "u:loop" includes itself
INCLUDES = {
    "u:leaf": "<i>leaf &amp; &#233;</i>",
    "u:nest": '<!DOCTYPE m [<!ENTITY l SYSTEM "u:leaf">]><m>x &l; y</m>',
    "u:bad": "<x>",
    "u:loop": '<!DOCTYPE l [<!ENTITY l SYSTEM "u:loop">]><l>&l;</l>',
}
INTERNAL = {"who": "World", "amped": "a &amp; b", "tagged": "<q/>"}
EXTERNAL = {"leaf": "u:leaf", "nest": "u:nest", "bad": "u:bad", "loop": "u:loop",
            "gone": "u:missing"}

ws = st.sampled_from(["", " ", "\n", " \t", "\r\n"])
names = st.text(alphabet=NAME_CHARS, min_size=1, max_size=3)
texts = st.text(alphabet=TEXT_CHARS, max_size=8)
codes = st.one_of(
    st.integers(0x20, 0x2FF),
    st.sampled_from([0xE9, 0xD800, 0x10FFFF, 0x110000, 99999999999]),
)
char_refs = st.one_of(
    codes.map(lambda c: "&#%d;" % c),
    codes.map(lambda c: "&#x%x;" % c),
    codes.map(lambda c: "&#X%X;" % c),
)
predefined = st.sampled_from(["&amp;", "&lt;", "&gt;", "&quot;", "&apos;"])


@st.composite
def attributes(draw):
    quote = draw(st.sampled_from(['"', "'"]))
    parts = draw(st.lists(
        st.one_of(texts, char_refs, predefined, st.just("&unknown;"), st.just("&")),
        max_size=3,
    ))
    value = "".join(parts).replace(quote, "")
    return " %s%s=%s%s%s%s" % (
        draw(names), draw(ws), draw(ws), quote, value, quote
    )


comments = texts.map(lambda t: "<!--%s-->" % t.replace("-", ""))
cdata = texts.map(lambda t: "<![CDATA[%s]]>" % t.replace("]", ""))
processing = texts.map(lambda t: "<?pi %s?>" % t.replace("?", ""))


@st.composite
def element(draw, children):
    name = draw(names)
    attrs = "".join(draw(st.lists(attributes(), max_size=2)))
    if draw(st.booleans()):
        return "<%s%s%s/>" % (name, attrs, draw(ws))
    body = "".join(draw(st.lists(children, max_size=4)))
    return "<%s%s%s>%s</%s%s>" % (name, attrs, draw(ws), body, name, draw(ws))


def elements(declared):
    """Element trees whose entity references are mostly to ``declared``."""
    refs = st.sampled_from(["&%s;" % name for name in declared] or ["&nope;"])
    content = st.one_of(texts, char_refs, predefined, refs, refs, comments, cdata,
                        processing, st.just("&nope;"))
    return st.recursive(
        element(content),
        lambda inner: element(st.one_of(inner, content)),
        max_leaves=6,
    )


def doctype(draw, internal, external):
    entries = []
    for name in internal:
        quote = draw(st.sampled_from(['"', "'"]))
        entries.append("<!%s %s %s%s%s>" % (
            draw(st.sampled_from(["ENTITY", "entity"])), name, quote,
            INTERNAL[name], quote,
        ))
    for name in external:
        entries.append('<!ENTITY %s %s "%s">' % (
            name, draw(st.sampled_from(["SYSTEM", "System"])), EXTERNAL[name]
        ))
    entries += draw(st.lists(
        st.sampled_from(["<!-- note -->", "<!ELEMENT a ANY>", "<!ATTLIST a b CDATA>"]),
        max_size=2,
    ))
    entries = draw(st.permutations(entries))
    keyword = draw(st.sampled_from(["DOCTYPE", "doctype"]))
    return "<!%s %s%s[%s]%s>" % (
        keyword, draw(names), draw(ws), draw(ws).join(entries), draw(ws)
    )


@st.composite
def documents(draw):
    """A prolog, maybe a DOCTYPE, one element tree and trailing misc."""
    internal = external = []
    head = draw(st.sampled_from(
        ["", '<?xml version="1.0"?>', "<?xml version='1.0' encoding='utf-8'?>\n"]
    )) + draw(st.sampled_from(["", "<!-- head -->", " "]))
    if draw(st.booleans()):
        internal = draw(st.lists(st.sampled_from(sorted(INTERNAL)), max_size=3))
        external = draw(st.lists(st.sampled_from(sorted(EXTERNAL)), max_size=3))
        head += doctype(draw, internal, external)
    body = draw(elements(sorted(set(internal + external))))
    return head + body + draw(st.sampled_from(["", "\n", "<!-- tail -->"]))


@st.composite
def mutated_documents(draw):
    text = draw(documents())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(MUTATION_CHARS)) + text[at:]
        elif edit == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return text


def _shape(node):
    if isinstance(node, Element):
        return ("E", node.label, tuple(node.sid), tuple(_shape(c) for c in node.children))
    if isinstance(node, Text):
        return ("T", node.content)
    return ("R", node.name, node.target)


def outcome(parse, text, **options):
    """A parse's result in comparable form: its tree, or its error."""
    try:
        doc = parse(text, uri="u:doc", **options)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc), str(exc), getattr(exc, "offset", None))
    return ("ok", _shape(doc.root), doc.source_bytes, doc.uri, doc.doc_type)


def check_same_as_reference(text, modes=({}, {"inline": True, "resolver": INCLUDES.get})):
    for options in modes:
        got = outcome(parse_document, text, **options)
        expected = outcome(reference_parser.parse_document, text, **options)
        if got[0] == "error":
            assert issubclass(got[1], ReproError), (text, options, got)
        if expected[1] in (ValueError, OverflowError):
            # a malformed character reference, reported where it starts
            assert got[:2] == ("error", XmlParseError), (text, options, got)
            offset = got[3]
            assert text.startswith("&#", offset), (text, options, got)
            ref = text[offset : text.index(";", offset) + 1]
            expected = ("error", XmlParseError, "bad character reference %s (at offset %d)"
                        % (ref, offset), offset)
        elif expected[:2] == ("error", XmlParseError) and expected[2].startswith(
            "unterminated construct, missing ''"
        ):
            end = len(text)
            expected = ("error", XmlParseError, "expected quoted string (at offset %d)" % end,
                        end)
        assert got == expected, (text, options)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_grammar_documents_parse_like_the_reference(text):
    check_same_as_reference(text)


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
def test_mutated_documents_parse_like_the_reference(text):
    check_same_as_reference(text)


def test_grammar_documents_mostly_parse():
    """The grammar is not so broken that every document is an error.

    The sample is fixed (``derandomize``): drawn afresh, the ok share of 50
    documents spread from 0.58 to 0.96 over 40 runs and once fell below
    the bar, which says nothing about the grammar."""
    found = []

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(documents())
    def collect(text):
        found.append(outcome(parse_document, text)[0])

    collect()
    assert found.count("ok") >= len(found) // 2


def test_truncated_and_mutated_dblp_parse_like_the_reference():
    text = DblpGenerator(seed=5, target_doc_bytes=1500).document(0)
    cases = [text[:at] for at in range(0, len(text) + 1, 4)]
    for at in range(0, len(text), 29):
        for ch in MUTATION_CHARS:
            cases.append(text[:at] + ch + text[at:])
        cases.append(text[:at] + text[at + 1:])
    for case in cases:
        check_same_as_reference(case, modes=({},))


def test_name_rule_is_isalnum_or_name_punctuation():
    """On a str pattern ``\\w`` is exactly ``str.isalnum()`` or ``_``, over
    every code point, so ``[\\w\\-.:]`` is the old character test."""
    everything = "".join(map(chr, range(0x110000)))
    by_regex = [m.start() for m in re.finditer(r"[\w\-.:]", everything)]
    by_method = [i for i, ch in enumerate(everything) if ch.isalnum() or ch in "_-.:"]
    assert by_regex == by_method
