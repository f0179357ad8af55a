"""A small, dependency-free XML parser.

Supports the XML subset the paper's data uses: prolog, DOCTYPE with an
internal subset of ``<!ENTITY name SYSTEM "uri">`` / ``<!ENTITY name
"value">`` declarations, elements, attributes, character data, comments,
CDATA sections, and entity references.

Entity handling is the hook for Section 6 (intensional data):

* predefined entities (``&amp;`` ...) and internal entities expand in place;
* an external (SYSTEM) entity reference becomes an
  :class:`~repro.xmldata.tree.IntensionalRef` node — unless a ``resolver``
  is supplied and ``inline=True``, in which case the referenced document is
  fetched, parsed, and grafted in place (the paper's *in-lining*).

Attributes are folded into child elements placed before the element's
content, consistent with the paper's merged element/attribute model.

Structural ids are given out as the tags are read: one counter numbers
opening and closing tags alike, and an in-lined document continues its
includer's count, so the ids are those
:func:`~repro.xmldata.tree.assign_sids` would give the finished tree.

Scanning is done by compiled regular expressions, one match per token: a
start tag up to its attributes, one attribute, a run of character data, or
a markup opener.  When a token does not match, the plain readers
(``_read_name``, ``_expect``, ...) walk the same input to raise the error.
"""

import re
from functools import partial

from repro.errors import EntityResolutionError, XmlParseError
from repro.postings.posting import StructuralId
from repro.xmldata.tree import Document, Element, IntensionalRef, Text

_PREDEFINED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# A name is a run of characters str.isalnum() accepts, or "_-.:"; on a str
# pattern \w is exactly isalnum() or "_".
_NAME = re.compile(r"[\w\-.:]+")
_WS = re.compile(r"[ \t\r\n]*")
# "<name", the whitespace after it, and "/>" or ">" when no attribute follows
_START_TAG = re.compile(r"<([\w\-.:]+)[ \t\r\n]*(/?>)?")
_ATTRIBUTE = re.compile(r"([\w\-.:]+)[ \t\r\n]*=[ \t\r\n]*([\"'])(.*?)\2[ \t\r\n]*", re.DOTALL)
_TAG_CLOSE = re.compile(r"/?>")
# one token of element content; "end" alone is an end tag that is not
# "</name>" with optional whitespace
_CONTENT = re.compile(
    r"(?P<text>[^<&]+)"
    r"|(?P<end></)(?:(?P<name>[\w\-.:]+)[ \t\r\n]*>)?"
    r"|(?P<comment><!--)|(?P<cdata><!\[CDATA\[)|(?P<pi><\?)|(?P<start><)|(?P<ref>&)"
)
# an entity or character reference inside an attribute value
_VALUE_REF = re.compile(r"&([^;]*);")
# StructuralId((start, end, level)) without the namedtuple's Python __new__
_sid = partial(tuple.__new__, StructuralId)


class _Parser:
    def __init__(self, text, uri, resolver, inline, depth=0, tag=0):
        self.text = text
        self.pos = 0
        self.tag = tag  # the last tag number given out
        self.uri = uri
        self.resolver = resolver
        self.inline = inline
        self.entities = {}  # name -> ("internal", value) | ("external", sysid)
        self.depth = depth
        if depth > 16:
            raise EntityResolutionError("include nesting too deep (cycle?)")

    # -- plain readers -------------------------------------------------------

    def _expect(self, token):
        if not self.text.startswith(token, self.pos):
            raise XmlParseError("expected %r" % token, offset=self.pos)
        self.pos += len(token)

    def _skip_ws(self):
        self.pos = _WS.match(self.text, self.pos).end()

    def _read_until(self, token):
        end = self.text.find(token, self.pos)
        if end < 0:
            raise XmlParseError("unterminated construct, missing %r" % token, self.pos)
        chunk = self.text[self.pos : end]
        self.pos = end + len(token)
        return chunk

    def _read_name(self):
        m = _NAME.match(self.text, self.pos)
        if m is None:
            raise XmlParseError("expected a name", offset=self.pos)
        self.pos = m.end()
        return m.group()

    # -- top level -----------------------------------------------------------

    def parse(self, level=0):
        self._skip_misc()
        root = self._parse_element(level)
        self._skip_misc()
        if self.pos < len(self.text):
            raise XmlParseError("content after document element", offset=self.pos)
        return root

    def _skip_misc(self):
        text = self.text
        while True:
            self._skip_ws()
            if text.startswith("<?", self.pos):
                self.pos += 2
                self._read_until("?>")
            elif text.startswith("<!--", self.pos):
                self.pos += 4
                self._read_until("-->")
            elif text[self.pos : self.pos + 9].upper() == "<!DOCTYPE":
                self._parse_doctype()
            else:
                return

    def _parse_doctype(self):
        self.pos += 9
        self._skip_ws()
        self._read_name()  # document type name
        self._skip_ws()
        if self.text.startswith("[", self.pos):
            self.pos += 1
            self._parse_internal_subset()
        self._skip_ws()
        self._expect(">")

    def _parse_internal_subset(self):
        text = self.text
        while True:
            self._skip_ws()
            pos = self.pos
            if text.startswith("]", pos):
                self.pos += 1
                return
            if text.startswith("<!--", pos):
                self.pos += 4
                self._read_until("-->")
                continue
            if text[pos : pos + 8].upper() == "<!ENTITY":
                self.pos += 8
                self._skip_ws()
                name = self._read_name()
                self._skip_ws()
                if text[self.pos : self.pos + 6].upper() == "SYSTEM":
                    self.pos += 6
                    self._skip_ws()
                    self.entities[name] = ("external", self._read_quoted())
                else:
                    self.entities[name] = ("internal", self._read_quoted())
                self._skip_ws()
                self._expect(">")
                continue
            if text.startswith("<!", pos):
                # other declarations (ELEMENT, ATTLIST): skip to '>'
                self._read_until(">")
                continue
            raise XmlParseError("bad internal subset", offset=pos)

    def _read_quoted(self):
        quote = self.text[self.pos : self.pos + 1]
        if quote not in ("'", '"'):
            raise XmlParseError("expected quoted string", offset=self.pos)
        self.pos += 1
        return self._read_until(quote)

    # -- elements --------------------------------------------------------------

    def _parse_element(self, level):
        m = _START_TAG.match(self.text, self.pos)
        if m is None:  # no '<', or no name after it: the readers raise
            self._expect("<")
            self._read_name()
        element = Element(m.group(1))
        self.pos = m.end()
        self.tag = start = self.tag + 1
        close = m.group(2) or self._parse_attributes(element, level + 1)
        if close == ">":
            self._parse_content(element, level)
        self.tag += 1
        element.sid = _sid((start, self.tag, level))
        return element

    def _parse_attributes(self, element, level):
        """Read a start tag's attributes, each an element at ``level``,
        and return its "/>" or ">"."""
        text = self.text
        pos = self.pos
        tag = self.tag
        while True:
            m = _ATTRIBUTE.match(text, pos)
            if m is None:
                break
            attr = Element(m.group(1), _sid((tag + 1, tag + 2, level)))
            tag += 2
            attr.add_child(Text(_expand_charrefs(m.group(3), m.start(3))))
            element.add_child(attr)
            pos = m.end()
        self.pos = pos
        self.tag = tag
        m = _TAG_CLOSE.match(text, pos)
        if m is None:  # a malformed attribute, or '/' without '>': the readers raise
            if text[pos : pos + 1] not in ("", "/"):
                self._read_name()
                self._skip_ws()
                self._expect("=")
                self._skip_ws()
                self._read_quoted()
            self._expect(">")
        self.pos = m.end()
        return m.group()

    def _parse_content(self, element, level):
        """Read the children of ``element`` (at ``level``) and its end tag."""
        text = self.text
        buffer = []
        while True:
            m = _CONTENT.match(text, self.pos)
            if m is None:
                raise XmlParseError("unexpected end inside <%s>" % element.label, self.pos)
            kind = m.lastgroup
            if kind == "start":
                self._flush(element, buffer)
                element.add_child(self._parse_element(level + 1))
                continue
            self.pos = m.end()
            if kind == "text":
                buffer.append(m.group())
            elif kind == "name":
                self._flush(element, buffer)
                if m.group(kind) != element.label:
                    raise _mismatch(m.group(kind), element.label, m.end(kind))
                return
            elif kind == "ref":
                self._parse_entity_ref(element, buffer, level)
            elif kind == "cdata":
                buffer.append(self._read_until("]]>"))
            elif kind == "comment":
                self._read_until("-->")
            elif kind == "pi":
                self._read_until("?>")
            else:  # "</" without a well-formed end tag: the readers raise
                name = self._read_name()
                if name != element.label:
                    raise _mismatch(name, element.label, self.pos)
                self._skip_ws()
                self._expect(">")

    @staticmethod
    def _flush(element, buffer):
        if buffer:
            content = "".join(buffer).strip()
            if content:
                element.add_child(Text(content))
            del buffer[:]

    def _parse_entity_ref(self, element, buffer, level):
        # self.pos is just past the '&'
        if self.text.startswith("#", self.pos):
            offset = self.pos - 1
            self.pos += 1
            buffer.append(_decode_charref(self._read_until(";"), offset))
            return
        name = self._read_name()
        self._expect(";")
        if name in _PREDEFINED:
            buffer.append(_PREDEFINED[name])
            return
        kind, value = self.entities.get(name, (None, None))
        if kind == "internal":
            buffer.append(value)
            return
        if kind == "external":
            self._handle_include(element, buffer, name, value, level)
            return
        raise XmlParseError("undeclared entity &%s;" % name, offset=self.pos)

    def _handle_include(self, element, buffer, name, sysid, level):
        if self.inline:
            if self.resolver is None:
                raise EntityResolutionError(
                    "inlining requested but no resolver given for %r" % sysid
                )
            resolved = self.resolver(sysid)
            if resolved is None:
                raise EntityResolutionError("cannot resolve include %r" % sysid)
            sub = _Parser(
                resolved, sysid, self.resolver, inline=True, depth=self.depth + 1, tag=self.tag
            )
            self._flush(element, buffer)
            element.add_child(sub.parse(level + 1))
            self.tag = sub.tag
        else:
            element.add_child(IntensionalRef(name, sysid))


def _mismatch(name, label, offset):
    return XmlParseError("mismatched end tag </%s> for <%s>" % (name, label), offset)


def _decode_charref(raw, offset):
    """The character of the reference ``&#<raw>;`` found at ``offset``."""
    try:
        return chr(int(raw[1:], 16) if raw[:1] in ("x", "X") else int(raw))
    except (ValueError, OverflowError):
        raise XmlParseError("bad character reference &#%s;" % raw, offset) from None


def _expand_charrefs(value, offset):
    """An attribute value found at ``offset``, its references expanded;
    an unknown entity stays as written."""
    if "&" not in value:
        return value

    def expand(m):
        name = m.group(1)
        if name in _PREDEFINED:
            return _PREDEFINED[name]
        if name.startswith("#"):
            return _decode_charref(name[1:], offset + m.start())
        return m.group()

    return _VALUE_REF.sub(expand, value)


def parse_document(text, uri=None, resolver=None, inline=False, doc_type=None):
    """Parse ``text`` into a :class:`~repro.xmldata.tree.Document`.

    ``resolver(system_id) -> str`` supplies the content of external entities;
    with ``inline=True`` includes are expanded in place (Section 6's
    in-lining), otherwise they become intensional-reference nodes.
    ``doc_type`` overrides the inferred document type (the root label).
    """
    root = _Parser(text, uri, resolver, inline).parse()
    return Document(
        root,
        uri=uri,
        source_bytes=len(text.encode("utf-8")),
        doc_type=doc_type,
    )
