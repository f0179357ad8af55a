"""The character-at-a-time XML parser ``repro.xmldata.parser`` replaced.

Copied verbatim (``_Scanner``, ``_Parser`` and ``parse_document``) as the
oracle of ``test_parser_fuzz.py``: the compiled-regex parser must build the
same trees and raise the same errors, except for the error classes that
test names as fixed.  Not collected as a test module.
"""

from repro.errors import EntityResolutionError, XmlParseError
from repro.xmldata.tree import Document, Element, IntensionalRef, Text, assign_sids

_PREDEFINED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_WHITESPACE = " \t\r\n"


class _Scanner:
    """Character-level cursor with error reporting."""

    __slots__ = ("text", "pos")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def eof(self):
        return self.pos >= len(self.text)

    def peek(self, n=1):
        return self.text[self.pos : self.pos + n]

    def advance(self, n=1):
        self.pos += n

    def expect(self, token):
        if not self.text.startswith(token, self.pos):
            raise XmlParseError("expected %r" % token, offset=self.pos)
        self.pos += len(token)

    def skip_ws(self):
        while not self.eof() and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def read_until(self, token):
        end = self.text.find(token, self.pos)
        if end < 0:
            raise XmlParseError("unterminated construct, missing %r" % token, self.pos)
        chunk = self.text[self.pos : end]
        self.pos = end + len(token)
        return chunk

    def read_name(self):
        start = self.pos
        while not self.eof():
            ch = self.text[self.pos]
            if ch.isalnum() or ch in "_-.:":
                self.pos += 1
            else:
                break
        if self.pos == start:
            raise XmlParseError("expected a name", offset=start)
        return self.text[start : self.pos]


class _Parser:
    def __init__(self, text, uri, resolver, inline, depth=0):
        self.scanner = _Scanner(text)
        self.uri = uri
        self.resolver = resolver
        self.inline = inline
        self.entities = {}  # name -> ("internal", value) | ("external", sysid)
        self.depth = depth
        if depth > 16:
            raise EntityResolutionError("include nesting too deep (cycle?)")

    # -- top level -----------------------------------------------------------

    def parse(self):
        self._skip_misc()
        root = self._parse_element()
        self._skip_misc()
        if not self.scanner.eof():
            raise XmlParseError(
                "content after document element", offset=self.scanner.pos
            )
        return root

    def _skip_misc(self):
        sc = self.scanner
        while True:
            sc.skip_ws()
            if sc.peek(2) == "<?":
                sc.advance(2)
                sc.read_until("?>")
            elif sc.peek(4) == "<!--":
                sc.advance(4)
                sc.read_until("-->")
            elif sc.peek(9).upper() == "<!DOCTYPE":
                self._parse_doctype()
            else:
                return

    def _parse_doctype(self):
        sc = self.scanner
        sc.advance(9)
        sc.skip_ws()
        sc.read_name()  # document type name
        sc.skip_ws()
        if sc.peek() == "[":
            sc.advance()
            self._parse_internal_subset()
        sc.skip_ws()
        sc.expect(">")

    def _parse_internal_subset(self):
        sc = self.scanner
        while True:
            sc.skip_ws()
            if sc.peek() == "]":
                sc.advance()
                return
            if sc.peek(4) == "<!--":
                sc.advance(4)
                sc.read_until("-->")
                continue
            if sc.peek(8).upper() == "<!ENTITY":
                sc.advance(8)
                sc.skip_ws()
                name = sc.read_name()
                sc.skip_ws()
                if sc.peek(6).upper() == "SYSTEM":
                    sc.advance(6)
                    sc.skip_ws()
                    sysid = self._read_quoted()
                    self.entities[name] = ("external", sysid)
                else:
                    value = self._read_quoted()
                    self.entities[name] = ("internal", value)
                sc.skip_ws()
                sc.expect(">")
                continue
            if sc.peek(2) == "<!":
                # other declarations (ELEMENT, ATTLIST): skip to '>'
                sc.read_until(">")
                continue
            raise XmlParseError("bad internal subset", offset=sc.pos)

    def _read_quoted(self):
        sc = self.scanner
        quote = sc.peek()
        if quote not in "'\"":
            raise XmlParseError("expected quoted string", offset=sc.pos)
        sc.advance()
        return sc.read_until(quote)

    # -- elements --------------------------------------------------------------

    def _parse_element(self):
        sc = self.scanner
        sc.expect("<")
        label = sc.read_name()
        element = Element(label)
        self._parse_attributes(element)
        sc.skip_ws()
        if sc.peek(2) == "/>":
            sc.advance(2)
            return element
        sc.expect(">")
        self._parse_content(element)
        # _parse_content consumed "</"
        end_label = sc.read_name()
        if end_label != label:
            raise XmlParseError(
                "mismatched end tag </%s> for <%s>" % (end_label, label), sc.pos
            )
        sc.skip_ws()
        sc.expect(">")
        return element

    def _parse_attributes(self, element):
        sc = self.scanner
        while True:
            sc.skip_ws()
            nxt = sc.peek()
            if nxt in (">", "/") or sc.eof():
                return
            name = sc.read_name()
            sc.skip_ws()
            sc.expect("=")
            sc.skip_ws()
            value = self._expand_charrefs(self._read_quoted())
            attr = Element(name)
            attr.add_child(Text(value))
            element.add_child(attr)

    def _parse_content(self, element):
        sc = self.scanner
        buffer = []

        def flush():
            if buffer:
                content = "".join(buffer).strip()
                if content:
                    element.add_child(Text(content))
                del buffer[:]

        while True:
            if sc.eof():
                raise XmlParseError("unexpected end inside <%s>" % element.label, sc.pos)
            ch = sc.peek()
            if ch == "<":
                if sc.peek(4) == "<!--":
                    sc.advance(4)
                    sc.read_until("-->")
                elif sc.peek(9) == "<![CDATA[":
                    sc.advance(9)
                    buffer.append(sc.read_until("]]>"))
                elif sc.peek(2) == "</":
                    flush()
                    sc.advance(2)
                    return
                elif sc.peek(2) == "<?":
                    sc.advance(2)
                    sc.read_until("?>")
                else:
                    flush()
                    element.add_child(self._parse_element())
            elif ch == "&":
                self._parse_entity_ref(element, buffer)
            else:
                buffer.append(ch)
                sc.advance()

    def _parse_entity_ref(self, element, buffer):
        sc = self.scanner
        sc.advance()  # '&'
        if sc.peek() == "#":
            sc.advance()
            raw = sc.read_until(";")
            code = int(raw[1:], 16) if raw[:1] in "xX" else int(raw)
            buffer.append(chr(code))
            return
        name = sc.read_name()
        sc.expect(";")
        if name in _PREDEFINED:
            buffer.append(_PREDEFINED[name])
            return
        kind, value = self.entities.get(name, (None, None))
        if kind == "internal":
            buffer.append(value)
            return
        if kind == "external":
            self._handle_include(element, buffer, name, value)
            return
        raise XmlParseError("undeclared entity &%s;" % name, offset=sc.pos)

    def _handle_include(self, element, buffer, name, sysid):
        if self.inline:
            if self.resolver is None:
                raise EntityResolutionError(
                    "inlining requested but no resolver given for %r" % sysid
                )
            resolved = self.resolver(sysid)
            if resolved is None:
                raise EntityResolutionError("cannot resolve include %r" % sysid)
            sub = _Parser(
                resolved, sysid, self.resolver, inline=True, depth=self.depth + 1
            )
            if buffer:
                content = "".join(buffer).strip()
                if content:
                    element.add_child(Text(content))
                del buffer[:]
            element.add_child(sub.parse())
        else:
            element.add_child(IntensionalRef(name, sysid))

    def _expand_charrefs(self, value):
        if "&" not in value:
            return value
        out = []
        i = 0
        while i < len(value):
            if value[i] == "&":
                end = value.find(";", i)
                if end < 0:
                    out.append(value[i:])
                    break
                name = value[i + 1 : end]
                if name in _PREDEFINED:
                    out.append(_PREDEFINED[name])
                elif name.startswith("#"):
                    out.append(
                        chr(int(name[2:], 16) if name[1:2] in "xX" else int(name[1:]))
                    )
                else:
                    out.append(value[i : end + 1])
                i = end + 1
            else:
                out.append(value[i])
                i += 1
        return "".join(out)


def parse_document(text, uri=None, resolver=None, inline=False, doc_type=None):
    """Parse ``text`` into a :class:`~repro.xmldata.tree.Document`.

    ``resolver(system_id) -> str`` supplies the content of external entities;
    with ``inline=True`` includes are expanded in place (Section 6's
    in-lining), otherwise they become intensional-reference nodes.
    ``doc_type`` overrides the inferred document type (the root label).
    """
    parser = _Parser(text, uri, resolver, inline)
    root = parser.parse()
    assign_sids(root)
    return Document(
        root,
        uri=uri,
        source_bytes=len(text.encode("utf-8")),
        doc_type=doc_type,
    )
