"""Serialization of documents back to XML text.

Used by the workload generators (documents are published as text, exactly
as peers would check them in), by round-trip tests, and for the byte sizes
the cost model charges when documents or answers are shipped.
"""

from repro.xmldata.tree import Document, Element, IntensionalRef, Text


def _escape(text):
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def serialize(node, indent=None, _level=0):
    """Serialize a Document/Element subtree to an XML string.

    With ``indent`` (a string such as two spaces), output is pretty-printed;
    by default it is compact, which is what the size accounting uses.
    Intensional references serialize back to entity references, so a
    document with includes round-trips to an equivalent form (the entity
    declarations live in the DOCTYPE, which the caller regenerates via
    :func:`doctype_for`).
    """
    if isinstance(node, Document):
        return serialize(node.root, indent=indent)
    parts = []
    _serialize_into(node, parts, indent, _level)
    return "".join(parts)


def _serialize_into(node, parts, indent, level):
    pad = (indent * level) if indent else ""
    nl = "\n" if indent else ""
    if isinstance(node, Text):
        parts.append(pad + _escape(node.content) + nl)
        return
    if isinstance(node, IntensionalRef):
        parts.append(pad + "&%s;" % node.name + nl)
        return
    if not node.children:
        parts.append(pad + "<%s/>" % node.label + nl)
        return
    parts.append(pad + "<%s>" % node.label + nl)
    for child in node.children:
        _serialize_into(child, parts, indent, level + 1)
    parts.append(pad + "</%s>" % node.label + nl)


def doctype_for(document):
    """The DOCTYPE declaration for a document's intensional references."""
    refs = list(document.iter_refs()) if isinstance(document, Document) else []
    if not refs:
        return ""
    decls = []
    seen = set()
    for ref in refs:
        if ref.name in seen:
            continue
        seen.add(ref.name)
        decls.append('<!ENTITY %s SYSTEM "%s">' % (ref.name, ref.target))
    return "<!DOCTYPE %s [ %s ]>" % (document.root.label, " ".join(decls))


def document_to_xml(document):
    """Full XML text for ``document``, including any needed DOCTYPE."""
    return doctype_for(document) + serialize(document)
