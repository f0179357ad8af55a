"""XML data model: labeled unranked trees with structural identifiers.

Documents are parsed into :class:`~repro.xmldata.tree.Document` objects
whose elements carry ``(start, end, level)`` structural identifiers assigned
by numbering opening/closing tags in document order (Section 2).  The parser
understands DTD entity declarations and entity references, which is how the
paper's *intensional data* (includes) enters the system (Section 6).
"""

from repro.xmldata.tree import Document, Element, IntensionalRef, Text
from repro.xmldata.parser import parse_document
from repro.xmldata.serializer import serialize

__all__ = [
    "Document",
    "Element",
    "Text",
    "IntensionalRef",
    "parse_document",
    "serialize",
]
