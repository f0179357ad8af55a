"""The labeled unranked tree model of Section 2.

A document is a tree of :class:`Element` nodes with interleaved
:class:`Text` and :class:`IntensionalRef` children.  Attributes are folded
into child elements ("for simplicity, we do not distinguish between elements
and attributes"), so one uniform node kind carries all structure.

Each element holds a :class:`~repro.postings.posting.StructuralId`
``(start, end, level)``; start/end number the element's opening and closing
tags in the order they appear in the document, level is tree depth (root is
level 0).
"""

from repro.postings.posting import StructuralId


class Element:
    """An element node."""

    __slots__ = ("label", "children", "sid", "parent")

    def __init__(self, label, sid=None, parent=None):
        self.label = label
        self.children = []
        self.sid = sid
        self.parent = parent

    # -- construction -------------------------------------------------------

    def add_child(self, node):
        node.parent = self
        self.children.append(node)
        return node

    # -- navigation -----------------------------------------------------------

    def child_elements(self):
        return [c for c in self.children if isinstance(c, Element)]

    def iter_elements(self):
        """This element and all element descendants, in document order."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter_elements()

    def iter_text(self):
        """Direct text children (not descendants')."""
        for child in self.children:
            if isinstance(child, Text):
                yield child.content

    def iter_refs(self):
        """Intensional references anywhere under this element."""
        for child in self.children:
            if isinstance(child, IntensionalRef):
                yield child
            elif isinstance(child, Element):
                yield from child.iter_refs()

    def text(self):
        """Concatenated descendant text (for assertions and examples)."""
        parts = []
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.content)
            elif isinstance(child, Element):
                parts.append(child.text())
        return " ".join(p for p in parts if p)

    def find(self, label):
        """First descendant element with ``label`` (document order)."""
        for el in self.iter_elements():
            if el is not self and el.label == label:
                return el
        return None

    @property
    def is_intensional(self):
        """True iff the subtree contains an unexpanded include/reference.

        This is the *intensional-node* flag of Section 6: the element
        identifier records whether the subtree is purely extensional.
        """
        for child in self.children:
            if isinstance(child, IntensionalRef):
                return True
            if isinstance(child, Element) and child.is_intensional:
                return True
        return False

    def __repr__(self):
        return "Element(%r, sid=%r, %d children)" % (
            self.label,
            tuple(self.sid) if self.sid else None,
            len(self.children),
        )


class Text:
    """A text node."""

    __slots__ = ("content", "parent")

    def __init__(self, content, parent=None):
        self.content = content
        self.parent = parent

    def __repr__(self):
        return "Text(%r)" % (self.content,)


class IntensionalRef:
    """An unexpanded include: a reference to external (intensional) data.

    ``name`` is the entity name, ``target`` the SYSTEM identifier (the
    ``w = f(u)`` string of Section 6 whose hash becomes the functional id).
    """

    __slots__ = ("name", "target", "parent")

    def __init__(self, name, target, parent=None):
        self.name = name
        self.target = target
        self.parent = parent

    def __repr__(self):
        return "IntensionalRef(%r -> %r)" % (self.name, self.target)


class Document:
    """A parsed document: root element plus collection-level metadata.

    ``doc_type`` is the paper's user-specified or system-inferred document
    type (Section 4.1); it defaults to the root label, which is what the
    real system infers in the absence of a schema."""

    def __init__(self, root, uri=None, source_bytes=0, doc_type=None):
        self.root = root
        self.uri = uri
        self.source_bytes = source_bytes
        self.doc_type = doc_type or root.label
        # the ElementStreams the document phase joins over, set by the peer
        # that publishes the document and dropped with it
        self.streams = None

    def iter_elements(self):
        return self.root.iter_elements()

    def iter_refs(self):
        return self.root.iter_refs()

    @property
    def element_count(self):
        return sum(1 for _ in self.iter_elements())

    @property
    def is_intensional(self):
        return self.root.is_intensional

    def __repr__(self):
        return "Document(uri=%r, %d elements)" % (self.uri, self.element_count)


def assign_sids(root):
    """(Re)number the tree's tags, assigning structural ids.

    Opening and closing tags share one counter starting at 1, exactly as in
    the paper's ``(start, end, lev)`` scheme.  Intensional references do not
    consume tag numbers (they stand for tags of *another* virtual document).
    The parser gives out the same ids as it reads the tags; this walk is
    for trees built by hand.
    """
    counter = [0]

    def visit(element, level):
        counter[0] += 1
        start = counter[0]
        for child in element.children:
            if isinstance(child, Element):
                visit(child, level + 1)
        counter[0] += 1
        element.sid = StructuralId(start, counter[0], level)

    visit(root, 0)
    return root
