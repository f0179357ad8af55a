"""The tree-pattern query model.

A tree-pattern query (Section 2) is a tree whose nodes are labeled with an
element label or ``*``, and whose edges carry the child (``/``) or
descendant (``//``) axis.  A node may carry a value condition
``. contains "w"``; we model such conditions as extra *word nodes* attached
with the descendant-or-self axis, because words are indexed under their
directly containing element and ``contains`` may be satisfied by the
element itself or any descendant.
"""

import enum
from itertools import count

from repro.xmldata.words import is_stop_word


def _child(anc, desc):
    return anc.start < desc.start < anc.end and desc.level == anc.level + 1


def _descendant(anc, desc):
    return anc.start < desc.start < anc.end


def _descendant_or_self(anc, desc):
    return anc.start <= desc.start and desc.end <= anc.end


_TESTS = {"/": _child, "//": _descendant, ".//": _descendant_or_self}


class Axis(enum.Enum):
    """Edge semantics between a pattern node and its parent."""

    CHILD = "/"
    DESCENDANT = "//"
    DESCENDANT_OR_SELF = ".//"

    @property
    def admits(self):
        """Structural test between two postings (same document assumed),
        ``admits(ancestor, descendant)``: a plain function, which loops
        over many rows resolve once per edge."""
        return _TESTS[self.value]


WILDCARD = "*"


class PatternNode:
    """One node of a tree pattern.

    Exactly one of ``label``/``word`` is set: label nodes match elements by
    tag (``*`` matches any), word nodes match elements directly containing
    the word.
    """

    __slots__ = (
        "label",
        "word",
        "axis",
        "children",
        "node_id",
        "parent",
        "value_equals",
    )

    def __init__(self, label=None, word=None, axis=Axis.DESCENDANT):
        if (label is None) == (word is None):
            raise ValueError("a pattern node is either a label node or a word node")
        self.label = label
        self.word = word.lower() if word else None
        self.axis = axis
        self.children = []
        self.node_id = None
        self.parent = None
        # the paper's "value condition of the form label=s": the element's
        # direct text must equal this string (checked in the document
        # phase; the index uses the words of s for completeness)
        self.value_equals = None

    def add_child(self, node):
        node.parent = self
        self.children.append(node)
        return node

    @property
    def is_word(self):
        return self.word is not None

    @property
    def is_wildcard(self):
        return self.label == WILDCARD

    @property
    def is_stop_word(self):
        return self.is_word and is_stop_word(self.word)

    @property
    def is_leaf(self):
        return not self.children

    @property
    def term(self):
        """The index term this node needs, or None (wildcard/stop word)."""
        if self.is_wildcard or self.is_stop_word:
            return None
        if self.is_word:
            return ("word", self.word)
        return ("label", self.label)

    def iter_subtree(self):
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def __repr__(self):
        name = ("word:%s" % self.word) if self.is_word else self.label
        return "PatternNode(%s%s, id=%r)" % (self.axis.value, name, self.node_id)


class TreePattern:
    """A complete tree-pattern query."""

    def __init__(self, root, source=None):
        self.root = root
        self.source = source
        self._renumber()

    def _renumber(self):
        counter = count()
        for node in self.root.iter_subtree():
            node.node_id = next(counter)

    def nodes(self):
        """All nodes in preorder (node_id order)."""
        return list(self.root.iter_subtree())

    def __len__(self):
        return sum(1 for _ in self.root.iter_subtree())

    def terms(self):
        """The distinct index terms the pattern needs, in preorder."""
        seen = []
        for node in self.nodes():
            term = node.term
            if term is not None and term not in seen:
                seen.append(term)
        return seen

    def word_nodes(self):
        return [n for n in self.nodes() if n.is_word]

    def to_string(self):
        """Render back to (one of the accepted forms of) query syntax."""
        return _render(self.root)

    def __repr__(self):
        return "TreePattern(%s)" % self.to_string()


def _render(node):
    if node.is_word:
        base = '[. contains "%s"]' % node.word
        # word nodes render as a predicate on their parent; handled below
        return base
    out = node.axis.value + node.label
    trailing = None
    preds = []
    for child in node.children:
        if child.is_word and child.is_leaf:
            preds.append('[. contains "%s"]' % child.word)
        elif trailing is None and not child.is_word and _is_spine(node, child):
            trailing = child
        else:
            preds.append("[%s]" % _render(child).lstrip())
    rendered = out + "".join(preds)
    if trailing is not None:
        rendered += _render(trailing)
    return rendered


def _is_spine(parent, child):
    """Heuristic: render the last non-word child on the main path."""
    return child is next(
        (c for c in reversed(parent.children) if not c.is_word), None
    )
