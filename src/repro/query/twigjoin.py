"""Twig join over sorted posting streams: a semi-join reducer, then expansion.

KadoP's index-query engine is "a multi-threaded, block-based version of the
holistic twig join from [Bruno, Koudas, Srivastava, SIGMOD 2002]"; that
holistic join is the paper's engine.  This module computes the same
answers set at a time, as a full reducer followed by an expansion
(Yannakakis, VLDB 1981), with one sorted stream of postings per pattern
node (``(p, d, start)`` order, exactly how posting lists are stored):

* **Reducer.**  Bottom-up over the pattern, a row of node ``q`` is kept
  only when every child has a kept row below it in the same document, one
  ``semijoin_below`` kernel call per pattern edge.  Every kept row then
  has a full match of its subtree below it, and an empty root means no
  answer.
* **Expansion.**  Top-down in preorder, the match table holds one column
  of row indexes per bound node.  Each edge is one ``expand_below`` kernel
  call, which lists for every bound parent row the child rows the edge's
  axis admits (the exact :attr:`Axis.admits` test), and the table's
  columns are gathered by index.  Each match is then a tuple of postings
  in ``node_id`` order (:func:`twig_matches`); :func:`twig_join` zips the
  tuples into binding dicts, with ``map``/``zip`` and no per-row Python
  loop.

Because the table grows in preorder, parent rows in order and child rows in
order, the matches come out in ``node_id``-major order of their postings:
the lexicographic output order, with no sort.  Equal rows in an input
stream give equal matches, which are kept once.

When only the root rows or the documents matter — view maintenance, and
the index query, whose document peers evaluate the query exactly
afterwards — :func:`twig_roots` and :func:`twig_docs` run the reducer
alone and enumerate nothing.
"""

from itertools import repeat

from repro.postings import kernels
from repro.postings.plist import PostingList


class TwigPlan:
    """Pattern-static structures shared by every join over one pattern.

    Lists indexed by ``node_id`` (preorder, so ``0`` is the root): each
    node's parent (``-1`` at the root), its children, and the axis of the
    edge above it.  The block-based join of Section 4.2 runs one join per
    meaningful block vector over the *same* pattern, and the document phase
    one per document peer, so none of this is redone per join.
    """

    __slots__ = ("pattern", "nodes", "parent", "children", "axes")

    def __init__(self, pattern):
        self.pattern = pattern
        self.nodes = nodes = pattern.nodes()
        self.parent = [-1 if n.parent is None else n.parent.node_id for n in nodes]
        self.children = [[c.node_id for c in n.children] for n in nodes]
        self.axes = [n.axis.value for n in nodes]


def _reduce(plan, streams):
    """The reducer: each node's kept rows as a column 5-tuple, in
    ``node_id`` order, or None when the root keeps none.

    ``streams`` maps ``node_id`` to a :class:`PostingList`, or to postings
    in ``(p, d, sid)`` order, which are trusted as given (duplicates kept).
    The root's own axis is ignored."""
    missing = [n for n in plan.nodes if n.node_id not in streams]
    if missing:
        raise ValueError("no stream for pattern nodes %r" % (missing,))
    semijoin_below = kernels.active().semijoin_below
    kept = [None] * len(plan.nodes)
    for q in range(len(plan.nodes) - 1, -1, -1):
        postings = streams[q]
        if not isinstance(postings, PostingList):
            postings = PostingList.from_sorted(postings)
        cols = postings.arrays()
        for c in plan.children[q]:
            if not len(cols[0]):
                break
            cols = semijoin_below(cols, kept[c], plan.axes[c])
        if not len(cols[0]):
            return None
        kept[q] = cols
    return kept


def twig_matches(pattern, streams, plan=None):
    """Run the twig join; each match as a tuple of postings in ``node_id``
    order.

    ``streams`` maps ``node_id`` to an iterable of postings in
    ``(p, d, sid)`` order.  Returns the list of matches, duplicate-free, in
    lexicographic output order.  Callers that join many stream sets over
    one pattern (the per-vector block joins, the document peers) pass a
    shared :class:`TwigPlan` to skip the pattern-shape setup.
    """
    if plan is None:
        plan = TwigPlan(pattern)
    kept = _reduce(plan, streams)
    if kept is None:
        return []
    expand_below = kernels.active().expand_below
    table = [range(len(kept[0][0]))]
    for q in range(1, len(kept)):
        p = plan.parent[q]
        owner, inner = expand_below(kept[p], kept[q], plan.axes[q], table[p])
        if not owner:
            return []
        table = [list(map(col.__getitem__, owner)) for col in table]
        table.append(inner)
    bound = [
        map(PostingList.from_columns(*cols).items().__getitem__, rows)
        for cols, rows in zip(kept, table)
    ]
    # rows repeated in a stream give equal matches: each is kept once, first
    return list(dict.fromkeys(zip(*bound)))


def twig_join(pattern, streams, plan=None):
    """:func:`twig_matches` with each match as a binding dict
    (``node_id → Posting``)."""
    if plan is None:
        plan = TwigPlan(pattern)
    matches = twig_matches(pattern, streams, plan)
    return list(map(dict, map(zip, repeat(range(len(plan.nodes))), matches)))


def twig_roots(pattern, streams, plan=None):
    """The root rows that have at least one match of ``pattern`` below.

    The reducer of :func:`twig_join` alone, enumerating nothing: its kept
    root rows are exactly the root bindings of the matches, returned as a
    :class:`PostingList` in stream order (duplicate-free when the root's
    stream is).  Streams are read as :func:`twig_join` reads them.
    """
    if plan is None:
        plan = TwigPlan(pattern)
    kept = _reduce(plan, streams)
    if kept is None:
        return PostingList()
    return PostingList.from_columns(*kept[0])


def twig_docs(pattern, streams, plan=None):
    """The ``(peer, doc)`` pairs in which ``pattern`` has at least one match:
    the documents of :func:`twig_roots`, the index query's existence
    question."""
    return set(twig_roots(pattern, streams, plan).doc_ids())
