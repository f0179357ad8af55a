"""From user pattern to index query.

The index stores postings only for concrete terms: wildcards (``*``) and
stop words have no posting lists, so the *index query* runs on a reduced
pattern with those nodes removed (Section 2: index queries are complete,
but may be imprecise in the presence of wildcards and stop words).

Removing a node reattaches its children to its parent; since the removed
node may have matched any intervening element, the reattached edges become
descendant edges (completeness is preserved, precision may be lost).
Removing the *root* turns the pattern into a forest: each component is
joined independently and candidate documents are intersected on ``(p, d)``.
"""

from repro.errors import UnindexableQueryError
from repro.query.pattern import Axis, PatternNode, TreePattern


class IndexPlan:
    """The executable index query derived from a user pattern.

    ``components``
        list of :class:`TreePattern`, each of whose nodes carries an index
        term (a forest if the original root was removed).
    ``node_map``
        per component, dict mapping the component's node_ids back to the
        original pattern's node_ids.
    ``precise``
        False if nodes were dropped — the index answer is then a superset
        of the documents holding real matches.
    ``complete``
        always True in this system (the paper's Section 2 guarantee); kept
        explicit because Section 6 techniques trade it off.
    """

    def __init__(self, pattern, components, node_maps, dropped):
        self.pattern = pattern
        self.components = components
        self.node_maps = node_maps
        self.dropped = dropped
        self.precise = not dropped
        self.complete = True

    @property
    def is_forest(self):
        return len(self.components) > 1

    def terms(self):
        """All index terms needed, across components, without duplicates."""
        seen = []
        for component in self.components:
            for term in component.terms():
                if term not in seen:
                    seen.append(term)
        return seen

    def __repr__(self):
        return "IndexPlan(%d components, precise=%s)" % (
            len(self.components),
            self.precise,
        )


def _collapse(node, parent_axis_forces_desc):
    """Copy the subtree rooted at ``node`` dropping index-less nodes.

    Returns ``(copies, pairs, dropped_any)`` where ``copies`` is a list of
    root copies (several if ``node`` itself is dropped) and ``pairs`` links
    each copied node to its original.
    """
    droppable = node.term is None
    pairs = []
    dropped = droppable
    if droppable:
        roots = []
        for child in node.children:
            child_roots, child_pairs, child_dropped = _collapse(child, True)
            roots.extend(child_roots)
            pairs.extend(child_pairs)
            dropped = dropped or child_dropped
        return roots, pairs, dropped

    axis = node.axis
    if parent_axis_forces_desc and axis is Axis.CHILD:
        axis = Axis.DESCENDANT
    copy = (
        PatternNode(word=node.word, axis=axis)
        if node.is_word
        else PatternNode(label=node.label, axis=axis)
    )
    pairs.append((copy, node))
    for child in node.children:
        child_roots, child_pairs, child_dropped = _collapse(child, False)
        for root in child_roots:
            copy.add_child(root)
        pairs.extend(child_pairs)
        dropped = dropped or child_dropped
    return [copy], pairs, dropped


def build_index_plan(pattern):
    """Derive the :class:`IndexPlan` for ``pattern``.

    Raises :class:`~repro.errors.UnindexableQueryError` if no node carries
    an index term at all (a query of only wildcards/stop words cannot use
    the index)."""
    roots, pairs, dropped = _collapse(pattern.root, False)
    if not roots:
        raise UnindexableQueryError(
            "query %r has no indexable term; the index cannot prune it"
            % (pattern.source,)
        )
    by_copy = {id(copy): orig for copy, orig in pairs}
    components = []
    node_maps = []
    for root in roots:
        component = TreePattern(root, source=pattern.source)
        mapping = {
            node.node_id: by_copy[id(node)].node_id
            for node in component.nodes()
        }
        components.append(component)
        node_maps.append(mapping)
    return IndexPlan(pattern, components, node_maps, dropped)
