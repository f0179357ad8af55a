"""View definitions: canonicalized tree patterns with stable DHT ids.

A view is defined by a tree pattern (labels, words, value conditions, the
three axes), exactly the query model of Section 2.  Two syntactically
different queries with the same pattern tree — predicates reordered, say —
must map to the same view, so identity is the *canonical form*: a
deterministic serialization with children sorted, independent of parse
order.  The view id is a stable hash of the canonical form; it keys the
view's catalog record and the pseudo-keys of its answer blocks, so the DHT
scatters different views (and different blocks of one view) over distinct
peers, like the DPP's ``overflow:i:a`` keys.
"""

from repro.util.hashing import stable_hash

#: estimated catalog bytes per block entry (two doc ids, key, counters)
BLOCK_REF_BYTES = 40

#: prefix of every answer block's DHT key
BLOCK_KEY_PREFIX = "viewblk:"


def canonical_pattern(pattern):
    """Deterministic canonical form of a tree pattern.

    Children are sorted by their own canonical forms, so predicate order
    (``//a[//b][//c]`` vs ``//a[//c][//b]``) does not change identity.
    """
    return _canon(pattern.root)


def _canon(node):
    if node.is_word:
        head = "w=%s" % node.word
    elif node.is_wildcard:
        head = "*"
    else:
        head = "l=%s" % node.label
    if node.value_equals is not None:
        head += "{=%s}" % node.value_equals
    kids = sorted(_canon(child) for child in node.children)
    return "%s%s(%s)" % (node.axis.value, head, ";".join(kids))


def view_id_of(canonical):
    """Stable 64-bit hex id of a canonical pattern."""
    return "%016x" % stable_hash(canonical, seed=31)


def block_key(view_id, seq):
    """DHT pseudo-key of one answer block (scatters blocks over peers)."""
    return "%s%d:%s" % (BLOCK_KEY_PREFIX, seq, view_id)


class ViewBlock:
    """One clustered answer block: where it lives and what doc range it
    covers (the DPP-style condition that enables targeted maintenance)."""

    __slots__ = ("key", "lo_doc", "hi_doc", "count", "nbytes")

    def __init__(self, key, lo_doc, hi_doc, count, nbytes):
        self.key = key
        self.lo_doc = lo_doc  # (peer, doc) of the first posting
        self.hi_doc = hi_doc  # (peer, doc) of the last posting
        self.count = count
        self.nbytes = nbytes

    def __repr__(self):
        return "ViewBlock(%s, docs %s..%s, %d postings)" % (
            self.key,
            self.lo_doc,
            self.hi_doc,
            self.count,
        )


class ViewDefinition:
    """One catalog entry: the pattern, its identity, and its blocks.

    ``blocks`` lists the clustered answer blocks in ``(p, d)`` order; a
    view with ``materialized=False`` is registered but not yet usable
    (popularity is being counted toward the auto-materialization
    threshold).
    """

    __slots__ = (
        "pattern",
        "canonical",
        "view_id",
        "blocks",
        "materialized",
        "next_seq",
        "base_bytes",
    )

    def __init__(self, pattern, canonical=None):
        self.pattern = pattern
        self.canonical = canonical or canonical_pattern(pattern)
        self.view_id = view_id_of(self.canonical)
        self.blocks = []
        self.materialized = False
        self.next_seq = 0
        # index-phase wire bytes the materializing run measured: the cached
        # statistic the cost-based view-vs-base choice compares against
        self.base_bytes = None

    def new_seq(self):
        seq = self.next_seq
        self.next_seq += 1
        return seq

    @property
    def total_postings(self):
        return sum(block.count for block in self.blocks)

    @property
    def total_bytes(self):
        return sum(block.nbytes for block in self.blocks)

    def encoded_bytes(self):
        """Catalog wire size of this record (definition + block refs)."""
        return 32 + len(self.canonical) + BLOCK_REF_BYTES * len(self.blocks)

    def target_block(self, doc_id):
        """The block a posting of ``doc_id`` should maintain into.

        Blocks partition the ``(p, d)`` order; a posting goes to the last
        block starting at or before its document, or to the first block."""
        chosen = self.blocks[0]
        for block in self.blocks:
            if block.lo_doc is None or block.lo_doc <= doc_id:
                chosen = block
            else:
                break
        return chosen

    def __repr__(self):
        return "ViewDefinition(%s, %s, %d blocks, %d postings)" % (
            self.view_id,
            self.canonical,
            len(self.blocks),
            self.total_postings,
        )
