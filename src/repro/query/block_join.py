"""The block-based parallel twig join (Section 4.2).

With the DPP, each query term's posting list arrives as a sequence of
blocks with range conditions ``C_1 < ... < C_m``.  Instead of joining the
concatenated lists, the paper joins *vectors* of blocks — one block per
query node — and parallelizes across vectors.  Two facts make this cheap:

* only **meaningful** vectors (blocks whose document ranges mutually
  intersect) can produce matches, because all postings of one match share
  a document id and each block covers a contiguous ``(p, d, sid)`` range;
* because every list is partitioned in the same global order, the
  meaningful vectors form a staircase: when blocks split at document
  boundaries there are at most ``m_1 + ... + m_n`` of them (the paper's
  bound; a block split *inside* a document adds one extra vector per
  boundary crossing, which the enumeration handles exactly).

Every match lands in at least one meaningful vector and per-vector joins
never invent matches.  The index query asks only which documents hold a
match, so each vector's join asks only that (:func:`twig_docs`), and the
union of the per-vector document sets equals :func:`twig_docs` of the
merged lists — asserted by differential tests.
"""

import bisect

from repro.query.twigjoin import TwigPlan, twig_docs


class Block:
    """One fetched DPP block: its postings plus the document span."""

    __slots__ = ("postings", "doc_lo", "doc_hi")

    def __init__(self, postings, doc_lo=None, doc_hi=None):
        self.postings = postings
        if doc_lo is None or doc_hi is None:
            if not len(postings):
                raise ValueError("an empty block needs explicit bounds")
            doc_lo = (postings.first.peer, postings.first.doc)
            doc_hi = (postings.last.peer, postings.last.doc)
        self.doc_lo = doc_lo
        self.doc_hi = doc_hi

    def __repr__(self):
        return "Block(%d postings, docs %s..%s)" % (
            len(self.postings),
            self.doc_lo,
            self.doc_hi,
        )


class LazyBlock:
    """A DPP block cursor: bounds from the root, data on demand.

    ``doc_lo``/``doc_hi`` come from the block's root condition (clamped to
    the query's document window), so meaningful-vector enumeration can run
    over lazy blocks without transferring a single posting.  The first
    :meth:`realize` call invokes ``loader`` — which performs the simulated
    fetch, charges the scheduler, and returns the (possibly
    window-restricted) postings — and caches the resulting :class:`Block`
    (or None when the restricted fetch comes back empty).  The eager and
    window fetch modes realize every cursor before the join; in lazy mode,
    blocks that no join vector ever touches cost neither simulated bytes
    nor decode CPU.
    """

    __slots__ = ("doc_lo", "doc_hi", "count", "loader", "fetched", "_block")

    def __init__(self, doc_lo, doc_hi, loader, count=0):
        self.doc_lo = doc_lo
        self.doc_hi = doc_hi
        self.count = count  # zone-map posting count (rarest-term seeding)
        self.loader = loader
        self.fetched = False
        self._block = None

    def realize(self):
        if not self.fetched:
            postings = self.loader()
            self.fetched = True
            self.loader = None  # the fetch happens exactly once
            if postings is not None and len(postings):
                self._block = Block(postings)
        return self._block

    def __repr__(self):
        state = "fetched" if self.fetched else "unfetched"
        return "LazyBlock(%s, docs %s..%s)" % (state, self.doc_lo, self.doc_hi)


def meaningful_vectors(block_lists):
    """Enumerate exactly the block-index vectors whose document ranges all
    mutually intersect.

    Window-narrowing recursion: choosing a block for list ``i`` restricts
    the common document window; for the next list only the contiguous run
    of blocks intersecting that window (found by bisection) is explored.
    A vector is yielded only if the final window is non-empty, which for
    intervals on a line implies pairwise intersection.
    """
    n = len(block_lists)
    if n == 0 or any(not blocks for blocks in block_lists):
        return
    his = [[b.doc_hi for b in blocks] for blocks in block_lists]

    def recurse(level, window_lo, window_hi, prefix):
        if level == n:
            yield tuple(prefix)
            return
        blocks = block_lists[level]
        # first block whose hi >= window_lo
        start = bisect.bisect_left(his[level], window_lo)
        for i in range(start, len(blocks)):
            block = blocks[i]
            if block.doc_lo > window_hi:
                break
            new_lo = max(window_lo, block.doc_lo)
            new_hi = min(window_hi, block.doc_hi)
            if new_lo <= new_hi:
                prefix.append(i)
                yield from recurse(level + 1, new_lo, new_hi, prefix)
                prefix.pop()

    min_doc = (0, 0)
    max_doc = (float("inf"), float("inf"))
    yield from recurse(0, min_doc, max_doc, [])


class BlockJoinResult:
    """The documents holding a match, plus the statistics the paper's bound
    talks about."""

    def __init__(self, docs, vectors_considered, vectors_bound):
        self.docs = docs
        self.vectors_considered = vectors_considered
        self.vectors_bound = vectors_bound


def demand_driven_block_join(pattern, lazy_blocks_per_node):
    """Join per-node block cursors one meaningful vector at a time.

    ``lazy_blocks_per_node`` maps node_id → ordered list of
    :class:`LazyBlock` whose bounds come from root-block conditions.  The
    eager and window fetch modes realize every cursor before the join;
    lazy mode leaves them unfetched, so a block is fetched only when a
    vector demands it.  Vector enumeration is seeded from the rarest term
    (fewest synopsis postings), so its narrow document intervals drive the
    window and the other terms' blocks are only ever touched where they
    overlap.  Each vector realizes its blocks in that order, abandoning the
    vector — and skipping the remaining fetches — as soon as a realized
    block is empty or the realized document spans stop intersecting.  A
    match's document lies in a realized block of every node, so inside
    each block's condition and inside the query's document window: every
    vector holding a match is enumerated, and dropping the others loses no
    document.
    ``vectors_considered`` counts the vectors that reached a per-vector
    join: the vectors of non-empty realized blocks whose document spans
    intersect, however many cursors were realized before the join.
    Returns a :class:`BlockJoinResult` whose ``docs`` equal
    :func:`twig_docs` over the merged lists.
    """
    nodes = pattern.nodes()
    block_lists = [lazy_blocks_per_node[node.node_id] for node in nodes]
    bound = sum(len(blocks) for blocks in block_lists)
    # rarest term first: ascending synopsis posting count, stable on ties
    order = sorted(
        range(len(nodes)),
        key=lambda i: (sum(b.count for b in block_lists[i]), i),
    )
    ordered_lists = [block_lists[i] for i in order]
    plan = TwigPlan(pattern)
    docs = set()
    considered = 0
    for vector in meaningful_vectors(ordered_lists):
        blocks = []
        window_lo, window_hi = (0, 0), (float("inf"), float("inf"))
        for lst, i in zip(ordered_lists, vector):
            block = lst[i].realize()
            if block is None:
                blocks = None
                break
            window_lo = max(window_lo, block.doc_lo)
            window_hi = min(window_hi, block.doc_hi)
            if window_lo > window_hi:
                blocks = None
                break
            blocks.append(block)
        if blocks is None:
            continue
        considered += 1
        streams = {
            nodes[node_pos].node_id: block.postings
            for node_pos, block in zip(order, blocks)
        }
        docs |= twig_docs(pattern, streams, plan)
    return BlockJoinResult(docs, considered, bound)
