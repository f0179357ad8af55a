"""Holistic twig join over sorted posting streams.

This is KadoP's index-query engine: "a multi-threaded, block-based version
of the holistic twig join from [Bruno, Koudas, Srivastava, SIGMOD 2002]".
The implementation follows TwigStack:

* one sorted stream of postings per pattern node (``(p, d, start)`` order,
  exactly how posting lists are stored);
* one stack per pattern node holding nested ancestor rows, each entry
  pointing into its parent node's stack;
* ``get_next`` returns the next stream to act on such that ancestors are
  pushed before their descendants;
* pushing a leaf emits root-to-leaf *path solutions*, which a final merge
  phase joins into full twig matches.

Parent-child (``/``) and descendant-or-self edges are handled by filtering
enumerated path solutions with the exact axis predicate — the standard way
to keep TwigStack complete for those axes (it is only *optimal* for pure
``//`` patterns, as in the original paper).

Rows stay in the columns: the join reads sort keys, and a :class:`Posting`
is built only for a row that gets pushed.  A stack entry is the tuple
``(end_key, posting, count)`` — the row's ``(peer, doc, end)`` key, its
posting, and how many entries of the parent's stack it sits under.  A
stack is cleaned by popping entries whose end key sorts before the
cursor's ``(peer, doc, start)`` key: every entry on a stack starts at or
before the cursor row, so that one tuple comparison is "another document,
or ends before the row starts".

When only the documents matter — the index query, whose document peers
evaluate the query exactly afterwards — :func:`twig_docs` answers with a
bottom-up structural semi-join (one ``semijoin_below`` kernel call per
pattern edge) and enumerates nothing; :func:`twig_join` stays the only
enumerator.
"""

from bisect import bisect_left
from operator import itemgetter

from repro.postings import kernels
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.query.pattern import Axis

_INF_KEY = (float("inf"), float("inf"), float("inf"))
_DESCENDANT = Axis.DESCENDANT.admits


class _Stream:
    """Columnar cursor over one node's sorted posting list.

    The ``(peer, doc, start)`` and ``(peer, doc, end)`` sort keys of every
    row are zipped out of the columns once, when the cursor is opened, with
    ``_INF_KEY`` after the last row: the keys under the cursor are
    ``skeys[pos]`` and ``ekeys[pos]``, one list index each, and at eof
    (``pos == n``) they read +inf with no bounds test.  The join moves
    ``pos`` itself.
    """

    __slots__ = ("peer", "doc", "start", "end", "level", "n", "pos", "skeys", "ekeys")

    def __init__(self, postings):
        if not isinstance(postings, PostingList):
            # trust the caller's (p, d, sid) stream order, duplicates kept
            postings = PostingList.from_sorted(postings)
        self.peer, self.doc, self.start, self.end, self.level = postings.arrays()
        self.n = len(postings.peer)
        self.pos = 0
        self.skeys = list(zip(postings.peer, postings.doc, postings.start))
        self.skeys.append(_INF_KEY)
        self.ekeys = list(zip(postings.peer, postings.doc, postings.end))
        self.ekeys.append(_INF_KEY)

    def skip_end_lt(self, key):
        """Advance past rows whose ``(peer, doc, end)`` sorts before ``key``.

        Returns the number of rows consumed.  Most calls skip nothing, and
        those cost one comparison; a real skip runs as one kernel call from
        the next row on, so long skips (the TwigStack interval-probe
        fast-forward) go through the vectorized backend instead of a
        per-row Python loop."""
        pos = self.pos
        if self.ekeys[pos] >= key:
            return 0
        seek = kernels.active().seek_end_ge
        self.pos = seek(self.peer, self.doc, self.end, pos + 1, self.n, key)
        return self.pos - pos

    def skip_to(self, head):
        """Advance past rows whose start key sorts before the head row of
        the parent's stream ``head``: with no open ancestor left, such a
        row has none to come either (every later parent row starts after
        it)."""
        self.pos = bisect_left(self.skeys, head.skeys[head.pos], self.pos)


class TwigPlan:
    """Pattern-static structures shared by every join over one pattern.

    Everything the join loops ask of the pattern is worked out here once,
    in lists indexed by ``node_id`` (preorder, so ``0`` is the root): each
    node's parent (``-1`` at the root) and children, whether it is a leaf,
    the root-to-leaf path of every leaf, the axis test
    of the edge above each node, the merge plan of the path solutions, and
    chain detection.  The block-based join of Section 4.2 runs one
    :class:`TwigJoin` per meaningful block vector over the *same* pattern,
    and the document phase one per document peer, so none of this is
    redone per join or per row.
    """

    __slots__ = (
        "pattern", "nodes", "parent", "children", "is_leaf", "leaves", "paths", "tests",
        "merges", "key", "chain",
    )

    def __init__(self, pattern):
        self.pattern = pattern
        self.nodes = nodes = pattern.nodes()
        self.parent = [-1 if n.parent is None else n.parent.node_id for n in nodes]
        self.children = [[c.node_id for c in n.children] for n in nodes]
        self.is_leaf = [not n.children for n in nodes]
        self.leaves = [n.node_id for n in nodes if not n.children]
        self.tests = [n.axis.admits for n in nodes]
        self.paths = {}
        for leaf in self.leaves:
            path = [leaf]
            while self.parent[path[-1]] >= 0:
                path.append(self.parent[path[-1]])
            self.paths[leaf] = path[::-1]
        # path solutions join leaf by leaf on the nodes bound so far; every
        # node lies on some root-to-leaf path, so a full match binds them all
        self.merges = []
        bound = set(self.paths[self.leaves[0]])
        for leaf in self.leaves[1:]:
            self.merges.append((leaf, itemgetter(*sorted(bound.intersection(self.paths[leaf])))))
            bound.update(self.paths[leaf])
        self.key = itemgetter(*range(len(nodes)))
        # chain patterns (every node has at most one child) run through an
        # unrolled version of the TwigStack loop
        chain = [0]
        while len(self.children[chain[-1]]) == 1:
            chain.append(self.children[chain[-1]][0])
        self.chain = chain if self.is_leaf[chain[-1]] else None


class TwigJoin:
    """One twig-join execution over a set of streams."""

    def __init__(self, pattern, streams, plan=None):
        if plan is None:
            plan = TwigPlan(pattern)
        self.plan = plan
        missing = [n for n in plan.nodes if n.node_id not in streams]
        if missing:
            raise ValueError("no stream for pattern nodes %r" % (missing,))
        self.streams = [_Stream(streams[n.node_id]) for n in plan.nodes]
        self.stacks = [[] for _ in plan.nodes]
        self.path_solutions = {leaf: [] for leaf in plan.leaves}
        # leaf rows left below each node: a subtree with none can emit no
        # further path solution (the ``end(q)`` condition of TwigStack)
        self._left = [0] * len(plan.nodes)
        for leaf in plan.leaves:
            for node in plan.paths[leaf]:
                self._left[node] += self.streams[leaf].n

    # -- TwigStack ----------------------------------------------------------

    def _get_next(self, q):
        """TwigStack's ``getNext`` below the internal node ``q``: the node
        whose head row is acted on next, ancestors before descendants."""
        streams, left, is_leaf = self.streams, self._left, self.plan.is_leaf
        nmin = None
        for c in self.plan.children[q]:
            if not left[c]:
                continue
            if not is_leaf[c]:
                found = self._get_next(c)
                if found != c:
                    return found
            s = streams[c]
            key = s.skeys[s.pos]
            if nmin is None:
                nmin, nmin_key, nmax_key = c, key, key
            elif key < nmin_key:
                nmin, nmin_key = c, key
            elif key > nmax_key:
                nmax_key = key
        sq = streams[q]
        # rows of q ending before every remaining nmax-branch row starts
        # cannot take part in any new solution: skip them.  At eof the
        # cursor keys are +inf, which ends the skip and fails the
        # `<= nmin_key` test, so no separate eof checks are needed.
        sq.skip_end_lt(nmax_key)
        if sq.skeys[sq.pos] <= nmin_key:
            return q
        return nmin

    def run(self):
        """Execute the join; returns the list of full-match binding dicts."""
        plan = self.plan
        if plan.chain is not None:
            return self._run_chain()
        parent, is_leaf, paths = plan.parent, plan.is_leaf, plan.paths
        streams, stacks, left = self.streams, self.stacks, self._left
        get_next, emit = self._get_next, self._emit_path_solutions
        while left[0]:
            q = get_next(0)
            stream = streams[q]
            pos = stream.pos
            if pos == stream.n:  # q itself drained; only descendants remain
                break
            skey = stream.skeys[pos]
            stream.pos = pos + 1
            p = parent[q]
            count = 0
            if p >= 0:
                pstack = stacks[p]
                while pstack and pstack[-1][0] < skey:
                    pstack.pop()
                count = len(pstack)
                if not count:  # no open ancestor: discard up to p's head
                    stream.skip_to(streams[p])
            if is_leaf[q]:
                for node in paths[q]:
                    left[node] -= stream.pos - pos
                if count:
                    emit(q, Posting(*skey, stream.end[pos], stream.level[pos]), count)
            elif count or p < 0:
                stack = stacks[q]
                while stack and stack[-1][0] < skey:
                    stack.pop()
                posting = Posting(*skey, stream.end[pos], stream.level[pos])
                stack.append((stream.ekeys[pos], posting, count))
        return self._merge_path_solutions()

    def _run_chain(self):
        """The TwigStack loop unrolled for root-to-leaf chain patterns.

        The same skip decisions and stack events as the generic loop, with
        ``getNext`` walked bottom-up over precomputed rungs instead of by
        recursion."""
        chain = self.plan.chain
        streams = [self.streams[node] for node in chain]
        stacks = [self.stacks[node] for node in chain]
        leaf, leaf_idx, leaf_stream = chain[-1], len(chain) - 1, streams[-1]
        # (chain index, its stream, its child's stream), nearest the leaf first
        rungs = [(i, streams[i], streams[i + 1]) for i in range(leaf_idx - 1, -1, -1)]
        emit = self._emit_path_solutions
        while leaf_stream.pos < leaf_stream.n:
            # getNext, bottom-up: the decision closest to the leaf wins
            q_idx = leaf_idx
            for i, sq, child in rungs:
                child_start = child.skeys[child.pos]
                if sq.ekeys[sq.pos] < child_start:
                    sq.skip_end_lt(child_start)
                if sq.skeys[sq.pos] > child_start:
                    break
                q_idx = i
            stream = streams[q_idx]
            pos = stream.pos
            if pos == stream.n:  # q itself drained; only descendants remain
                break
            skey = stream.skeys[pos]
            stream.pos = pos + 1
            count = 0
            if q_idx:
                pstack = stacks[q_idx - 1]
                while pstack and pstack[-1][0] < skey:
                    pstack.pop()
                count = len(pstack)
                if not count:  # no open ancestor: discard up to the parent's head
                    stream.skip_to(streams[q_idx - 1])
                    continue
            posting = Posting(*skey, stream.end[pos], stream.level[pos])
            if q_idx == leaf_idx:
                emit(leaf, posting, count)
            else:
                stack = stacks[q_idx]
                while stack and stack[-1][0] < skey:
                    stack.pop()
                stack.append((stream.ekeys[pos], posting, count))
        return self._merge_path_solutions()

    def _emit_path_solutions(self, leaf, posting, count):
        """Record the path solutions of the leaf row ``posting``, which sits
        under the first ``count`` entries of its parent's stack."""
        plan = self.plan
        path = plan.paths[leaf]
        out = self.path_solutions[leaf]
        if len(path) == 2 and plan.tests[leaf] is _DESCENDANT:
            # root//leaf: scan the root stack prefix, the axis tested inline
            root = path[0]
            start = posting.start
            for _, anc, _ in self.stacks[root][:count]:
                if anc.start < start < anc.end:
                    out.append({root: anc, leaf: posting})
            return
        # extend the partial solutions one level up at a time, testing each
        # edge as soon as both its ends are bound
        tests, stacks = plan.tests, self.stacks
        partial = [((posting,), count)]
        for depth in range(len(path) - 1, 0, -1):
            test = tests[path[depth]]
            stack = stacks[path[depth - 1]]
            partial = [
                ((anc,) + bound, anc_count)
                for bound, below in partial
                for _, anc, anc_count in stack[:below]
                if test(anc, bound[0])
            ]
        out.extend(dict(zip(path, bound)) for bound, _ in partial)

    def _merge_path_solutions(self):
        """Join per-leaf path solutions on their shared prefix nodes."""
        plan = self.plan
        solutions = self.path_solutions
        merged = solutions[plan.leaves[0]]
        for leaf, shared in plan.merges:
            index = {}
            for sol in solutions[leaf]:
                index.setdefault(shared(sol), []).append(sol)
            next_merged = []
            for left in merged:
                for right in index.get(shared(left), ()):
                    combined = dict(left)
                    combined.update(right)
                    next_merged.append(combined)
            merged = next_merged
        # every merged solution binds every node, so one key serves both
        # dedup (equal keys are equal solutions) and the output sort
        key = plan.key
        result = list(dict(zip(map(key, merged), merged)).values())
        result.sort(key=key)
        return result


def twig_join(pattern, streams, plan=None):
    """Run a holistic twig join.

    ``streams`` maps ``node_id`` to an iterable of postings in
    ``(p, d, sid)`` order.  Returns the list of binding dicts
    (``node_id → Posting``), in lexicographic output order.  Callers that
    join many stream sets over one pattern (the per-vector block joins, the
    document peers) pass a shared :class:`TwigPlan` to skip the
    pattern-shape setup.
    """
    return TwigJoin(pattern, streams, plan=plan).run()


def twig_docs(pattern, streams, plan=None):
    """The ``(peer, doc)`` pairs in which ``pattern`` has at least one match.

    The existence question of the index query, answered by a structural
    semi-join instead of enumerating matches: bottom-up over the plan, a
    row of node ``q`` is kept only when every child has a kept row that
    the child's edge admits below it, in the same document.  The root's
    kept rows name the documents; its own axis is ignored, as in
    :func:`twig_join`, and the streams are read the same way.
    """
    if plan is None:
        plan = TwigPlan(pattern)
    missing = [n for n in plan.nodes if n.node_id not in streams]
    if missing:
        raise ValueError("no stream for pattern nodes %r" % (missing,))
    kernel = kernels.active()
    kept = [None] * len(plan.nodes)
    for node in reversed(plan.nodes):
        postings = streams[node.node_id]
        if not isinstance(postings, PostingList):
            postings = PostingList.from_sorted(postings)  # as _Stream reads it
        cols = postings.arrays()
        for c in plan.children[node.node_id]:
            if not len(cols[0]):
                break
            cols = kernel.semijoin_below(cols, kept[c], plan.nodes[c].axis.value)
        if not len(cols[0]):
            return set()
        kept[node.node_id] = cols
    return set(kernel.doc_ids(kept[0][0], kept[0][1]))
