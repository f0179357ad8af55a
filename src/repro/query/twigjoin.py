"""Holistic twig join over sorted posting streams.

This is KadoP's index-query engine: "a multi-threaded, block-based version
of the holistic twig join from [Bruno, Koudas, Srivastava, SIGMOD 2002]".
The implementation follows TwigStack:

* one sorted stream of postings per pattern node (``(p, d, start)`` order,
  exactly how posting lists are stored);
* one stack per pattern node holding nested ancestor postings, each entry
  pointing into its parent node's stack;
* ``get_next`` returns the next stream to act on such that ancestors are
  pushed before their descendants;
* pushing a leaf emits root-to-leaf *path solutions*, which a final merge
  phase joins into full twig matches.

Parent-child (``/``) and descendant-or-self edges are handled by filtering
enumerated path solutions with the exact axis predicate — the standard way
to keep TwigStack complete for those axes (it is only *optimal* for pure
``//`` patterns, as in the original paper).
"""

from repro.postings import kernels
from repro.postings.columnar import PostingColumns
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.query.pattern import Axis

_INF_KEY = (float("inf"), float("inf"), float("inf"))


class _Stream:
    """Columnar cursor over one node's sorted posting list.

    The ``(peer, doc, start)`` and ``(peer, doc, end)`` sort keys of every
    row are zipped out of the columns once, when the cursor is opened, with
    ``_INF_KEY`` after the last row: reading the key under the cursor is
    one list index, and at eof it reads +inf with no bounds test.  A
    :class:`Posting` is materialized only for the rows that actually get
    pushed on a stack — skipped rows never become objects.
    """

    __slots__ = ("peer", "doc", "start", "end", "level", "n", "pos", "skeys", "ekeys")

    def __init__(self, postings):
        if isinstance(postings, PostingList):
            cols = postings.columns()
        elif isinstance(postings, PostingColumns):
            cols = postings
        else:
            # trust the caller's (p, d, sid) stream order, duplicates kept —
            # same contract as joining over raw posting iterables before
            cols = PostingColumns._from_sorted_unique(list(postings))
        self.peer = cols.peer
        self.doc = cols.doc
        self.start = cols.start
        self.end = cols.end
        self.level = cols.level
        self.n = len(cols.peer)
        self.pos = 0
        self.skeys = list(zip(cols.peer, cols.doc, cols.start))
        self.skeys.append(_INF_KEY)
        self.ekeys = list(zip(cols.peer, cols.doc, cols.end))
        self.ekeys.append(_INF_KEY)

    def cur(self):
        i = self.pos
        if i >= self.n:
            return None
        return Posting(self.peer[i], self.doc[i], self.start[i], self.end[i], self.level[i])

    def cur_start_key(self):
        return self.skeys[self.pos]

    def cur_end_key(self):
        return self.ekeys[self.pos]

    def advance(self):
        """Step over the current row (there must be one: not at eof)."""
        self.pos += 1

    def skip_end_lt(self, key):
        """Advance past rows whose ``(peer, doc, end)`` sorts before ``key``.

        Returns the number of rows consumed.  Equivalent to advancing
        while ``cur_end_key() < key``.  Most calls skip nothing, and those
        cost one comparison; a real skip runs as one kernel call from the
        next row on, so long skips (the TwigStack interval-probe
        fast-forward) go through the vectorized backend instead of a
        per-row Python loop."""
        pos = self.pos
        if self.ekeys[pos] >= key:
            return 0
        seek = kernels.active().seek_end_ge
        self.pos = seek(self.peer, self.doc, self.end, pos + 1, self.n, key)
        return self.pos - pos

    @property
    def eof(self):
        return self.pos >= self.n


class _StackEntry:
    __slots__ = ("posting", "parent_ptr")

    def __init__(self, posting, parent_ptr):
        self.posting = posting
        self.parent_ptr = parent_ptr


class TwigPlan:
    """Pattern-static structures shared by every join over one pattern.

    The per-subtree leaf sets, root-to-leaf paths, and chain detection
    depend only on the pattern shape, not on the streams.  The block-based
    join of Section 4.2 runs one :class:`TwigJoin` per meaningful block
    vector over the *same* pattern, so hoisting this out of
    ``TwigJoin.__init__`` makes the per-vector setup O(streams) instead of
    O(pattern traversals).
    """

    __slots__ = ("pattern", "nodes", "leaf_ids", "paths", "chain")

    def __init__(self, pattern):
        self.pattern = pattern
        self.nodes = pattern.nodes()
        # leaf node_ids per subtree: exhaustion checks reduce to eof scans
        self.leaf_ids = {}
        for node in self.nodes:
            leaves = self.leaf_ids[node.node_id] = []
            frontier = [node]
            while frontier:
                cur = frontier.pop()
                if cur.is_leaf:
                    leaves.append(cur.node_id)
                else:
                    frontier.extend(cur.children)
        # root..leaf node path per leaf, hoisted out of the emit hot path
        self.paths = {}
        for node in self.nodes:
            if node.is_leaf:
                path = []
                cur = node
                while cur is not None:
                    path.append(cur)
                    cur = cur.parent
                path.reverse()
                self.paths[node.node_id] = path
        # chain patterns (every node has at most one child) run through an
        # unrolled, allocation-free version of the TwigStack loop
        node = pattern.root
        chain = [node]
        while len(node.children) == 1:
            node = node.children[0]
            chain.append(node)
        self.chain = chain if not node.children else None


class TwigJoin:
    """One twig-join execution over a set of streams."""

    def __init__(self, pattern, streams, plan=None):
        if plan is None:
            plan = TwigPlan(pattern)
        self.pattern = plan.pattern
        self.nodes = plan.nodes
        missing = [n for n in self.nodes if n.node_id not in streams]
        if missing:
            raise ValueError("no stream for pattern nodes %r" % (missing,))
        self.streams = {
            n.node_id: _Stream(streams[n.node_id]) for n in self.nodes
        }
        self._leaf_streams = {
            node_id: [self.streams[leaf_id] for leaf_id in leaf_ids]
            for node_id, leaf_ids in plan.leaf_ids.items()
        }
        self.stacks = {n.node_id: [] for n in self.nodes}
        self.path_solutions = {
            n.node_id: [] for n in self.nodes if n.is_leaf
        }
        self._paths = plan.paths
        self._chain = plan.chain
        self.postings_consumed = 0

    # -- TwigStack ----------------------------------------------------------

    def _exhausted(self, q):
        """True iff no leaf stream in ``q``'s subtree has postings left.

        An exhausted subtree can never emit another path solution, so
        ``_get_next`` skips it; the main loop ends when the whole pattern is
        exhausted (the ``end(q)`` condition of the original algorithm).
        """
        return all(s.pos >= s.n for s in self._leaf_streams[q.node_id])

    def _get_next(self, q):
        if q.is_leaf:
            return q
        leaf_streams = self._leaf_streams
        alive = [
            c
            for c in q.children
            if any(s.pos < s.n for s in leaf_streams[c.node_id])
        ]
        for child in alive:
            result = self._get_next(child)
            if result is not child:
                return result
        streams = self.streams
        keys = [(s := streams[c.node_id]).skeys[s.pos] for c in alive]
        nmax_start = max(keys)
        nmin_start = min(keys)
        sq = streams[q.node_id]
        # postings of q ending before every remaining nmax-branch posting
        # starts cannot take part in any new solution: skip them.  At eof
        # the cursor keys are +inf, which ends the skip and fails the
        # `<= nmin_start` test, so no separate eof checks are needed.
        self.postings_consumed += sq.skip_end_lt(nmax_start)
        if sq.skeys[sq.pos] <= nmin_start:
            return q
        return alive[keys.index(nmin_start)]

    def _clean_stack(self, node, posting):
        stack = self.stacks[node.node_id]
        while stack:
            top = stack[-1].posting
            if (
                top.peer != posting.peer
                or top.doc != posting.doc
                or top.end < posting.start
            ):
                stack.pop()
            else:
                return

    def run(self):
        """Execute the join; returns the list of full-match binding dicts."""
        if self._chain is not None:
            return self._run_chain()
        root = self.pattern.root
        while not self._exhausted(root):
            q = self._get_next(root)
            stream = self.streams[q.node_id]
            posting = stream.cur()
            if posting is None:  # q itself drained; only descendants remain
                break
            if q.parent is not None:
                self._clean_stack(q.parent, posting)
            if q.parent is None or self.stacks[q.parent.node_id]:
                self._clean_stack(q, posting)
                parent_ptr = (
                    len(self.stacks[q.parent.node_id]) - 1
                    if q.parent is not None
                    else -1
                )
                self.stacks[q.node_id].append(_StackEntry(posting, parent_ptr))
                stream.advance()
                self.postings_consumed += 1
                if q.is_leaf:
                    self._emit_path_solutions(q)
                    self.stacks[q.node_id].pop()
            else:
                stream.advance()
                self.postings_consumed += 1
        return self._merge_path_solutions()

    def _run_chain(self):
        """The TwigStack loop unrolled for root-to-leaf chain patterns.

        Behaviourally identical to the generic loop — same skip decisions,
        same stack events in the same order, same ``postings_consumed`` —
        but without per-iteration recursion, list building, or min/max
        over a single-element candidate set.
        """
        chain = self._chain
        depth = len(chain)
        streams = [self.streams[n.node_id] for n in chain]
        stacks = [self.stacks[n.node_id] for n in chain]
        leaf = chain[-1]
        leaf_stream = streams[-1]
        leaf_idx = depth - 1
        consumed = 0
        emit = self._emit_path_solutions
        while leaf_stream.pos < leaf_stream.n:
            # _get_next, bottom-up: the decision closest to the leaf wins
            q_idx = leaf_idx
            for qi in range(depth - 2, -1, -1):
                if q_idx != qi + 1:
                    break
                child = streams[qi + 1]
                child_start = child.skeys[child.pos]
                sq = streams[qi]
                if sq.ekeys[sq.pos] < child_start:
                    consumed += sq.skip_end_lt(child_start)
                if sq.skeys[sq.pos] <= child_start:
                    q_idx = qi
            stream = streams[q_idx]
            posting = stream.cur()
            if posting is None:  # q itself drained; only descendants remain
                break
            peer, doc, start = posting.peer, posting.doc, posting.start
            if q_idx > 0:
                pstack = stacks[q_idx - 1]
                while pstack:
                    top = pstack[-1].posting
                    if top.peer != peer or top.doc != doc or top.end < start:
                        pstack.pop()
                    else:
                        break
            if q_idx == 0 or stacks[q_idx - 1]:
                stack = stacks[q_idx]
                while stack:
                    top = stack[-1].posting
                    if top.peer != peer or top.doc != doc or top.end < start:
                        stack.pop()
                    else:
                        break
                parent_ptr = len(stacks[q_idx - 1]) - 1 if q_idx > 0 else -1
                stack.append(_StackEntry(posting, parent_ptr))
                stream.advance()
                consumed += 1
                if q_idx == leaf_idx:
                    emit(leaf)
                    stack.pop()
            else:
                stream.advance()
                consumed += 1
        self.postings_consumed += consumed
        return self._merge_path_solutions()

    def _emit_path_solutions(self, leaf):
        path = self._paths[leaf.node_id]
        stacks = self.stacks
        if len(path) == 1:
            # the leaf is the root: every pushed posting is a solution
            entry = stacks[leaf.node_id][-1]
            self.path_solutions[leaf.node_id].append({leaf.node_id: entry.posting})
            return
        if len(path) == 2:
            # root//leaf chain: scan the root stack prefix directly
            root = path[0]
            admits = path[1].axis.admits
            entry = stacks[leaf.node_id][-1]
            leaf_posting = entry.posting
            root_stack = stacks[root.node_id]
            out = self.path_solutions[leaf.node_id]
            root_id, leaf_id = root.node_id, leaf.node_id
            for i in range(entry.parent_ptr + 1):
                root_posting = root_stack[i].posting
                if admits(root_posting, leaf_posting):
                    out.append({root_id: root_posting, leaf_id: leaf_posting})
            return

        def expand(depth, idx):
            """Yield partial binding lists for path[:depth+1] ending at
            stack entry ``idx`` of path[depth]."""
            node = path[depth]
            entry = self.stacks[node.node_id][idx]
            if depth == 0:
                yield [entry.posting]
                return
            for parent_idx in range(entry.parent_ptr + 1):
                for partial in expand(depth - 1, parent_idx):
                    yield partial + [entry.posting]

        leaf_stack = self.stacks[leaf.node_id]
        for bindings in expand(len(path) - 1, len(leaf_stack) - 1):
            if self._path_solution_valid(path, bindings):
                self.path_solutions[leaf.node_id].append(
                    {node.node_id: p for node, p in zip(path, bindings)}
                )

    @staticmethod
    def _path_solution_valid(path, bindings):
        for i in range(1, len(path)):
            if not path[i].axis.admits(bindings[i - 1], bindings[i]):
                return False
        return True

    def _merge_path_solutions(self):
        """Join per-leaf path solutions on their shared prefix nodes."""
        leaves = [n for n in self.nodes if n.is_leaf]
        merged = None
        merged_keys = set()
        for leaf in leaves:
            solutions = self.path_solutions[leaf.node_id]
            leaf_keys = set()
            node = leaf
            while node is not None:
                leaf_keys.add(node.node_id)
                node = node.parent
            if merged is None:
                merged, merged_keys = solutions, leaf_keys
                continue
            shared = tuple(sorted(merged_keys & leaf_keys))
            index = {}
            for sol in solutions:
                index.setdefault(tuple(sol[k] for k in shared), []).append(sol)
            next_merged = []
            for left in merged:
                for right in index.get(tuple(left[k] for k in shared), ()):
                    combined = dict(left)
                    combined.update(right)
                    next_merged.append(combined)
            merged, merged_keys = next_merged, merged_keys | leaf_keys
        if merged is None:
            return []
        # every merged solution binds the same node set, so one key order
        # serves both dedup and the lexicographic output sort
        keys = sorted(merged_keys)
        unique = {}
        setdefault = unique.setdefault
        for sol in merged:
            setdefault(tuple(sol[k] for k in keys), sol)
        result = list(unique.values())
        result.sort(key=lambda sol: tuple(sol[k] for k in keys))
        return result


def twig_join(pattern, streams, plan=None):
    """Run a holistic twig join.

    ``streams`` maps ``node_id`` to an iterable of postings in
    ``(p, d, sid)`` order.  Returns the list of binding dicts
    (``node_id → Posting``), in lexicographic output order.  Callers that
    join many stream sets over one pattern (the per-vector block joins)
    pass a shared :class:`TwigPlan` to skip the pattern-shape setup.
    """
    return TwigJoin(pattern, streams, plan=plan).run()
