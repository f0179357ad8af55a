"""Pastry routing state: prefix routing table + leaf set.

Each node keeps:

* a routing table with one row per shared-prefix length and one column per
  next digit — entry ``(row, col)`` is some node whose id shares ``row``
  digits with ours and has ``col`` as digit ``row``;
* a leaf set of the ``L/2`` numerically closest node ids on either side of
  ours on the ring.

``next_hop`` implements the standard Pastry decision: deliver locally if we
are numerically closest within the leaf-set range, otherwise jump to the
routing-table entry matching one more digit of the key, otherwise to any
known node strictly closer to the key.  This yields the ceil(log16 N)
average route lengths the cost model expects.
"""

import bisect

from repro.dht.nodeid import (
    DIGIT_BASE,
    DIGIT_BITS,
    DIGITS,
    ID_BITS,
    ID_SPACE,
    NodeId,
    closest,
)

_HALF_RING = ID_SPACE // 2


def _ring_distance(a, b):
    """:meth:`NodeId.distance` over plain ints already on the ring."""
    diff = (a - b) % ID_SPACE
    return diff if diff <= _HALF_RING else ID_SPACE - diff


class RoutingState:
    """The routing table and leaf set of one node."""

    def __init__(self, node_id, leaf_size=8):
        self.node_id = NodeId(node_id)
        self.leaf_size = leaf_size
        self.table = [[None] * DIGIT_BASE for _ in range(DIGITS)]
        self.leaves = []  # sorted NodeIds, excluding self
        # plain-int mirrors of the state above, refreshed by rebuild():
        # routing decisions run on every hop of every DHT operation, so
        # they work on these instead of going through NodeId methods
        self._int = int(self.node_id)
        self._leaf_ints = []
        self._known = []  # every leaf and table entry, sorted

    # -- maintenance ---------------------------------------------------------

    def rebuild(self, ring):
        """Recompute the full state from ``ring``, every member's id in
        ascending order (the ring :class:`~repro.dht.replicas.Membership`
        sorts once per membership change).

        In a real deployment this state is maintained incrementally by the
        join protocol; rebuilding from the membership list produces exactly
        the same structure and keeps the simulation honest about *routing*
        (hop counts) without simulating gossip.
        """
        others = [NodeId(i) for i in ring if i != self._int]
        # leaves: the leaf_size / 2 ids on either side of ours, ascending
        half, pos = self.leaf_size // 2, bisect.bisect_left(others, self.node_id)
        around = {(pos + offset) % len(others) for offset in range(-half, half)} if others else ()
        self.leaves = [others[i] for i in sorted(around)]
        self._rebuild_table(others)
        self._leaf_ints = [int(leaf) for leaf in self.leaves]
        known = self.known_ids()
        self._known = [n for n in others if n in known]

    def _rebuild_table(self, others):
        self.table = [[None] * DIGIT_BASE for _ in range(DIGITS)]
        for other in others:
            row = self.node_id.shared_prefix_len(other)
            if row >= DIGITS:
                continue
            col = other.digit(row)
            current = self.table[row][col]
            # keep the entry numerically closest to us (deterministic)
            if current is None or self.node_id.distance(other) < self.node_id.distance(
                current
            ):
                self.table[row][col] = other

    # -- routing ---------------------------------------------------------------

    def is_owner(self, key):
        """True iff this node is numerically closest to ``key`` among the
        nodes it knows (with full leaf sets this equals global ownership)."""
        key = key % ID_SPACE
        my_dist = _ring_distance(self._int, key)
        return all(_ring_distance(leaf, key) >= my_dist for leaf in self._leaf_ints)

    def next_hop(self, key):
        """The next node id on the route to ``key``, or None to deliver."""
        key = key % ID_SPACE

        # 1. no leaf is strictly closer to the key: deliver here
        if self.is_owner(key):
            return None

        # 2. prefix routing: match one more digit.  (We do not own the key,
        # so it differs from our id and the shared prefix is < DIGITS.)
        row = (ID_BITS - (self._int ^ key).bit_length()) // DIGIT_BITS
        col = (key >> (DIGITS - 1 - row) * DIGIT_BITS) & (DIGIT_BASE - 1)
        entry = self.table[row][col]
        if entry is not None:
            return entry

        # 3. the row has no node under the key's next digit: the closest
        # node we know at all, ties to the smaller id.  Some leaf is
        # strictly closer than us (step 1), so that node is too.  This is
        # no rare case in a small ring: a row has 16 columns, so at 16
        # peers most of row 0 is empty and 1 call in 4 ends here; the
        # share falls as the ring outgrows the digit base.
        return self._known[closest(self._known, key)[0]]

    def known_ids(self):
        ids = set(self.leaves)
        for row in self.table:
            for entry in row:
                if entry is not None:
                    ids.add(entry)
        return ids
