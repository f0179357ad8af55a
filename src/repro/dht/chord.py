"""Chord routing state — an alternative overlay to Pastry.

The paper notes that "other DHT systems we are aware of raise the same
issues" as PAST: KadoP's techniques only assume the generic DHT interface
of Section 2.  To demonstrate that substrate-independence concretely, this
module implements Chord's routing (successor ownership, finger tables,
closest-preceding-finger hops) behind the same duck-type as
:class:`~repro.dht.routing.RoutingState`, so a whole KadoP deployment can
run over Chord by flipping ``KadopConfig.overlay``.

Chord facts implemented:

* key ownership: ``successor(k)`` — the first node id clockwise from ``k``
  (:func:`repro.dht.nodeid.successor` over the alive ring that
  :class:`~repro.dht.replicas.Membership` sorts once per membership
  change; :meth:`ChordState.rebuild` takes that same ring);
* finger table: ``finger[i] = successor(n + 2^i mod 2^m)``;
* lookup: forward to the closest preceding finger of the key, O(log N)
  hops in expectation;
* replication: a key's replicas are ``successor(k)`` and the ``r - 1``
  ids after it (:meth:`~repro.dht.replicas.Membership.replica_nodes`).
  A key the rebalancer placed elsewhere is led by the placed node, with
  that window behind it, under the same rule as Pastry.

Successor-list replication is also what makes Chord's failure handover
cheap: when an owner leaves or crashes, ``successor(k)`` moves to the
next node clockwise — which, being the first successor, already holds a
replica of every key it inherits.  The churn tests and the fault fuzzer
(``repro.sim.fuzz --overlay chord``) exercise exactly this property;
``remove_node`` only has to copy keys whose *entire* successor window
died.
"""

from repro.dht.nodeid import ID_BITS, ID_SPACE, NodeId, successor

#: length of each node's successor list
SUCCESSORS = 8


def _in_interval_open_closed(value, lo, hi):
    """value ∈ (lo, hi] on the ring."""
    value, lo, hi = int(value), int(lo), int(hi)
    if lo < hi:
        return lo < value <= hi
    return value > lo or value <= hi  # wrapped interval


class ChordState:
    """One node's Chord state: successor list + finger table."""

    def __init__(self, node_id):
        self.node_id = NodeId(node_id)
        self.fingers = []  # NodeIds, finger[i] = successor(n + 2^i)
        self.successor_list = []
        self.predecessor = None

    # -- maintenance (rebuilt from membership, like RoutingState) -----------

    def rebuild(self, ring):
        """Recompute the state from ``ring``: every member's id, ours
        included, ascending (the ring :class:`~repro.dht.replicas.Membership`
        sorts once per membership change)."""
        n = int(self.node_id)
        self.fingers = [
            ring[successor(ring, (n + (1 << i)) % ID_SPACE)] for i in range(ID_BITS)
        ]
        # successor list: the next SUCCESSORS nodes clockwise
        idx = successor(ring, (n + 1) % ID_SPACE)
        self.successor_list = [
            ring[(idx + k) % len(ring)] for k in range(min(SUCCESSORS, len(ring)))
        ]
        self.predecessor = ring[successor(ring, n) - 1]

    # -- routing -----------------------------------------------------------------

    def is_owner(self, key):
        """Chord ownership: key ∈ (predecessor, self]."""
        if self.predecessor is None or self.predecessor == self.node_id:
            return True  # single node ring
        return _in_interval_open_closed(key, self.predecessor, self.node_id)

    def next_hop(self, key):
        """The next node toward ``successor(key)``, or None to deliver."""
        key = NodeId(key)
        if self.is_owner(key):
            return None
        successor = self.successor_list[0] if self.successor_list else None
        if successor is not None and _in_interval_open_closed(
            key, self.node_id, successor
        ):
            return successor
        # closest preceding finger: the furthest finger in (self, key)
        for finger in reversed(self.fingers):
            if (
                finger != self.node_id
                and int(finger) != int(key)
                and _in_interval_open_closed(finger, self.node_id, key)
            ):
                return finger
        return successor

    def known_ids(self):
        ids = set(self.fingers) | set(self.successor_list)
        if self.predecessor is not None:
            ids.add(self.predecessor)
        ids.discard(self.node_id)
        return ids

