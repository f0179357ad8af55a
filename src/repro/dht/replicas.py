"""Where the copies of a key live, and the one rule that hands them over.

:mod:`repro.dht.network` holds the transport half of
:class:`~repro.dht.network.DhtNetwork` (routing, delivery, the DHT API).
This module holds the other half, :class:`Membership`: joins, graceful
leaves, crashes and restarts, ownership and replica sets (with the
rebalancer's placement overrides), and anti-entropy repair.

Section 2 of the paper relies on the DHT's replication to "protect the
index entries against some peer failure".  Every physical copy carries
the stamp of the logical write that produced it
(:meth:`~repro.dht.network.DhtNetwork.next_stamp`), and every copy that
moves between peers outside a write goes through :func:`reconcile`:

* a posting list's reference is the union of the alive copies at the
  highest stamp.  Rewrites (splits, deletes) stamp every copy they touch,
  so copies at one stamp differ only by appends a quorum write missed.
  The copies' store summaries (count and set digest, host-side and never
  metered) are compared first, and only copies that differ are read and
  unioned;
* a control object's reference is the highest-stamp copy, the lowest peer
  winning a tie;
* a target whose copy is below the reference gets the reference, at its
  stamp: a moved copy is the same logical write.

Join, leave, restart, repair, rebalancer migration, hot-key promotion and
the DPP's root adoption and block read-repair all call it; hot-key
demotion asks the same rule whether a copy can go (:func:`redundant`).
Writes are not hand-overs: they stamp and push their copies in
:mod:`repro.dht.network`.
"""

from repro.dht.nodeid import NodeId, closest, key_id, successor
from repro.dht.routing import RoutingState
from repro.errors import DhtError, NoSuchPeerError
from repro.faults import RepairReport
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList

#: store-key prefixes that must live wherever their *term* lives: the DPP
#: keeps a term's root block and first data block at the term owner, so
#: ownership (and failure re-homing) must follow the term key, not the
#: literal storage key
_ALIAS_PREFIXES = ("dpproot:", "dppdata:")


def routing_alias(key):
    """The key whose hash decides placement of ``key``."""
    for prefix in _ALIAS_PREFIXES:
        if key.startswith(prefix):
            return key[len(prefix):]
    return key


class DhtNode:
    """One peer's DHT presence: id, routing state, and local stores."""

    def __init__(self, peer_index, uri, store, overlay):
        self.peer_index = peer_index
        self.uri = uri
        self.node_id = NodeId.from_uri(uri)
        if overlay == "pastry":
            self.routing = RoutingState(self.node_id)
        elif overlay == "chord":
            from repro.dht.chord import ChordState

            self.routing = ChordState(self.node_id)
        else:
            raise ValueError("unknown overlay %r" % (overlay,))
        self.store = store
        self.objects = {}  # key -> (object, nbytes): DPP roots, catalog rows
        # key -> stamp of the last logical write applied to this copy (see
        # DhtNetwork.next_stamp); pure metadata, never metered
        self.versions = {}
        self.alive = True

    def __repr__(self):
        return "DhtNode(peer=%d, id=%s...)" % (self.peer_index, self.node_id.hex()[:8])


def _holders(net, key, exclude=None):
    """The alive nodes other than ``exclude`` holding a copy of ``key``."""
    return [
        n for n in net.alive_nodes()
        if n is not exclude and (key in n.store or key in n.objects)
    ]


def reconcile(net, key, targets, ship=None):
    """Bring each node of ``targets`` up to ``key``'s reference copy.

    Returns the copies made, ``(node, category, nbytes)`` each, posting
    lists first.  Each copy is put on the wire by ``ship(category,
    nbytes)`` before it lands (default: the network's meter).  A list is
    read only when a target needs it, and the top-stamp copies are
    compared by their stores' summaries (:meth:`Store.summary
    <repro.storage.api.Store.summary>`) before any is read: when they
    agree, a target holding one is skipped and a target without one gets
    one of them as it is; only when they differ is their union built.  A
    target that alone holds the top stamp is the reference and costs
    nothing."""
    ship = ship or net.meter.record
    copies = []
    alive = net.alive_nodes()
    stamp, tops = _top_lists(alive, key)
    agree = reference = nbytes = None
    for node in targets:
        if not tops or tops == [node]:
            continue
        if agree is None:
            agree = _agree(key, tops)
        if agree and node in tops:
            continue
        if reference is None:
            reference = tops[0].store.get(key) if agree else _union(key, tops)
        if node in tops and node.store.count(key) == len(reference):
            continue
        if nbytes is None:
            nbytes = encoded_size(reference)
        ship("postings", nbytes)
        Membership.sync_copy(node, key, reference, stamp)
        copies.append((node, "postings", nbytes))
    objects = [n for n in alive if key in n.objects]
    if objects:
        source = max(objects, key=lambda n: (n.versions.get(key, 0), -n.peer_index))
        stamp = source.versions.get(key, 0)
        obj, nbytes = source.objects[key]
        for node in targets:
            if key in node.objects and node.versions.get(key, 0) >= stamp:
                continue
            ship("control", nbytes)
            node.objects[key] = (obj, nbytes)
            node.versions[key] = stamp
            copies.append((node, "control", nbytes))
    return copies


def redundant(net, key, node):
    """Whether the other alive copies of ``key`` hold all that ``node``'s
    list does, by the same rule: dropping its copy then loses nothing.
    Compared by summaries first: a copy that agrees with every other
    top-stamp copy is redundant without a read, and the other copies'
    union is built only when they differ among themselves."""
    stamp, tops = _top_lists([n for n in net.alive_nodes() if n is not node], key)
    mine = node.versions.get(key, 0)
    if not tops or mine != stamp:
        return bool(tops) and mine < stamp
    agree = _agree(key, tops)
    if agree and node.store.summary(key) == tops[0].store.summary(key):
        return True
    reference = tops[0].store.get(key) if agree else _union(key, tops)
    return len(PostingList.concat((reference, node.store.get(key)))) == len(reference)


def _top_lists(nodes, key):
    """``(stamp, holders)``: the highest stamp at which one of ``nodes``
    stores a list of ``key``, and the nodes that do."""
    lists = [n for n in nodes if key in n.store]
    stamp = max((n.versions.get(key, 0) for n in lists), default=None)
    return stamp, [n for n in lists if n.versions.get(key, 0) == stamp]


def _agree(key, nodes):
    """Whether ``nodes``' lists of ``key`` hold the same postings, told by
    their summaries; a lone list agrees with itself unasked."""
    if len(nodes) == 1:
        return True
    first = nodes[0].store.summary(key)
    return all(node.store.summary(key) == first for node in nodes[1:])


def _union(key, nodes):
    """The union of ``nodes``' lists of ``key``."""
    return PostingList.concat([node.store.get(key) for node in nodes])


class Membership:
    """Membership, ownership and repair: the half of
    :class:`~repro.dht.network.DhtNetwork` that decides where copies live."""

    def add_node(self, uri, store, rebuild=True):
        """Add one node.  Pass ``rebuild=False`` during bulk construction
        and call :meth:`_rebuild_routing` once at the end — rebuilding the
        whole ring per join is O(N^2) and only the final state matters.

        When a node joins an already-populated ring, keys for which it
        becomes the owner (or a replica) are handed over from their
        previous holders, exactly as Pastry's join protocol transfers the
        key space; without this, index queries would miss data published
        before the join."""
        node = DhtNode(len(self.nodes), uri, store, self.overlay)
        if int(node.node_id) in self._by_id:
            raise DhtError("node id collision for uri %r" % uri)
        existing_keys = sorted(self._all_keys()) if rebuild and self.nodes else ()
        self.nodes.append(node)
        self._by_id[int(node.node_id)] = node
        if rebuild:
            self._rebuild_routing()
            for key in existing_keys:
                if node in self.replica_nodes(key):
                    reconcile(self, key, [node])
        return node

    def remove_node(self, node, rehome=True):
        """Fail/stop ``node``.  With ``rehome``, each key it owned is
        reconciled onto its new owner from the surviving copies (the DHT
        replication of Section 2 'protects the index entries against some
        peer failure')."""
        if not node.alive:
            raise NoSuchPeerError("node already removed: %r" % (node,))
        owned = [
            key
            for key in sorted(self._all_keys())
            if self.owner_of(key) is node
        ]
        node.alive = False
        del self._by_id[int(node.node_id)]
        self._rebuild_routing()
        if rehome:
            for key in owned:  # with no alive copy left, the key is lost
                reconcile(self, key, [self.owner_of(key)])

    def crash_node(self, node):
        """Fail ``node`` abruptly: its disk state survives, nothing is
        handed over, and keys it held become under-replicated until
        :meth:`anti_entropy_repair` or :meth:`restart_node` runs.  This is
        the mid-operation failure mode of :mod:`repro.faults` — contrast
        :meth:`remove_node`, the graceful leave that re-homes keys."""
        if not node.alive:
            raise NoSuchPeerError("node already down: %r" % (node,))
        node.alive = False
        del self._by_id[int(node.node_id)]
        self._rebuild_routing()
        self._observe_fault("crash", node.uri)

    def restart_node(self, node):
        """Rejoin a crashed node, reconciling its (possibly stale) state.

        Its disk may be stale, so every copy it holds of a key that
        another alive node also holds is dropped, and each key the node now
        serves as owner or replica is handed to it again (:func:`reconcile`,
        metered): appends acknowledged while it was down are not shadowed by
        its stale disk, and an orphan of a key the ring moved elsewhere is
        not served stale by a later failover read.  A key only this node
        holds is kept as-is: that copy is the data's sole survivor.
        (Deletes issued during the outage are not tombstoned: a
        fully-deleted key can resurrect from the restarted disk, the
        classic anti-entropy limitation.)"""
        if node.alive:
            raise DhtError("node is not down: %r" % (node,))
        node.alive = True
        self._by_id[int(node.node_id)] = node
        self._rebuild_routing()
        for key in sorted(self._all_keys()):
            if not _holders(self, key, exclude=node):
                continue
            if key in node.store:
                node.store.delete(key)
            node.objects.pop(key, None)
            node.versions.pop(key, None)
            if node in self.replica_nodes(key):
                reconcile(self, key, [node])
        self._observe_fault("restart", node.uri)

    def anti_entropy_repair(self):
        """One background anti-entropy pass over every visible key.

        Each member of the key's replica set is reconciled (:func:`reconcile`);
        copies are metered and their transfer time accumulated into the
        returned :class:`~repro.faults.RepairReport`.  Keys no alive node
        holds are reported as lost (replication factor exceeded)."""
        report = RepairReport()
        lost = []
        for key in sorted(self._all_keys()):
            report.keys_checked += 1
            if not _holders(self, key):
                lost.append(key)
                continue
            for _, _, nbytes in reconcile(self, key, self.replica_nodes(key)):
                report.copies_made += 1
                report.bytes_copied += nbytes
                report.duration_s += self.cost.transfer_time(nbytes, hops=1)
        report.lost_keys = tuple(lost)
        return report

    @staticmethod
    def sync_copy(target, key, postings, version, replace=True):
        """Make ``postings`` ``target``'s copy of ``key`` at ``version``;
        ``replace=False`` appends to the copy instead.

        Delete-then-append rather than a bare append: an append unions into
        the target's copy, which would keep postings that a stale copy
        holds and the propagated one no longer does.  ``version`` is the
        stamp of the copy being propagated — the target copy inherits it,
        not a fresh one (a repair copy is the *same* logical write, moved)."""
        if replace and key in target.store:
            target.store.delete(key)
        target.store.append(key, postings)
        target.versions[key] = version

    def alive_nodes(self):
        """The alive nodes, in join order (a copy)."""
        return list(self._alive)

    def _rebuild_routing(self):
        """Rebuild the alive ring, then every alive node's routing state
        from it: the one sort of the ring per membership change."""
        self._alive = [n for n in self.nodes if n.alive]
        self._ring = sorted(self._alive, key=lambda n: n.node_id)
        self._ring_ids = [n.node_id for n in self._ring]
        for node in self._alive:
            node.routing.rebuild(self._ring_ids)
        self._invalidate_caches()

    def _invalidate_caches(self):
        """Forget everything derived from membership or placement.

        The one place that knows the full list of caches: every join,
        leave, crash and restart comes through :meth:`_rebuild_routing`
        (so no cached node is ever dead), every placement change through
        :meth:`set_placement`."""
        self._replica_cache.clear()
        self._hop_memo.clear()

    def _all_keys(self):
        """Every key an alive node holds.  A ``set``: walk it ``sorted``,
        or ``PYTHONHASHSEED`` decides in which order stores fill."""
        keys = set()
        for node in self.alive_nodes():
            keys.update(node.store.terms())
            keys.update(node.objects)
        return keys

    # -- ownership -----------------------------------------------------------------

    def _placed(self, key):
        """The placement-override owner for ``key``'s alias, if alive.

        While the placed node is down, ownership silently reverts to pure
        hashing (the hash owner still holds its backup copy); a restart
        rebuilds routing, which re-activates the placement."""
        if not self.placement:
            return None
        node = self.placement.get(routing_alias(key))
        if node is not None and node.alive:
            return node
        return None

    def set_placement(self, alias, node):
        """Re-home ``alias``'s group onto ``node`` (the rebalancer's move).

        Only redirects ownership — the caller must have landed the data on
        ``node`` first (:func:`reconcile`), or reads would route to a
        copy-less owner."""
        self.placement[alias] = node
        self._invalidate_caches()

    def owner_of(self, key):
        """The node in charge of ``key``: the first of its replica set."""
        return (self._replica_cache.get(key) or self._replicas(key))[0]

    def replica_nodes(self, key):
        """The ``replication`` closest nodes: owner first, then backups."""
        return list(self._replica_cache.get(key) or self._replicas(key))

    def _replicas(self, key):
        """Compute and cache ``key``'s replica set, a tuple, on the ring:
        Pastry's numerically closest ids, or Chord's successor window,
        behind the placed node if the rebalancer moved the key."""
        ring = self._ring
        if not ring:
            raise DhtError("empty network")
        kid = key_id(routing_alias(key))
        if self.overlay == "chord":
            # Chord replicates on the key's successor and the ids after it
            start = successor(self._ring_ids, kid)
            replicas = [
                ring[(start + k) % len(ring)]
                for k in range(min(self.replication, len(ring)))
            ]
        else:
            replicas = [ring[i] for i in closest(self._ring_ids, kid, self.replication)]
        placed = self._placed(key)
        if placed is not None and replicas[0] is not placed:
            # the placed node leads; the hash owner stays on as a backup
            replicas = ([placed] + [n for n in replicas if n is not placed])[: self.replication]
        replicas = self._replica_cache[key] = tuple(replicas)
        return replicas
