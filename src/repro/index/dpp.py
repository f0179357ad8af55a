"""Distributed Posting Partitioning (Section 4.1).

A long posting list ``L_a`` is split horizontally, by range conditions over
the ``(p, d, sid)`` order, into blocks scattered across peers.  The peer in
charge of term ``a`` keeps only the *root block*: the ordered sequence of
conditions ``C_1 < ... < C_n`` and, for each, a pseudo-key
``overflow:<i>:<a>`` that the DHT resolves to the peer holding that block
(the first block stays local, as in the paper's Figure 1).

As in the paper's implementation, the structure has two levels (root block
+ data blocks) and the root's condition list is unbounded; a data block
that exceeds ``max_block_entries`` splits in two, the upper half moving to
the peer in charge of a fresh pseudo-key, and the root replaces ``C`` with
``C1, C2``.

The root is a search structure: query processing reads the (small) root,
filters blocks against the ``[min, max]`` document interval of the other
query terms, and fetches only useful blocks — in parallel (Section 4.2).
"""

from dataclasses import dataclass

from repro.dht.network import OpReceipt
from repro.faults import OpTimeoutError
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting

#: bytes to encode one condition entry in a root block (two postings + key)
CONDITION_BYTES = 56

#: bytes to encode one zone map (count + min/max start + min/max level)
ZONE_BYTES = 40


class ZoneMap:
    """Per-block synopsis kept next to the condition in the root block.

    The condition already bounds the block's ``(peer, doc)`` span; the zone
    map adds the posting count and the min/max start position and tree
    level, letting the query planner prune blocks that cannot satisfy a
    structural axis (e.g. a ``CHILD`` step whose parent levels are all
    deeper than the block's shallowest element) without fetching them.

    Bounds are maintained conservatively: appends widen them from the
    incoming batch, splits recompute them exactly from the halves, and
    deletes never shrink them — a sound over-approximation.
    """

    __slots__ = ("count", "min_start", "max_start", "min_level", "max_level")

    def __init__(self, count, min_start, max_start, min_level, max_level):
        self.count = count
        self.min_start = min_start
        self.max_start = max_start
        self.min_level = min_level
        self.max_level = max_level

    @classmethod
    def of_list(cls, plist):
        """Exact zone map of a PostingList, straight off the columns."""
        cols = plist.columns()
        return cls(
            len(cols), min(cols.start), max(cols.start),
            min(cols.level), max(cols.level),
        )

    def widen(self, plist, count):
        """Absorb an appended batch; ``count`` is the block's exact size."""
        cols = plist.columns()
        self.count = count
        self.min_start = min(self.min_start, min(cols.start))
        self.max_start = max(self.max_start, max(cols.start))
        self.min_level = min(self.min_level, min(cols.level))
        self.max_level = max(self.max_level, max(cols.level))

    def __repr__(self):
        return "ZoneMap(n=%d, start=[%d,%d], level=[%d,%d])" % (
            self.count, self.min_start, self.max_start,
            self.min_level, self.max_level,
        )


@dataclass(frozen=True)
class Condition:
    """An inclusive interval ``[lo, hi]`` of postings."""

    lo: Posting
    hi: Posting

    def __contains__(self, posting):
        return self.lo <= posting <= self.hi

    def intersects_docs(self, lo_doc, hi_doc):
        """Does the block's document span intersect ``[lo_doc, hi_doc]``?"""
        return not (
            (self.hi.peer, self.hi.doc) < lo_doc
            or (self.lo.peer, self.lo.doc) > hi_doc
        )

    @property
    def lo_doc(self):
        return (self.lo.peer, self.lo.doc)

    @property
    def hi_doc(self):
        return (self.hi.peer, self.hi.doc)

    def __lt__(self, other):
        return self.hi < other.lo


class BlockRef:
    """One root-block entry: a condition plus where the block lives.

    ``types`` is the set of document types whose postings the block holds
    (Section 4.1: "type information is also stored in the conditions of
    the DPP blocks"), enabling type-based block filtering at query time.
    """

    __slots__ = (
        "condition",
        "pseudo_key",
        "seq",
        "types",
        "zone",
        "access_count",
        "replica_keys",
    )

    def __init__(self, condition, pseudo_key, seq, types=None, zone=None):
        self.condition = condition
        self.pseudo_key = pseudo_key  # None: block is local to the term owner
        self.seq = seq
        self.types = set(types or ())
        self.zone = zone  # ZoneMap synopsis; None until the first append
        self.access_count = 0  # popularity, drives block replication (§4.2)
        self.replica_keys = []  # pseudo-keys of popularity replicas

    @property
    def is_local(self):
        return self.pseudo_key is None

    def __repr__(self):
        where = "local" if self.is_local else self.pseudo_key
        return "BlockRef(seq=%d, %s)" % (self.seq, where)


class DppRoot:
    """Root block of one term's DPP."""

    __slots__ = ("term_key", "entries", "next_seq")

    def __init__(self, term_key):
        self.term_key = term_key
        self.entries = []  # ordered BlockRefs (conditions increasing)
        self.next_seq = 0

    def new_seq(self):
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def encoded_bytes(self):
        type_bytes = sum(
            8 * len(entry.types) for entry in self.entries
        )
        zone_bytes = sum(
            ZONE_BYTES for entry in self.entries if entry.zone is not None
        )
        return 16 + CONDITION_BYTES * len(self.entries) + type_bytes + zone_bytes

    def target_entry(self, posting):
        """The entry whose block should receive ``posting``.

        Conditions partition the order: a posting goes to the first block
        whose upper bound is >= it, or to the last block."""
        for entry in self.entries:
            if entry.condition is None or posting <= entry.condition.hi:
                return entry
        return self.entries[-1]

    def check_invariants(self):
        conditions = [e.condition for e in self.entries if e.condition is not None]
        for left, right in zip(conditions, conditions[1:]):
            assert left.hi < right.lo, (
                "root conditions overlap: %r vs %r" % (left, right)
            )


def _local_block_key(term_key):
    """Store key under which the term owner keeps its local DPP block."""
    return "dppdata:" + term_key


def overflow_key(seq, term_key):
    """The paper's ``overflow:i:a`` pseudo-key."""
    return "overflow:%d:%s" % (seq, term_key)


class DppIndex:
    """Manages DPP roots and blocks on top of the DHT network."""

    ROOT_KEY_PREFIX = "dpproot:"

    def __init__(
        self,
        net,
        max_block_entries=1000,
        ordered_splits=True,
        replicate_after=None,
        replica_copies=1,
    ):
        """``ordered_splits=False`` reproduces the alternative the paper
        tested and rejected (Section 4.1): a block's data is scattered
        between the two halves instead of split by range, so conditions
        overlap and can no longer guide the search — transfers stay
        parallel but the ``[min, max]`` filtering loses its teeth.

        ``replicate_after`` enables the Section 4.2 discussion: a block
        fetched more than that many times is replicated (``replica_copies``
        extra peers, pseudo-keys of its own), and subsequent fetches
        round-robin across the copies — the DHT's fixed-factor replication
        cannot provide this per-block control, which is exactly the
        paper's complaint about it."""
        if max_block_entries < 2:
            raise ValueError("max_block_entries must be >= 2")
        if replicate_after is not None and replicate_after < 1:
            raise ValueError("replicate_after must be >= 1 or None")
        self.net = net
        self.max_block_entries = max_block_entries
        self.ordered_splits = ordered_splits
        self.replicate_after = replicate_after
        self.replica_copies = replica_copies

    # -- root access -----------------------------------------------------------

    def _root_at(self, owner, term_key, create=False):
        key = self.ROOT_KEY_PREFIX + term_key
        entry = owner.objects.get(key)
        if entry is not None:
            return entry[0]
        if not create:
            return None
        # churn can hand the term to a node whose root copy was dropped
        # while it was down; creating a fresh empty root here would orphan
        # every existing block, so adopt the freshest alive copy instead
        source = self.net.freshest_holder(key, exclude=owner)
        if source is not None:
            owner.objects[key] = source.objects[key]
            owner.versions[key] = source.versions.get(key, 0)
            return owner.objects[key][0]
        root = DppRoot(term_key)
        # a fresh root has one empty local block; its condition is set to
        # the actual data bounds by the first append
        root.entries.append(BlockRef(None, None, root.new_seq()))
        owner.objects[key] = (root, root.encoded_bytes())
        owner.versions[key] = self.net.next_stamp()
        return root

    def _store_root(self, owner, root):
        key = self.ROOT_KEY_PREFIX + root.term_key
        entry = (root, root.encoded_bytes())
        stamp = self.net.next_stamp()
        owner.objects[key] = entry
        owner.versions[key] = stamp
        # reliability replication: the (shared, in-process) root object is
        # also held by the term's DHT replicas so a term-owner failure
        # re-homes it (Section 4.2's reliance on DHT index replication)
        if self.net.replication > 1:
            for backup in self.net.replica_nodes(root.term_key):
                if backup is not owner:
                    backup.objects[key] = entry
                    backup.versions[key] = stamp

    def root(self, src, term_key):
        """Fetch a term's root block over the network (query-time path)."""
        coalescer = self.net.coalescer
        if coalescer is not None:
            flight = coalescer.lookup("dpproot", term_key)
            if flight is not None:
                return flight.data, OpReceipt(duration_s=flight.receipt_s)
        owner, receipt = self.net.locate(src, term_key)
        root = self._root_at(owner, term_key)
        if root is not None:
            nbytes = root.encoded_bytes()
            self.net.ship(term_key, nbytes, "control", receipt, billed="response_bytes")
            if coalescer is not None:
                coalescer.register(
                    "dpproot", term_key, root, nbytes, receipt.duration_s
                )
        return root, receipt

    # -- insertion -----------------------------------------------------------------

    def append(self, src, term_key, postings, doc_type=None):
        """Insert ``postings`` for ``term_key`` through the DPP.

        Postings are routed to the term owner (as without DPP); the owner
        dispatches each to its target block — locally or by forwarding to
        the holder of the block's pseudo-key — splitting blocks that
        overflow.  ``doc_type`` (Section 4.1) tags the touched blocks with
        the publishing document's type."""
        postings = PostingList.of(postings)
        if not len(postings):
            return OpReceipt()
        owner, hops = self.net.route(src, term_key)
        receipt = OpReceipt()
        self.net.ship(term_key, encoded_size(postings), "postings", receipt, hops=hops)
        root = self._root_at(owner, term_key, create=True)

        # group the batch by target block: by range condition (ordered
        # mode) or by hash (the random-scattering alternative of §4.1)
        if self.ordered_splits:
            # conditions partition the (p, d, sid) order and the batch is
            # sorted, so per-entry membership is a consecutive slice: one
            # batched bisect over the condition upper bounds replaces the
            # per-posting entry scan
            entries = root.entries
            if entries[0].condition is None:
                cuts = [len(postings)]  # a fresh root: one unbounded block
            else:
                cuts = postings.columns().batch_bisect_right(
                    [tuple(entry.condition.hi) for entry in entries]
                )
                # the last block absorbs what sorts above every condition
                cuts[-1] = len(postings)
            groups = []
            lo = 0
            for entry, cut in zip(entries, cuts):
                if cut > lo:
                    groups.append((entry, postings[lo:cut]))
                    lo = cut
        else:
            from repro.util.hashing import stable_hash

            scattered = {}
            for posting in postings:
                pick = stable_hash(repr(tuple(posting)), seed=7) % len(root.entries)
                entry = root.entries[pick]
                scattered.setdefault(entry.seq, (entry, []))[1].append(posting)
            groups = [
                (entry, PostingList(group, presorted=True))
                for entry, group in scattered.values()
            ]

        for entry, group in groups:
            if doc_type is not None:
                entry.types.add(doc_type)
            receipt.merge(self._append_to_block(owner, root, entry, group))
        self._store_root(owner, root)
        return receipt

    def _block_location(self, owner, entry, term_key):
        """(holder_node, store_key) of a block."""
        if entry.is_local:
            return owner, _local_block_key(term_key)
        holder = self.net.owner_of(entry.pseudo_key)
        return holder, entry.pseudo_key

    def _freshen_block(self, holder, store_key, receipt):
        """Read-repair a block copy before mutating it in place.

        Churn can hand block ownership to a node whose copy is stale or
        missing entirely (e.g. it was dropped as an orphan while the node
        was down and the ring later moved back).  Mutating such a copy
        would stamp an *incomplete* rewrite with a fresh version,
        laundering the hole past anti-entropy repair: the complete but
        older copies then lose by version and the postings are gone for
        good.  So before any in-place append, split, or delete, adopt the
        union of the freshest alive copies.  In a fault-free network every
        copy is identical, so this never transfers (or meters) anything.
        """
        mine = (
            holder.versions.get(store_key, 0)
            if store_key in holder.store
            else -1
        )
        fresh = self.net.freshest_postings(store_key, exclude=holder, floor=mine)
        if fresh is None:
            return
        version, reference = fresh
        if mine == version:
            # equal versions may hold different quorum holes: union them
            current = holder.store.get(store_key)
            reference = reference.merge(current)
            if len(reference) == len(current):
                return
        receipt.duration_s += self.net.ship(store_key, encoded_size(reference), "postings")
        self.net.sync_copy(holder, store_key, reference, version)

    def _append_to_block(self, owner, root, entry, group):
        receipt = OpReceipt()
        holder, store_key = self._block_location(owner, entry, root.term_key)
        self._freshen_block(holder, store_key, receipt)
        if holder is not owner:
            self.net.ship(store_key, encoded_size(group), "postings", receipt)
        # DPP blocks enjoy the DHT's reliability replication like any other
        # key (Section 4.2: "the DHT does replicate its index for
        # reliability"); the popularity replicas are a separate mechanism
        try:
            self.net.write_at(holder, store_key, group, receipt)
        finally:
            # refresh the condition to cover the new postings, which the
            # holder keeps even when the write then misses its quorum
            if entry.condition is None:
                entry.condition = Condition(group.first, group.last)
            else:
                entry.condition = Condition(
                    min(entry.condition.lo, group.first),
                    max(entry.condition.hi, group.last),
                )
            # refresh the zone map alongside (count is the block's exact
            # size; start/level bounds widen conservatively from the batch)
            if entry.zone is None:
                entry.zone = ZoneMap.of_list(group)
                entry.zone.count = holder.store.count(store_key)
            else:
                entry.zone.widen(group, holder.store.count(store_key))

        if holder.store.count(store_key) > self.max_block_entries:
            receipt.merge(self._split_block(owner, root, entry))
        return receipt

    def _split_block(self, owner, root, entry):
        """Split an overfull block; the upper half moves to a new peer."""
        receipt = OpReceipt()
        holder, store_key = self._block_location(owner, entry, root.term_key)
        self._freshen_block(holder, store_key, receipt)
        block = holder.store.get(store_key)
        if self.ordered_splits:
            mid = len(block) // 2
            lower, upper = block.split_at(mid)
        else:
            items = block.items()
            lower = PostingList(items[0::2], presorted=True)
            upper = PostingList(items[1::2], presorted=True)

        new_seq = root.new_seq()
        new_key = overflow_key(new_seq, root.term_key)
        try:
            # rewrite the lower half in place, on every reliability replica too
            self.net.write_at(holder, store_key, lower, receipt, replace=True)
            # ship the upper half to the peer in charge of a fresh
            # pseudo-key, where it gets the DHT's reliability replication
            # like any other key: crashing the new holder right after a
            # split must not lose the upper half at replication > 1
            new_holder, hops = self.net.route(owner, new_key)
            self.net.ship(new_key, encoded_size(upper), "postings", receipt, hops=hops)
            self.net.write_at(new_holder, new_key, upper, receipt)
        except OpTimeoutError:
            # not atomic: put the whole block back at its holder under a
            # fresh stamp, which repair spreads over the copies the lower
            # half reached; an upper half that landed is an orphan
            self.net.sync_copy(holder, store_key, block, self.net.next_stamp())
            raise

        # the root replaces C with C1, C2
        idx = root.entries.index(entry)
        entry.condition = Condition(lower.first, lower.last)
        # a split sees the full block anyway, so recompute zones exactly
        entry.zone = ZoneMap.of_list(lower)
        # both halves may hold any of the original types (conservative)
        new_entry = BlockRef(
            Condition(upper.first, upper.last), new_key, new_seq, entry.types,
            zone=ZoneMap.of_list(upper),
        )
        root.entries.insert(idx + 1, new_entry)
        return receipt

    # -- query-time access ------------------------------------------------------------

    def delete(self, src, term_key, postings):
        """Remove postings from the DPP (document modification path).

        Each posting is routed through the root to its target block; empty
        conditions are left in place (the paper's system also tolerates
        underfull blocks — rebalancing is future work there too).
        """
        owner, hops = self.net.route(src, term_key)
        receipt = OpReceipt(hops=hops)
        root = self._root_at(owner, term_key)
        if root is None:
            return 0, receipt
        removed = 0
        for posting in sorted(postings):
            entry = root.target_entry(posting)
            holder, store_key = self._block_location(owner, entry, term_key)
            self._freshen_block(holder, store_key, receipt)
            if self.net.timed_store_op(
                receipt, holder.store, "delete", store_key, posting
            ):
                removed += 1
                # stamp the rewrite so anti-entropy pushes the deletion to
                # the block's replicas instead of resurrecting from them
                holder.versions[store_key] = self.net.next_stamp()
        # the conditions' update to the root: metered, not timed
        self.net.ship(term_key, CONDITION_BYTES * max(1, removed), "control")
        return removed, receipt

    def replica_block_key(self, entry, term_key, copy):
        return "blockrep:%d:%d:%s" % (copy, entry.seq, term_key)

    def _maybe_replicate(self, owner, entry, term_key):
        """Popularity-driven block replication (Section 4.2)."""
        if (
            self.replicate_after is None
            or entry.replica_keys
            or entry.access_count < self.replicate_after
        ):
            return
        primary_holder, store_key = self._block_location(owner, entry, term_key)
        postings = primary_holder.store.get(store_key)
        for copy in range(self.replica_copies):
            rep_key = self.replica_block_key(entry, term_key, copy)
            # a popularity replica is one more copy of the block under a
            # pseudo-key of its own (never on that key's replica set, never
            # charged store time), so it takes the copy rule
            self.net.ship(rep_key, encoded_size(postings), "postings")
            self.net.sync_copy(
                self.net.owner_of(rep_key), rep_key, postings, self.net.next_stamp()
            )
            entry.replica_keys.append(rep_key)

    def _pick_block_holder(self, owner, entry, term_key):
        """Round-robin between the primary block and its replicas."""
        choices = [None] + list(entry.replica_keys)
        pick = choices[entry.access_count % len(choices)]
        if pick is None:
            return self._block_location(owner, entry, term_key)
        return self.net.owner_of(pick), pick

    def fetch_block(self, src, term_key, entry, doc_lo=None, doc_hi=None):
        """Fetch one block (or its ``[min,max]`` document intersection).

        Returns ``(postings, holder_node, receipt)``; the transfer duration
        reflects only this block — the executor schedules blocks in
        parallel.  Access counts drive popularity replication, and fetches
        rotate over the block's copies."""
        coalescer = self.net.coalescer
        block_id = (term_key, entry.seq, doc_lo, doc_hi)
        if coalescer is not None:
            flight = coalescer.lookup("dppblk", block_id)
            if flight is not None:
                # join the in-flight block transfer: no access-count bump
                # (nothing was fetched), no replication trigger, no bytes
                postings, holder = flight.data
                return postings, holder, OpReceipt(duration_s=flight.receipt_s)
        owner = self.net.owner_of(term_key)
        entry.access_count += 1
        self._maybe_replicate(owner, entry, term_key)
        holder, store_key = self._pick_block_holder(owner, entry, term_key)
        if doc_lo is not None and doc_hi is not None:
            lo = Posting(doc_lo[0], doc_lo[1], 0, 1, 0)
            hi = Posting(doc_hi[0], doc_hi[1], 2**62, 2**62, 2**62)
            postings = holder.store.get_range(store_key, lo, hi)
        else:
            postings = holder.store.get(store_key)
        receipt = self.net.block_get(src, store_key, postings, holder=holder)
        if coalescer is not None:
            coalescer.register(
                "dppblk",
                block_id,
                (postings, holder),
                encoded_size(postings),
                receipt.duration_s,
            )
        return postings, holder, receipt

    def full_list(self, src, term_key):
        """Reassemble a term's full posting list from its blocks (testing)."""
        root, _ = self.root(src, term_key)
        if root is None:
            return PostingList()
        merged = PostingList()
        for entry in root.entries:
            postings, _, _ = self.fetch_block(src, term_key, entry)
            merged = merged.merge(postings)
        return merged

    def block_count(self, term_key):
        owner = self.net.owner_of(term_key)
        root = self._root_at(owner, term_key)
        return len(root.entries) if root is not None else 0
