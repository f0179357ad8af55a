"""Clustered storage of materialized view answers in the DHT.

A view's answer postings (the root bindings of every document matching the
view pattern) are kept in ``(p, d, sid)`` order and cut into blocks of at
most ``view_block_entries`` postings, each stored under its own pseudo-key
``viewblk:<seq>:<view_id>`` — the DPP's block layout, reused: the DHT
scatters the blocks over peers, fetches run with degree-K parallelism, and
blocks that overflow under maintenance split in two exactly like DPP data
blocks.  Postings travel in the standard delta-varint codec, and every
transfer is metered under the dedicated ``views`` traffic category so
experiments can separate cache traffic from base-index traffic.
"""

from repro.dht.network import OpReceipt
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.views.definition import ViewBlock, block_key

#: traffic-meter category for view fetch and maintenance transfers
VIEW_TRAFFIC = "views"


class ViewIntegrityError(Exception):
    """A block's routed holder disagrees with the catalog metadata.

    View blocks are single-copy: when the holder a block key routes to no
    longer has the postings the catalog says it has (its real holder
    crashed and routing moved on, or a partial delete drifted), an
    in-place mutation would silently discard the unreachable postings.
    The manager reacts by dematerializing the view — incremental
    maintenance falls back to recompute exactly when its base is lost."""


class ViewBlockStore:
    """Reads and writes one network's view answer blocks."""

    def __init__(self, system):
        self.system = system

    @property
    def net(self):
        return self.system.net

    @property
    def max_block_entries(self):
        return self.system.config.view_block_entries

    # -- materialization -------------------------------------------------------

    def write_blocks(self, src_node, view, postings):
        """Store ``postings`` as fresh clustered blocks of ``view``.

        Used once per materialization; returns an :class:`OpReceipt` whose
        duration covers routing each block to its holder (the blocks are
        scheduled as transfers: the materializing peer's one egress link
        sends them one after another)."""
        postings = PostingList.of(postings)
        receipt = OpReceipt()
        schedule = self.net.transfers()
        blocks = []  # the catalog learns of them once all have landed
        for chunk in postings.chunks(self.max_block_entries):
            seq = view.new_seq()
            key = block_key(view.view_id, seq)
            holder, hops = self.net.route(src_node, key)
            payload = encoded_size(chunk)
            sent = OpReceipt()  # its seconds go on the schedule, not the sum
            self.net.ship(key, payload, VIEW_TRAFFIC, sent, hops=hops)
            self.net.timed_store_op(sent, holder.store, "append", key, chunk)
            receipt.hops += sent.hops
            receipt.request_bytes += sent.request_bytes
            schedule.transfer("viewblk:%d" % seq, sent.duration_s, src_node.peer_index)
            blocks.append(
                ViewBlock(
                    key,
                    chunk.first.doc_id,
                    chunk.last.doc_id,
                    len(chunk),
                    payload,
                )
            )
        view.blocks.extend(blocks)
        receipt.duration_s += schedule.run()
        return receipt

    # -- incremental maintenance ------------------------------------------------

    def append(self, src_node, view, postings):
        """Route a publish delta into the view's blocks (splitting on
        overflow), keeping the catalog's ranges/counts current."""
        postings = PostingList.of(postings)
        receipt = OpReceipt()
        if not len(postings):
            return receipt
        if not view.blocks:
            return receipt.merge(self.write_blocks(src_node, view, postings))
        groups = {}
        for posting in postings:
            block = view.target_block(posting.doc_id)
            groups.setdefault(block.key, (block, []))[1].append(posting)
        for block, group in groups.values():
            receipt.merge(self._append_to_block(src_node, view, block, group))
        return receipt

    def _routed(self, src_node, block):
        """``(holder, hops)`` of ``block``, verified before any in-place
        mutation: on a holder that lacks the block's postings, an append
        would shrink the catalog count to just the delta and a delete
        would leave it describing postings nobody can reach."""
        holder, hops = self.net.route(src_node, block.key)
        if holder.store.count(block.key) != block.count:
            raise ViewIntegrityError(block.key)
        return holder, hops

    def _append_to_block(self, src_node, view, block, group):
        receipt = OpReceipt()
        holder, hops = self._routed(src_node, block)
        self.net.ship(block.key, encoded_size(group), VIEW_TRAFFIC, receipt, hops=hops)
        self.net.timed_store_op(receipt, holder.store, "append", block.key, group)
        self._refresh_block(holder, block, group)
        if holder.store.count(block.key) > self.max_block_entries:
            receipt.merge(self._split_block(src_node, view, block, holder))
        return receipt

    def _refresh_block(self, holder, block, group):
        lo, hi = min(group).doc_id, max(group).doc_id
        block.lo_doc = lo if block.lo_doc is None else min(block.lo_doc, lo)
        block.hi_doc = hi if block.hi_doc is None else max(block.hi_doc, hi)
        block.count = holder.store.count(block.key)
        block.nbytes = encoded_size(holder.store.get(block.key))

    def _split_block(self, src_node, view, block, holder):
        """Split an overfull block; the upper half moves to a fresh key.

        Recurses while either half still exceeds the block size — a single
        maintenance delta can overflow a block by more than 2x."""
        receipt = OpReceipt()
        data = holder.store.get(block.key)
        lower, upper = data.split_at(len(data) // 2)
        seq = view.new_seq()
        new_key = block_key(view.view_id, seq)
        new_holder, hops = self.net.route(src_node, new_key)
        payload = encoded_size(upper)
        # the upper half is shipped before the block is cut, so a split
        # whose message is lost leaves the block whole
        self.net.ship(new_key, payload, VIEW_TRAFFIC, receipt, hops=hops)
        holder.store.delete(block.key)
        holder.store.append(block.key, lower)
        block.lo_doc = lower.first.doc_id
        block.hi_doc = lower.last.doc_id
        block.count = len(lower)
        block.nbytes = encoded_size(lower)
        self.net.timed_store_op(receipt, new_holder.store, "append", new_key, upper)
        new_block = ViewBlock(
            new_key,
            upper.first.doc_id,
            upper.last.doc_id,
            len(upper),
            payload,
        )
        view.blocks.insert(view.blocks.index(block) + 1, new_block)
        if len(lower) > self.max_block_entries:
            receipt.merge(self._split_block(src_node, view, block, holder))
        if len(upper) > self.max_block_entries:
            receipt.merge(
                self._split_block(src_node, view, new_block, new_holder)
            )
        return receipt

    def delete_doc(self, src_node, view, doc_id, postings):
        """Remove an unpublished document's postings from the view.

        ``postings`` are the exact root postings the document contributed
        (recomputed locally by the withdrawing peer).  Returns the number
        removed."""
        removed = 0
        receipt = OpReceipt()
        for block in view.blocks:
            if block.lo_doc is not None and (
                doc_id < block.lo_doc or doc_id > block.hi_doc
            ):
                continue
            holder, hops = self._routed(src_node, block)
            receipt.duration_s += self.net.ship(block.key, 32, VIEW_TRAFFIC, hops=hops)
            changed = 0
            for posting in postings:
                if holder.store.delete(block.key, posting):
                    changed += 1
            if changed:
                removed += changed
                block.count = holder.store.count(block.key)
                remaining = holder.store.get(block.key)
                block.nbytes = encoded_size(remaining)
                if len(remaining):
                    block.lo_doc = remaining.first.doc_id
                    block.hi_doc = remaining.last.doc_id
        return removed, receipt

    # -- query-time fetch --------------------------------------------------------

    def fetch_all(self, src_node, view):
        """Bring every block of ``view`` to the query peer, in parallel.

        Returns ``(postings, makespan_s, first_block_s, total_bytes)``;
        transfers are scheduled degree-K parallel over per-holder egress
        links and the query peer's ingress, like DPP block fetches."""
        coalescer = self.net.coalescer
        if coalescer is not None:
            flight = coalescer.lookup("view", view.view_id)
            if flight is not None:
                # a concurrent query is already pulling this view's blocks:
                # share the in-flight transfer — the views catalog serves
                # the repeat without putting a second copy on the wire
                merged, makespan, first = flight.data
                return merged, makespan, first, 0
        schedule = self.net.transfers(self.system.config.parallelism)
        merged = PostingList()
        first = None
        total_bytes = 0
        for block in view.blocks:
            holder = self.net.owner_of(block.key)
            postings = holder.store.get(block.key)
            payload = encoded_size(postings)
            duration = self.net.cost.disk_read_time(payload) + self.net.ship(
                block.key, payload, VIEW_TRAFFIC
            )
            total_bytes += payload
            merged = merged.merge(postings)
            schedule.transfer("viewfetch:%s" % block.key, duration, holder.peer_index)
            if first is None:
                first = duration
        makespan = schedule.run()
        if coalescer is not None:
            coalescer.register(
                "view",
                view.view_id,
                (merged, makespan, first or 0.0),
                total_bytes,
                makespan,
            )
        return merged, makespan, first or 0.0, total_bytes
