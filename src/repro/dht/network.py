"""The in-process DHT network: nodes, routing, and the (extended) API.

The API follows Section 2 of the paper —

    locate(k)      id of the peer in charge of key k
    get(k)         the postings for k                 (blocking)
    delete(k, as)  withdraw postings from k (one routed request per key)

— plus the two extensions of Section 3:

    append(k, as)        add postings to k (one routed request)
    pipelined_get(k)     stream the posting list in chunks

The paper's ``put(k, a)`` is :meth:`DhtNetwork.append` on the PAST-style
naive store, whose only write reads, reconciles and rewrites the list.

Every operation returns its result together with an :class:`OpReceipt`
recording the hops taken, the bytes moved (also logged to the global
:class:`~repro.sim.meter.TrafficMeter`), and the simulated duration.
Requests are routed multi-hop over the overlay; bulk responses flow over a
direct connection (one hop), as in the real system.  The layers above
send every other message between peers with :meth:`DhtNetwork.ship` and
schedule parallel transfers with :meth:`DhtNetwork.transfers`.

Fault tolerance (:mod:`repro.faults`): with a :class:`FaultPlan` on
:attr:`DhtNetwork.faults` any message can be dropped (retry with backoff,
then :class:`~repro.faults.OpTimeoutError`), delayed or duplicated, and
peers can crash mid-operation.  One loop delivers every message
(:meth:`DhtNetwork._deliver`) and one choice names the node that serves a
read (:meth:`DhtNetwork._read_holder`); DESIGN.md "Fault model"
tabulates, op by op, what each fate meters, bills and charges.  Writes acknowledge on a
replica quorum (:attr:`DhtNetwork.write_quorum`).  Membership, replica
sets and every hand-over of a copy between peers are the other half of
the class, :class:`repro.dht.replicas.Membership`, and divergent copies
are reconciled by its one rule (:func:`repro.dht.replicas.reconcile`).
With no plan installed — or a plan whose rates are all zero — every byte,
hop, and simulated second is identical to the fault-free code path (the
differential test in ``tests/test_faults.py``).
"""

from dataclasses import dataclass, field
from itertools import count, repeat

from repro.dht.nodeid import key_id
from repro.dht.replicas import Membership
from repro.errors import DhtError, NoSuchPeerError
from repro.faults import OpTimeoutError, RetryPolicy
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.sim.cost import CostModel
from repro.sim.meter import TrafficMeter
from repro.sim.tasks import Scheduler, Task
from repro.storage.clustered import ClusteredIndexStore

#: nominal size of a routed control message (key + op header), bytes
CONTROL_BYTES = 64

#: entries the per-hop routing memo may hold before it is cleared wholesale:
#: about 9 MB at the measured ~140 bytes an entry (a 16-peer ring that
#: indexed 3,000 distinct terms holds 11,000)
HOP_MEMO_CAP = 1 << 16

_MISS = object()  # "not memoised": None is a real next_hop result (deliver)

@dataclass
class OpReceipt:
    """Cost accounting for one DHT operation."""

    hops: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    duration_s: float = 0.0

    def merge(self, other):
        """Fold ``other`` into this receipt."""
        self.hops += other.hops
        self.request_bytes += other.request_bytes
        self.response_bytes += other.response_bytes
        self.duration_s += other.duration_s
        return self


class Transfers(Scheduler):
    """A parallel transfer schedule into one peer (:meth:`DhtNetwork.transfers`).

    A transfer holds its sender's ``egress:<peer>`` link (one slot) and one
    of the receiver's ``ingress`` slots; under the network's FaultPlan it
    is stretched by the plan's link jitter.  Transfers wait in a queue as
    they are asked for, and become tasks, in that order, when the schedule
    runs.  Every resource a transfer names is declared here, so the links
    and tasks are registered directly, without the scheduler's resource
    check; and a schedule this class knows to be gated reaches the closed
    form without the scheduler's eligibility scan."""

    def __init__(self, net, slots):
        super().__init__()
        self._cost = net.cost
        self._queued = []  # (name, seconds, sender, release) of each transfer
        if net.faults is not None:
            self.install_faults(net.faults)
        self.add_resource("ingress", slots)

    def transfer(self, name, seconds, sender, release=0.0):
        """Schedule ``seconds`` from peer index ``sender``, not before ``release``."""
        self._queued.append((name, seconds, sender, release))

    def carry(self, name, nbytes, sender):
        """Schedule ``nbytes`` that a DHT verb has already metered."""
        self.transfer(name, self._cost.transfer_time(nbytes, hops=1), sender)

    def run(self):
        self._gates = None
        if self._queued:
            names, seconds, senders, releases = zip(*self._queued)
            self._queued = []
            gates = list(map("egress:%d".__mod__, senders))
            self._capacity.update(dict.fromkeys(gates, 1))
            # built in full before any is registered: a bad duration
            # registers none of them
            self._tasks += list(map(
                Task, names, seconds, repeat(()), zip(gates, repeat("ingress")), releases,
                repeat(None), repeat(0), count(len(self._tasks)),
            ))
            # no dependencies and priority 0: when they are all the tasks,
            # with one release and an ingress slot per distinct sender, the
            # transfers are gated (a re-run checks them again)
            gated = len(gates) == len(self._tasks) and len(set(releases)) == 1
            if gated and len(set(gates)) <= self._capacity["ingress"]:
                self._gates = gates
        return super().run()


class DhtNetwork(Membership):
    """The full ring.  All peers of a KadoP deployment share one instance."""

    def __init__(self, cost=None, replication=2, overlay="pastry"):
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        if overlay not in ("pastry", "chord"):
            raise ValueError("overlay must be 'pastry' or 'chord'")
        self.cost = cost or CostModel()
        self.meter = TrafficMeter()
        self.replication = replication
        self.overlay = overlay
        self.nodes = []  # in join order; index == peer_index
        self._by_id = {}
        # the alive ring (_rebuild_routing): join order, then sorted by id
        self._alive, self._ring, self._ring_ids = [], [], []
        # derived from membership + placement; see _invalidate_caches
        self._replica_cache = {}  # key -> replica tuple, owner first
        self._hop_memo = {}  # (forwarding peer index, key id) -> next_hop()
        # observability hooks (repro.obs): strictly read-only observers —
        # None by default, attached by KadopNetwork.enable_tracing
        self.tracer = None
        self._last_path = None  # hop path of the most recent traced route
        # fault injection (repro.faults): a FaultPlan consulted by every
        # op when installed (KadopNetwork.install_faults); None = no faults
        self.faults = None
        # single-flight fetch coalescing (repro.kadop.serving): installed
        # only while a serving engine runs with coalescing on; ``get`` and
        # ``pipelined_get`` then join an in-flight fetch of the same key
        # instead of paying for a second transfer.  None = every fetch real.
        self.coalescer = None
        # load balancing (repro.balance): a LoadBalancer consulted by the
        # read path for holder selection and fed by every op for the load
        # ledger (KadopNetwork installs it); None = legacy owner-only reads
        self.balancer = None
        # rebalancer placement overrides: routing alias -> node that now
        # owns the alias group (see set_placement); empty = pure hashing
        self.placement = {}
        # the node that actually served the most recent get/pipelined_get/
        # block_get (None when a coalesced flight answered): lets the query
        # executor charge the transfer to the real egress link
        self.last_holder = None
        self.retry = RetryPolicy()
        self.write_quorum = "all"  # or "majority": acks needed per write
        self._write_stamp = 0  # source of next_stamp()

    def next_stamp(self):
        """Monotonic version for one logical write event.

        Every physical copy written as part of the event carries the same
        stamp; repair, restart resync, and join handover reconcile
        divergent copies by *highest stamp* rather than by size.  Size is
        not a usable proxy here: a rewrite (block split, delete) makes the
        fresh copy smaller than a stale pre-rewrite one, which an
        unversioned "most complete wins" pass would then resurrect and
        spread.  Stamps are metadata only — they cost no metered bytes and
        leave zero-fault runs byte-identical."""
        self._write_stamp += 1
        return self._write_stamp

    # -- construction and writes at a known holder --------------------------------

    @classmethod
    def create(cls, num_peers, **kwargs):
        """Build a ring of ``num_peers`` nodes with fresh B+-tree stores."""
        net = cls(**kwargs)
        for i in range(num_peers):
            net.add_node("peer://%d" % i, ClusteredIndexStore(), rebuild=False)
        net._rebuild_routing()
        return net

    def timed_store_op(self, receipt, store, op, *args):
        """Run ``store.<op>(*args)`` and charge ``receipt`` the simulated
        seconds of its disk traffic and store ops; returns its result."""
        stats = store.stats
        read, written, ops = stats.bytes_read, stats.bytes_written, stats.num_ops
        result = getattr(store, op)(*args)
        read, written = stats.bytes_read - read, stats.bytes_written - written
        receipt.duration_s += self.cost.store_time(read, written, stats.num_ops - ops)
        return result

    def write_at(self, holder, key, postings, receipt, replace=False):
        """Write ``postings`` under ``key`` at a known ``holder`` and on the
        rest of the key's replica set, as one logical write.

        The rule for a write whose destination is already resolved (a DPP
        block, named by the root), where :meth:`_apply` is the rule for a
        routed one: one fresh stamp on every copy, the holder's store time
        charged to ``receipt``, and the other copies pushed by
        :meth:`_replicate`, unbilled and unseen by the balancer.
        ``replace`` rewrites the copies (a split's lower half) instead of
        appending: a replica that merely appended would keep the pre-split
        block, a copy that is larger (hence "more complete" to anti-entropy
        repair) yet stale."""
        idx = self.faults.begin_message() if self.faults is not None else None
        stamp = self.next_stamp()
        if replace:
            holder.store.delete(key)
        self.timed_store_op(receipt, holder.store, "append", key, postings)
        holder.versions[key] = stamp
        if self.replication > 1:  # a lone copy has no replica set to look up
            self._replicate(
                "write_at", key, idx, holder, self.replica_nodes(key), encoded_size(postings),
                lambda node: self.sync_copy(node, key, postings, stamp, replace), receipt,
            )

    # -- routing ------------------------------------------------------------------

    def route(self, src, key, fault_idx=None):
        """Walk the overlay from ``src`` toward ``key``.

        Returns ``(owner_node, hops)``.  Uses only each node's own routing
        state, so tests can verify greedy prefix routing really reaches the
        globally closest node in O(log N) hops.

        ``fault_idx`` is the FaultPlan operation index of the enclosing op,
        when one is already open; a direct route under an active plan opens
        its own.  The plan may crash the chosen next hop mid-route — the
        stale-entry fallback below then recovers exactly as it does for a
        key-space gap, at the cost of one extra hop.
        """
        if not src.alive:
            raise NoSuchPeerError("routing from a removed node")
        plan = self.faults
        if plan is not None and fault_idx is None:
            fault_idx = plan.begin_op(self, "route", key)
        kid = key_id(key)
        current = src
        hops = 0
        seen = set()
        # per-hop (src, dst, level) capture for the tracer: level is the
        # routing-table row used — the shared-prefix length between the
        # forwarding node and the key
        path = [] if (self.tracer is not None and self.tracer.active) else None
        while True:
            # the routing decision is a function of (node, key) until
            # membership changes, so it is memoised per hop; the hops
            # themselves are still walked (and charged, traced and
            # fault-injected) one by one.  Read the memo through ``self``
            # each round: a hop crash below rebuilds routing mid-route.
            hop = (current.peer_index, kid)
            nxt_id = self._hop_memo.get(hop, _MISS)
            if nxt_id is _MISS:
                nxt_id = current.routing.next_hop(kid)
                if len(self._hop_memo) >= HOP_MEMO_CAP:
                    self._hop_memo.clear()
                self._hop_memo[hop] = nxt_id
            if nxt_id is None:
                nxt = self._placed(key)
                if nxt is None or nxt is current:
                    self._last_path = path
                    return current, hops
                # the hash-closest node forwards to the re-placed owner it
                # knows about (one extra hop, like the stale-entry fallback)
            else:
                nxt = self._by_id.get(int(nxt_id))
                if (
                    plan is not None
                    and nxt is not None
                    and nxt.alive
                    and int(nxt_id) not in seen
                ):
                    plan.maybe_crash_hop(self, fault_idx, hops, nxt, protect=src)
                if nxt is None or not nxt.alive or int(nxt_id) in seen:
                    # stale entry: fall back to global owner (one extra
                    # hop), which is what Pastry's repair would converge to
                    nxt, nxt_id = self.owner_of(key), None
            if path is not None:
                path.append(
                    (
                        current.peer_index,
                        nxt.peer_index,
                        current.node_id.shared_prefix_len(kid),
                    )
                )
            hops += 1
            if nxt_id is None:  # forwarded or fell back: nxt is the owner
                self._last_path = path
                return nxt, hops
            seen.add(int(nxt_id))
            current = nxt
            if hops > len(self.nodes) + 4:
                raise DhtError("routing loop for key %r" % (key,))

    def _observe_op(self, op, src, key, receipt, payload=0, served_by=None):
        """Record one completed DHT operation with the tracer.

        Called after the receipt is final; emits the op span (carrying the
        hop count and payload) and one child span per overlay hop (from
        the path :meth:`route` captured).  ``served_by`` is the peer index
        whose copy answered a read — EXPLAIN ANALYZE attributes the
        response payload to it.  Pure observation — no meter, cost, or
        store interaction.
        """
        if self.tracer is None:
            return
        tracer = self.tracer
        if not tracer.active:
            self._last_path = None
            return
        ctx = tracer.context
        start = ctx.now()
        track = "peer:%d" % src.peer_index
        op_span = tracer.add(
            "dht:%s %s" % (op, key),
            "dht",
            track,
            start,
            receipt.duration_s,
            args={
                "key": key,
                "op": op,
                "peer": src.peer_index,
                "served_by": served_by,
                "payload": payload,
                "hops": receipt.hops,
                "request_bytes": receipt.request_bytes,
                "response_bytes": receipt.response_bytes,
            },
            parent=ctx.parent_id,
        )
        path, self._last_path = self._last_path, None
        if path:
            hop_latency = self.cost.params.hop_latency_s
            t = start
            for hop_src, hop_dst, level in path:
                tracer.add(
                    "hop %d>%d" % (hop_src, hop_dst),
                    "dht-hop",
                    track,
                    t,
                    hop_latency,
                    args={"src": hop_src, "dst": hop_dst, "level": level},
                    parent=op_span,
                )
                t += hop_latency

    def _observe_fault(self, kind, key):
        """Record one injected fault (or recovery step) with the observers.

        An instant span on the ``faults`` track, so traces show *where* in
        a query the drops and crashes landed; the run's totals per kind are
        ``FaultPlan.stats``.  Pure observation, like :meth:`_observe_op`."""
        if self.tracer is None:
            return
        tracer = self.tracer
        if tracer.active:
            ctx = tracer.context
            tracer.add(
                "fault:%s %s" % (kind, key),
                "fault",
                "faults",
                ctx.now(),
                0.0,
                args={"kind": kind, "key": str(key)},
                parent=ctx.parent_id,
            )

    def _begin(self, op, key):
        """The FaultPlan index of a new top-level ``op``; None without a plan."""
        return self.faults.begin_op(self, op, key) if self.faults is not None else None

    def _retry_wait(self, attempt):
        """Simulated seconds lost to one failed attempt: the sender waits
        out the op timeout, then backs off before resending."""
        return self.retry.timeout_s + self.retry.backoff(attempt)

    def _timeout(self, key, op, receipt):
        self.faults.stats.timeouts += 1
        self._observe_fault("timeout", key)
        raise OpTimeoutError(key, op, self.retry.max_retries + 1, receipt)

    def _attempt_lost(self, attempt, receipt, read):
        """Attempt ``attempt``'s copy was lost (dropped, or its receiver
        crashed): charge ``receipt`` the disk read of the ``read`` bytes it
        carried plus the wait, and say whether a retry remains."""
        receipt.duration_s += self.cost.disk_read_time(read) + self._retry_wait(attempt)
        return attempt < self.retry.max_retries

    def _delayed_or_duplicated(self, fate, key, receipt, category, nbytes):
        """The two fates of a message that did arrive.  A delay costs
        ``delay_s``.  A duplicate is a second copy on the wire, so the
        meter counts it, but delivery is idempotent (the receiver absorbs
        it) and the op sent those bytes once: the receipt is not billed."""
        if fate == "delay":
            self._observe_fault("delay", key)
            receipt.duration_s += self.faults.delay_s
        elif fate == "duplicate":
            self._observe_fault("duplicate", key)
            self.meter.record(category, nbytes)

    def _deliver(
        self, op, key, idx, point, send, land, lost, category="postings",
        src=None, located=None,
    ):
        """Send one message of ``op`` until a copy arrives: the one loop
        that delivers every message of the API.

        The caller says what a copy is.  ``send(attempt)`` puts one on the
        wire, meters it, bills it to ``lost`` and returns ``(applier,
        nbytes, read, crashed)``: the node that must apply the copy and
        can crash before it does (a write's owner; never ``src``), or None;
        what a duplicate adds to the meter under ``category``; the bytes
        the sender read from disk for it; and whether the receiver died
        mid-copy (a stream holder after chunk *i*).  ``land()`` charges
        the copy that arrived and returns the op's receipt when that is not
        ``lost``; the loop returns the op's receipt.

        Without a FaultPlan the first copy lands.  Under one, each copy
        draws the fate of ``point``: ``"request"``, ``"response"``,
        ``"batch"``, or a pushed copy's index in the replica set.  A lost
        copy (dropped, or its receiver crashed) costs ``lost`` its disk
        read plus ``timeout + backoff`` and is sent again.  Once retries run out the op raises
        :class:`~repro.faults.OpTimeoutError` with ``lost``, folded into
        ``located`` (the receipt of the op's earlier locate) when given;
        a backup is given up silently instead (None), as the write quorum
        decides."""
        applier, nbytes, read, crashed = send(0)
        if self.faults is None:
            return land() or lost
        plan = self.faults
        attempt = 0
        while True:
            if crashed:
                plan.stats.retries += 1
            else:
                if isinstance(point, int):
                    fate = plan.replica_fate(idx, attempt, point)
                else:
                    fate = plan.message_fate(idx, attempt, point)
                if fate == "drop":
                    self._observe_fault("drop", key)
                elif applier is not None and plan.maybe_crash_owner(
                    self, idx, attempt, applier, protect=src
                ):
                    # the copy reached a receiver that died before
                    # applying it: lost, like a dropped one
                    plan.stats.retries += 1
                else:
                    break
            if not self._attempt_lost(attempt, lost, read):
                if isinstance(point, int):
                    return None
                self._timeout(key, op, lost if located is None else located.merge(lost))
            attempt += 1
            applier, nbytes, read, crashed = send(attempt)
        receipt = land() or lost
        self._delayed_or_duplicated(fate, key, receipt, category, nbytes)
        return receipt

    def _read_holder(self, key, owner, receipt, want="store"):
        """The node that serves a read of ``key`` routed to ``owner``: the
        balancer's pick, else ``owner``.

        Under an active FaultPlan the pick may be down (a stream's retry
        after its holder crashed) or lack the key (the routed owner may
        have inherited a crashed peer's key space before any repair ran).
        Like PAST, the read then probes the replica set (then the rest of
        the ring) for a live holder.  Each probe is a one-hop control round
        trip charged to ``receipt``.  Never a crashed node, even one whose
        disk still holds the key: when no alive node holds it, the alive
        owner of ``key`` serves an empty read."""
        holder = owner
        if self.balancer is not None:
            holder = self.balancer.read_holder(key, owner) or owner
        if self.faults is None:
            return holder

        def has(node):
            return key in (node.store if want == "store" else node.objects)

        if holder.alive and has(holder):
            return holder
        if owner.alive and has(owner):
            return owner
        for node in dict.fromkeys(self.replica_nodes(key) + self.alive_nodes()):
            if node is owner:
                continue
            self.meter.record("control", CONTROL_BYTES)
            receipt.request_bytes += CONTROL_BYTES
            receipt.duration_s += self.cost.transfer_time(CONTROL_BYTES, hops=1)
            if has(node):
                return node
        return owner if owner.alive else self.owner_of(key)

    def _joined(self, op, key):
        """``(data, receipt)`` of an in-flight ``op`` fetch of ``key`` this
        read joins, when a coalescer is installed and has one: same data,
        one fanned-out receipt, zero additional metered bytes or fault
        ops.  None: the read pays for its own transfer."""
        flight = self.coalescer.lookup(op, key) if self.coalescer is not None else None
        if flight is None:
            return None
        self.last_holder = None
        return flight.data, OpReceipt(duration_s=flight.receipt_s)

    def _served(self, op, src, key, receipt, payload, holder, data=None):
        """The end of every read ``holder`` answered: the op span, the
        holder in :attr:`last_holder` and in the load ledger.  A read of a
        key's whole list (``data``, what the caller returns) may also
        promote the key, and registers a flight later reads can join."""
        self._observe_op(op, src, key, receipt, payload, holder.peer_index)
        self.last_holder = holder
        if self.balancer is not None:
            self.balancer.on_read(key, holder, payload, promote=data is not None)
        if data is not None and self.coalescer is not None:
            self.coalescer.register(op, key, data, payload, receipt.duration_s)

    # -- the DHT API -----------------------------------------------------------------

    def _meter_route(self, category, nbytes, hops, receipt, applies=True):
        """A request of ``nbytes`` walked ``hops`` overlay hops: meter
        ``nbytes × max(1, hops)`` under ``category`` and bill ``receipt``
        the hops and the same bytes (a lookup, ``applies=False``, bills
        the envelope once).  Returns the bytes on the wire."""
        wire = nbytes * max(1, hops)  # multi-hop routed request
        self.meter.record(category, wire)
        receipt.hops += hops
        receipt.request_bytes += wire if applies else nbytes
        return wire

    def ship(
        self, key, nbytes, category, receipt=None, hops=None, fanout=1,
        billed="request_bytes",
    ):
        """Send one message of ``nbytes`` about ``key`` between two peers:
        the one call every layer above the DHT sends with.  Meters it under
        ``category`` and returns its seconds; with ``receipt``, also bills
        them there with its bytes (to the field ``billed``) and hops.

        A direct send takes one hop; ``hops`` routes it over that many,
        ``nbytes × max(1, hops)`` on the wire.  ``fanout`` copies go out at
        once (a broadcast): one meter record, the seconds of one copy; a
        broadcast to nobody puts nothing on the wire.
        Under a FaultPlan the message is numbered apart from the ops and
        :meth:`_deliver` draws its fate: a lost copy is metered and billed
        too, costs ``timeout + backoff`` and is resent alone, and a
        duplicate is one more copy."""
        span = 1 if hops is None else max(1, hops)
        copy = nbytes * span

        def send(attempt):  # the first send carries every copy, a resend one
            sent = nbytes * fanout if hops is None and not attempt else copy
            if fanout:
                self.meter.record(category, sent)
            if receipt is not None:
                receipt.hops += hops or 0
                setattr(receipt, billed, getattr(receipt, billed) + sent)
            return None, copy, 0, False

        seconds = self.cost.transfer_time(nbytes, hops=span)
        if self.faults is None or not fanout:  # a broadcast to nobody can't be lost
            send(0)
        else:  # the copy that arrives is charged below, with what was lost
            lost = self._deliver(
                "ship", key, self.faults.begin_message(), "request", send,
                lambda: None, OpReceipt(), category, located=receipt,
            )
            seconds += lost.duration_s
        if receipt is not None:
            receipt.duration_s += seconds
        return seconds

    def transfers(self, slots=None):
        """A :class:`Transfers` schedule into one peer with ``slots``
        ingress slots (default: what its ingress absorbs at egress rate)."""
        if slots is None:
            params = self.cost.params
            slots = max(1, int(params.ingress_bw / params.egress_bw))
        return Transfers(self, slots)

    def _deliver_request(self, op, src, key, category, nbytes, idx, applies=True):
        """Route a request of ``nbytes`` to ``key``'s owner until it arrives.

        Each copy walks the overlay and puts ``nbytes × hops`` on the wire;
        a resend re-routes (to the successor of an owner that crashed).  A
        request that ``applies`` bills the receipt per hop like the wire,
        and its owner may crash before applying it; a lookup (``locate``)
        only asks, and bills the envelope once per copy.  Returns
        ``(owner, receipt)``."""
        receipt = OpReceipt()
        owner = hops = None

        def send(attempt):
            nonlocal owner, hops
            owner, hops = self.route(src, key, fault_idx=idx)
            wire = self._meter_route(category, nbytes, hops, receipt, applies)
            return owner if applies else None, wire, 0, False

        def land():
            receipt.duration_s += self.cost.transfer_time(nbytes, hops=max(1, hops))

        self._deliver(op, key, idx, "request", send, land, receipt, category, src)
        return owner, receipt

    def _deliver_response(self, op, src, key, idx, located, serve, chunk_postings=None):
        """Ship a posting list back over a direct connection until it
        arrives; ``located`` is the receipt so far.

        ``serve()`` names the holder and reads its list, once per copy, so
        a lost copy also wasted that disk read.  With ``chunk_postings``
        the list streams in chunks: the holder may die after chunk *i*,
        leaving the chunks received as wasted traffic (the client times
        out waiting for the next one and asks ``serve()`` again), and the
        receipt's time covers only the first chunk.  Returns ``(holder,
        data, payload, receipt)``: ``data`` is the list or its chunks."""
        extra = OpReceipt()  # every copy's bytes, the lost copies' time
        holder = data = payload = first = None

        def send(attempt):
            nonlocal holder, data, payload, first
            holder, data = serve()
            crash_at = None
            if chunk_postings is None:
                payload = first = encoded_size(data)
            else:
                data = list(data.chunks(chunk_postings)) if len(data) else []
                if self.faults is not None:
                    crash_at = self.faults.crash_chunk_index(
                        self, idx, attempt, len(data), holder, protect=src
                    )
                sent = data if crash_at is None else data[: crash_at + 1]
                payload = sum(map(encoded_size, sent))
                first = encoded_size(data[0]) if data else 0
            self.meter.record("postings", payload)
            extra.response_bytes += payload
            return None, payload, payload, crash_at is not None

        def land():  # time to first data, then what the lost copies cost
            took = located.duration_s + self.cost.disk_read_time(first)
            took += self.cost.transfer_time(first, hops=1)
            took += extra.duration_s
            return OpReceipt(located.hops, located.request_bytes, extra.response_bytes, took)

        receipt = self._deliver(op, key, idx, "response", send, land, extra, located=located)
        return holder, data, payload, receipt

    def locate(self, src, key, _observe=True, _fault_idx=None):
        """``locate(k)``: the node in charge of ``k`` plus a receipt.

        ``_observe=False`` suppresses the tracer's op span — used by the
        compound ops (``get``/``pipelined_get``/``get_object``) that embed
        a locate, so each logical operation traces exactly once."""
        idx = self._begin("locate", key) if _fault_idx is None else _fault_idx
        owner, receipt = self._deliver_request(
            "locate", src, key, "control", CONTROL_BYTES, idx, applies=False
        )
        if _observe:
            self._observe_op("locate", src, key, receipt)
        return owner, receipt

    def append(self, src, key, postings):
        """The one routed write: the postings ride the routed request,
        charged ``payload × hops``, and the owner's store unions them into
        the key (linear on the B+-tree and LSM stores, a read-reconcile-
        rewrite on the PAST-style one)."""
        postings = PostingList.of(postings)
        idx = self._begin("append", key)
        payload = encoded_size(postings)
        owner, receipt = self._deliver_request("append", src, key, "postings", payload, idx)
        self._apply(owner, key, postings, payload, receipt, idx)
        self._observe_op("append", src, key, receipt, payload=payload)
        return receipt

    def append_batch(self, src, key, postings):
        """Bulk-publish insert: one amortized ``locate``, then the whole
        batch in a single direct transfer to the located owner.

        The routed ``append`` charges ``payload × hops`` wire bytes because
        the postings ride the lookup; the bulk pipeline instead resolves the
        owner once (control bytes × hops) and ships the batch point-to-point,
        charged like the pipelined ops at ``payload × 1``.  Store effects are
        identical to :meth:`append` of the same postings — only the wire
        charging and the message count differ.

        Under an active FaultPlan the direct transfer draws its own fates
        (point ``"batch"``, apart from the locate's ``"request"``): it can
        be dropped (resend after backoff), or the owner can crash before
        applying it (the retry re-routes to the successor, charging a
        fresh control round)."""
        postings = PostingList.of(postings)
        idx = self._begin("append_batch", key)
        payload = encoded_size(postings)
        owner, receipt = self.locate(src, key, _observe=False, _fault_idx=idx)

        def send(attempt):
            nonlocal owner
            if not owner.alive:  # the last copy reached a dying owner
                owner, hops = self.route(src, key, fault_idx=idx)
                self._meter_route("control", CONTROL_BYTES, hops, receipt, applies=False)
                receipt.duration_s += self.cost.transfer_time(
                    CONTROL_BYTES, hops=max(1, hops)
                )
            self.meter.record("postings", payload)
            receipt.request_bytes += payload
            return owner, payload, 0, False

        def land():
            receipt.duration_s += self.cost.transfer_time(payload, hops=1)

        self._deliver("append_batch", key, idx, "batch", send, land, receipt, src=src)
        self._apply(owner, key, postings, payload, receipt, idx)
        self._observe_op("append_batch", src, key, receipt, payload=payload)
        return receipt

    def _apply(self, owner, key, postings, payload, receipt, idx):
        """Append a delivered write at ``owner`` under a fresh stamp, charge
        the store time to ``receipt``, and push it under the same stamp to
        the backups (billed to the op and shown to the balancer) and to any
        hot extra copies."""
        stamp = self.next_stamp()
        self.timed_store_op(receipt, owner.store, "append", key, postings)
        owner.versions[key] = stamp
        ledger = self.balancer.ledger if self.balancer is not None else None
        if ledger is not None:
            ledger.record_write(owner.peer_index, payload)

        def backup(node):
            node.store.append(key, postings)
            node.versions[key] = stamp
            if ledger is not None:
                ledger.record_write(node.peer_index, payload)

        pushed = OpReceipt()
        self._replicate(
            "replicate", key, idx, owner, self.replica_nodes(key), payload, backup,
            pushed, billed=True, located=receipt,
        )
        receipt.merge(pushed)
        extras = self.balancer.hot_copies(key) if self.balancer is not None else None
        if extras:
            # a hot key's extra copies take the write in the background,
            # like anti-entropy: not on the writer's receipt, and no quorum
            # (one that misses it keeps an older stamp, so reads skip it)
            self._replicate(
                None, key, idx, owner, extras, payload, backup, OpReceipt(), first=self.replication
            )

    def _replicate(
        self, op, key, idx, holder, nodes, payload, land_copy, receipt, billed=False,
        category="postings", first=0, located=None,
    ):
        """The replica-push path of every write: send ``payload`` bytes from
        ``holder`` to each other node of ``nodes``, ``land_copy(node)`` on
        arrival, and charge ``receipt`` one direct transfer per copy (with
        ``billed``, its bytes too, as request bytes).

        Under a FaultPlan the copy to ``nodes[i]`` draws the fate of point
        ``first + i`` until it is acknowledged or retries run out; a deaf
        node is left for :meth:`anti_entropy_repair`.  Fewer acks (the
        holder's own counted) than :attr:`write_quorum` of ``nodes`` raise
        :class:`~repro.faults.OpTimeoutError` for ``op`` with ``receipt``,
        folded into the op's ``located`` when given; ``op`` None has no
        quorum."""
        acks = 1

        def send(attempt):
            self.meter.record(category, payload)
            if billed:
                receipt.request_bytes += payload
            return None, payload, 0, False

        def land():
            land_copy(node)
            receipt.duration_s += self.cost.transfer_time(payload, hops=1)

        for point, node in enumerate(nodes, first):
            if node is holder:
                continue
            if self._deliver("replicate", key, idx, point, send, land, receipt, category):
                acks += 1
        if op is not None and self.faults is not None:
            copies = len(nodes)
            if acks < (copies if self.write_quorum == "all" else copies // 2 + 1):
                self._timeout(key, op, receipt if located is None else located.merge(receipt))

    def get(self, src, key):
        """Blocking ``get``: the full posting list, in one response."""
        joined = self._joined("get", key)
        if joined is not None:
            return joined
        idx = self._begin("get", key)
        owner, located = self.locate(src, key, _observe=False, _fault_idx=idx)
        holder = self._read_holder(key, owner, located)
        _, plist, payload, receipt = self._deliver_response(
            "get", src, key, idx, located, lambda: (holder, holder.store.get(key))
        )
        self._served("get", src, key, receipt, payload, holder, plist)
        return plist, receipt

    def block_get(self, src, key, postings, holder=None):
        """Receipt for a direct block transfer from a known holder.

        DPP block fetches skip the locate — the root block already names
        the holder via its pseudo-key — so the receipt charges exactly one
        disk read plus a single-hop transfer of the (possibly
        range-restricted) block payload.  Centralizing this here keeps the
        block-fetch accounting consistent with ``get``'s and gives block
        transfers their own op span in traces.  ``holder`` (when the
        caller knows it) attributes the read to the serving peer in the
        load ledger.  Blocks are never *promoted* here: a DPP read names
        its holder and so bypasses the read policy, which is what would
        route a read to a hot extra copy.
        """
        idx = self._begin("block_get", key)
        holder = holder or self.owner_of(key)
        _, _, payload, receipt = self._deliver_response(
            "block_get", src, key, idx, OpReceipt(), lambda: (holder, postings)
        )
        self._served("block_get", src, key, receipt, payload, holder)
        return receipt

    def pipelined_get(self, src, key, chunk_postings=1024):
        """Streamed ``get``: the list arrives in chunks.

        Returns ``(chunks, receipt)`` where ``chunks`` is a list of
        :class:`PostingList` pieces; the receipt's duration covers only the
        locate and the *first* chunk (time-to-first-data) — the query
        executor schedules the remaining chunks against link resources to
        model the pipeline.  Each copy of the stream chooses its holder
        afresh; a lost one, like ``get``'s, bills the bytes it sent and
        their disk read.
        """
        joined = self._joined("pipelined_get", key)
        if joined is not None:
            return joined
        idx = self._begin("pipelined_get", key)
        owner, located = self.locate(src, key, _observe=False, _fault_idx=idx)

        def serve():
            holder = self._read_holder(key, owner, located)
            return holder, holder.store.get(key)

        holder, chunks, total, receipt = self._deliver_response(
            "pipelined_get", src, key, idx, located, serve, chunk_postings
        )
        self._served("pipelined_get", src, key, receipt, total, holder, chunks)
        return chunks, receipt

    def delete(self, src, key, postings=None):
        """``delete(k, as)``: withdraw the run ``postings`` from ``key``,
        or the whole key when None.  Returns ``(removed, receipt)``:
        ``removed`` is what the owner's store removed (the number of
        postings; for a whole key, whether it held the key).

        A run is carried like :meth:`append`'s: one routed request of
        ``encoded_size(run)`` bytes, charged ``payload × hops``, which
        draws request fates and whose owner may crash before applying it.
        A whole-key drop only locates the owner.  Either way the delete is
        one write event under one fresh stamp.  The owner's store delete,
        the copies on the rest of the replica set and on the balancer's
        hot extra copies are neither metered, billed, timed nor ledgered:
        they stay outside the one wire (DESIGN.md "Write path")."""
        if postings is None:
            owner, receipt = self.locate(src, key, _observe=False)
            payload = 0
        else:
            postings = PostingList.of(postings)
            payload = encoded_size(postings)
            owner, receipt = self._deliver_request(
                "delete", src, key, "postings", payload, self._begin("delete", key)
            )
        stamp = self.next_stamp()
        removed = owner.store.delete(key, postings)
        owner.versions[key] = stamp
        for node in self.replica_nodes(key):
            if node is not owner:
                node.store.delete(key, postings)
                node.versions[key] = stamp
        if self.balancer is not None:
            self.balancer.propagate_delete(key, postings, stamp)
        self._observe_op("delete", src, key, receipt, payload=payload)
        return removed, receipt

    # -- small-object storage (DPP roots, catalog rows) --------------------------

    def put_object(self, src, key, obj, nbytes):
        """Store a small control object (replicated like postings)."""
        idx = self._begin("put_object", key)
        owner, receipt = self._deliver_request(
            "put_object", src, key, "control", nbytes, idx
        )
        stamp = self.next_stamp()

        def copy(node):
            node.objects[key] = (obj, nbytes)
            node.versions[key] = stamp

        replicas = self.replica_nodes(key)
        if owner in replicas:
            copy(owner)  # the request itself delivered the owner's copy
        self._replicate(
            "put_object", key, idx, owner, replicas, nbytes, copy, receipt, category="control"
        )
        self._observe_op("put_object", src, key, receipt, payload=nbytes)
        return receipt

    def get_object(self, src, key):
        idx = self._begin("get_object", key)
        owner, located = self.locate(src, key, _observe=False, _fault_idx=idx)
        holder = self._read_holder(key, owner, located, want="objects")
        entry = holder.objects.get(key)
        if entry is None:
            self._observe_op("get_object", src, key, located)
            return None, located
        obj, nbytes = entry
        self.meter.record("control", nbytes)
        receipt = OpReceipt(
            hops=located.hops,
            request_bytes=located.request_bytes,
            response_bytes=nbytes,
            duration_s=located.duration_s + self.cost.transfer_time(nbytes, hops=1),
        )
        self._served("get_object", src, key, receipt, nbytes, holder)
        return obj, receipt
