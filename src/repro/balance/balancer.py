"""The :attr:`DhtNetwork.balancer` hook: read fan-out and hot copies.

Installed by :class:`~repro.kadop.system.KadopNetwork` on every
deployment.  With the default knobs (policy ``owner``, no hot-key
threshold, no rebalance interval) it only *observes* — every byte,
answer, and simulated second is identical to running without it (the
differential test in ``tests/test_balance.py``).  Three mechanisms
engage via config:

**Read fan-out** (``read_policy``): a get may be served by any member
of the key's replica set (plus its hot extra copies) instead of always
the owner.  A candidate is eligible only when its copy provably equals
the owner's — same write-version stamp *and* same posting count.
Versions alone are not enough: under a majority quorum a replica can
miss append *A*, then apply append *B* and land on the owner's stamp
while still lacking *A*'s postings; since replicas only ever miss whole
append batches (deliveries are idempotent and repair replaces copies
wholesale), an equal count at an equal version implies the identical
copy.  A replica that missed a quorum write is therefore never chosen
— the read falls back to the freshest copy (the owner), which is the
read-path staleness guarantee.

**Hot-key extra replication**: when a key's decayed read rate crosses
``hot_key_threshold``, its list is copied onto the coldest alive peers
outside the replica set.  Writes reach the extras through the DHT's
replica-push path (same stamp, metered as background replication like
anti-entropy, not charged to the writer's receipt), so extras stay
byte-fresh and eligible; one whose copy was lost under a fault plan keeps
its older stamp and is skipped by reads.  When the rate decays below
half the threshold the extra copies are dropped again — unless one holds
postings no other alive copy does (:func:`~repro.dht.replicas.redundant`)
or has joined the replica set through churn.

**Rebalance ticks**: :meth:`maybe_tick` advances on the serving
engine's shared clock; each tick decays the ledger, demotes cooled
keys, and runs one :class:`~repro.balance.rebalancer.Rebalancer` pass.
"""

from repro.balance.ledger import LoadLedger
from repro.balance.rebalancer import Rebalancer
from repro.dht.replicas import reconcile, redundant

#: float-comparison slack for simulated instants
_EPS = 1e-9


class LoadBalancer:
    """Per-network balancing state; see the module docstring."""

    def __init__(
        self,
        net,
        read_policy="owner",
        hot_key_threshold=None,
        hot_key_copies=1,
        rebalance_interval_s=None,
        rebalance_overload=2.0,
    ):
        self.net = net
        self.read_policy = read_policy
        self.hot_key_threshold = hot_key_threshold
        self.hot_key_copies = hot_key_copies
        self.rebalance_interval_s = rebalance_interval_s
        self.ledger = LoadLedger()
        self.rebalancer = Rebalancer(net, self.ledger, overload=rebalance_overload)
        self.extras = {}  # store key -> [nodes] holding extra hot copies
        self.promotions = 0
        self.demotions = 0
        self.fanout_reads = 0  # reads served by a non-owner copy
        self._next_tick = None

    # -- read path ---------------------------------------------------------

    def _eligible(self, key, owner):
        """Candidate holders whose copy equals the owner's, owner first."""
        version = owner.versions.get(key, 0)
        count = owner.store.count(key)
        candidates = [owner]
        seen = {id(owner)}
        for node in self.net.replica_nodes(key) + self.extras.get(key, []):
            if id(node) in seen:
                continue
            seen.add(id(node))
            if (
                node.alive
                and key in node.store
                and node.versions.get(key, 0) == version
                and node.store.count(key) == count
            ):
                candidates.append(node)
        return candidates

    def read_holder(self, key, owner):
        """The node that should serve this get, or None to fall back.

        ``owner`` is the routed owner.  Policy ``owner`` — or an owner
        that does not hold the key (a post-crash gap the fault layer's
        probe handles) — short-circuits to the legacy behaviour."""
        if self.read_policy == "owner":
            return owner
        if key not in owner.store:
            return None
        candidates = self._eligible(key, owner)
        if len(candidates) == 1:
            return owner
        pick = min(
            candidates,
            key=lambda n: (self.ledger.peer_load(n.peer_index), n.peer_index),
        )
        if pick is not owner:
            self.fanout_reads += 1
            self._observe("fanout", key)
        return pick

    def on_read(self, key, holder, nbytes, promote=True):
        """Ledger a served read; hot-key promotion rides the get path.

        ``promote=False`` for object and DPP-block reads: roots are tiny
        control objects, and a block read names its holder (the root's
        pseudo-key), bypassing the read policy that would route it to a
        hot extra copy — so an extra copy of a block would never be read."""
        self.ledger.record_read(key, holder.peer_index, nbytes)
        if promote and self.hot_key_threshold is not None:
            self._maybe_promote(key)

    # -- write path --------------------------------------------------------

    def hot_copies(self, key):
        """The alive extra copies of ``key``, which every write to it
        reaches too (:meth:`DhtNetwork._apply`); empty unless it is hot."""
        return [node for node in self.extras[key] if node.alive] if key in self.extras else ()

    def propagate_delete(self, key, postings, stamp):
        """Mirror a delete of the run ``postings`` (None: the whole key)
        onto the key's hot extra copies."""
        for node in self.extras.get(key, []):
            if node.alive and key in node.store:
                node.store.delete(key, postings)
                node.versions[key] = stamp

    # -- hot-key promotion / demotion -------------------------------------

    def _maybe_promote(self, key):
        net = self.net
        if self.ledger.key_rate(key) < self.hot_key_threshold:
            return
        existing = [
            n for n in self.extras.get(key, []) if n.alive and key in n.store
        ]
        want = self.hot_key_copies - len(existing)
        if want <= 0:
            self.extras[key] = existing
            return
        taken = {id(n) for n in net.replica_nodes(key)}
        taken.update(id(n) for n in existing)
        candidates = sorted(
            (
                n
                for n in net.alive_nodes()
                if id(n) not in taken and key not in n.store
            ),
            key=lambda n: (self.ledger.peer_load(n.peer_index), n.peer_index),
        )
        for node in candidates[:want]:
            copies = reconcile(net, key, [node])
            if not copies:
                return  # no alive node holds the list
            for _, _, nbytes in copies:
                self.ledger.record_write(node.peer_index, nbytes)
            existing.append(node)
            self.promotions += 1
            self._observe("promote", key)
        if existing:
            self.extras[key] = existing

    def _demote_cold(self):
        """Drop extra copies of keys whose read rate has decayed away."""
        if self.hot_key_threshold is None:
            return
        net = self.net
        exit_rate = self.hot_key_threshold * 0.5
        for key in sorted(self.extras):
            if self.ledger.key_rate(key) >= exit_rate:
                continue
            for node in self.extras.pop(key):
                if not node.alive or key not in node.store:
                    continue
                if node in net.replica_nodes(key):
                    continue  # churn made it a real replica: keep the copy
                if not redundant(net, key, node):
                    # this extra holds postings no other copy does — e.g.
                    # the owner crashed after an acked write only the extra
                    # received; it stays until repair catches the set up
                    continue
                node.store.delete(key)
                node.versions.pop(key, None)
                self.demotions += 1
                self._observe("demote", key)

    # -- rebalance clock ---------------------------------------------------

    def tick(self):
        """One balance round: decay rates, demote cooled keys, run a
        rebalance pass.  Returns the pass's
        :class:`~repro.balance.rebalancer.RebalanceReport`."""
        self.ledger.tick()
        self._demote_cold()
        report = self.rebalancer.run_pass()
        if report.migrations:
            self._observe("migrate", "%d keys" % report.keys_moved)
        return report

    def maybe_tick(self, now_s):
        """Advance the rebalance clock to ``now_s`` (serving engine hook)."""
        if not self.rebalance_interval_s:
            return
        if self._next_tick is None:
            self._next_tick = self.rebalance_interval_s
        while now_s + _EPS >= self._next_tick:
            self.tick()
            self._next_tick += self.rebalance_interval_s

    # -- introspection -----------------------------------------------------

    @property
    def extra_copies(self):
        return sum(len(nodes) for nodes in self.extras.values())

    def summary(self):
        """Flat counters for ``repro stats``."""
        return {
            "read_policy": self.read_policy,
            "fanout_reads": self.fanout_reads,
            "hot_keys": len(self.extras),
            "extra_copies": self.extra_copies,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "migrations": self.rebalancer.migrations,
            "keys_moved": self.rebalancer.keys_moved,
            "bytes_moved": self.rebalancer.bytes_moved,
        }

    def _observe(self, kind, key):
        """An instant span, like the fault layer's observer; the run's
        totals per kind are :meth:`summary`."""
        tracer = self.net.tracer
        if tracer is not None and tracer.active:
            ctx = tracer.context
            tracer.add(
                "balance:%s %s" % (kind, key),
                "balance",
                "balance",
                ctx.now(),
                0.0,
                args={"kind": kind, "key": str(key)},
                parent=ctx.parent_id,
            )
