"""Background key migration off overloaded peers.

One :meth:`Rebalancer.run_pass` per balance tick: peers whose decayed
load exceeds ``overload`` times the mean shed their hottest keys to the
coldest peers.  A migration moves a whole *alias group* — the term key
plus its ``dpproot:``/``dppdata:`` pseudo-keys, which
:func:`~repro.dht.replicas.routing_alias` pins to one placement — so a
term and its DPP root/first block never split across peers.

The move is the network's one hand-over rule
(:func:`~repro.dht.replicas.reconcile`: a target below the reference copy
gets it at its stamp, metered as wire traffic; a fresher target copy is
never overwritten), then :meth:`DhtNetwork.set_placement` redirects
ownership.  The old owner keeps its copy and stays in the replica set as
a backup, so no acked posting ever has fewer live copies after a
migration than before — the fuzzer's migration invariant.
"""

from dataclasses import dataclass, field

from repro.dht.replicas import reconcile, routing_alias

#: alias groups an overloaded peer sheds per pass
MAX_KEYS = 2


@dataclass
class RebalanceReport:
    """What one rebalance pass did."""

    overloaded: tuple = ()  # peer indices above the overload threshold
    migrations: int = 0  # alias groups re-placed
    keys_moved: int = 0  # store/object keys copied or re-owned
    bytes_moved: int = 0
    moved: list = field(default_factory=list)  # (alias, src_peer, dst_peer)


class Rebalancer:
    """Periodic overload-driven key migration; see the module docstring."""

    def __init__(self, net, ledger, overload=2.0):
        if overload <= 1.0:
            raise ValueError("overload factor must be > 1")
        self.net = net
        self.ledger = ledger
        self.overload = overload
        # cumulative counters for stats
        self.migrations = 0
        self.keys_moved = 0
        self.bytes_moved = 0

    def run_pass(self):
        """Migrate hot alias groups off peers above the overload line."""
        report = RebalanceReport()
        net = self.net
        alive = net.alive_nodes()
        if len(alive) < 2:
            return report
        loads = {n.peer_index: self.ledger.peer_load(n.peer_index) for n in alive}
        total = sum(loads.values())
        if total <= 0.0:
            return report
        threshold = self.overload * (total / len(alive))
        overloaded = sorted(
            (n for n in alive if loads[n.peer_index] > threshold),
            key=lambda n: (-loads[n.peer_index], n.peer_index),
        )
        report.overloaded = tuple(n.peer_index for n in overloaded)
        by_node = {id(n): n for n in alive}
        for node in overloaded:
            for alias, group, heat in self._hot_groups(node):
                target = self._pick_target(
                    alias, loads, avoid=node, by_node=by_node
                )
                if target is None:
                    continue
                moved_bytes = self._migrate(alias, group, target)
                report.migrations += 1
                report.keys_moved += len(group)
                report.bytes_moved += moved_bytes
                report.moved.append(
                    (alias, node.peer_index, target.peer_index)
                )
                # shift the moved heat in this pass's view of the world so
                # successive migrations do not all pile onto one cold peer
                loads[node.peer_index] -= heat
                loads[target.peer_index] += heat
        self.migrations += report.migrations
        self.keys_moved += report.keys_moved
        self.bytes_moved += report.bytes_moved
        return report

    def _hot_groups(self, node):
        """This peer's hottest owned alias groups, ``MAX_KEYS`` of them.

        Grouped by routing alias (heat = the group's summed key rates) so
        the whole co-located family moves together.  Membership is every
        key of the alias — cold alias-mates (e.g. the term key and DPP
        root of a family whose heat is all in its data blocks) must land
        on the target too, or the re-placed owner would serve gaps."""
        net = self.net
        groups = {}
        for key in sorted(net._all_keys()):
            alias = routing_alias(key)
            entry = groups.setdefault(alias, [0.0, []])
            entry[0] += self.ledger.key_rate(key)
            entry[1].append(key)
        ranked = sorted(
            (
                (heat, alias, keys)
                for alias, (heat, keys) in groups.items()
                if heat > 0.0 and net.owner_of(alias) is node
            ),
            key=lambda item: (-item[0], item[1]),
        )
        return [
            (alias, keys, heat)
            for heat, alias, keys in ranked[:MAX_KEYS]
        ]

    def _pick_target(self, alias, loads, avoid, by_node):
        """Coldest alive peer outside the group's replica set — and only
        if it is actually colder than the peer shedding the group."""
        net = self.net
        taken = {id(n) for n in net.replica_nodes(alias)}
        candidates = [
            n
            for n in net.alive_nodes()
            if id(n) not in taken and n is not avoid
        ]
        if not candidates:
            return None
        target = min(
            candidates, key=lambda n: (loads[n.peer_index], n.peer_index)
        )
        if loads[target.peer_index] >= loads[avoid.peer_index]:
            return None
        return target

    def _migrate(self, alias, group, target):
        """Land the group's reference copies on ``target``, then re-place.

        Each key is reconciled onto the target (:func:`reconcile`), and a
        posting-list copy is ledgered as a write there.  Ownership flips
        only after every key of the group has landed, so a reader never
        routes to a target that is still missing part of the family."""
        net = self.net
        moved_bytes = 0
        for key in group:
            for _, category, nbytes in reconcile(net, key, [target]):
                if category == "postings":
                    self.ledger.record_write(target.peer_index, nbytes)
                moved_bytes += nbytes
        net.set_placement(alias, target)
        return moved_bytes
