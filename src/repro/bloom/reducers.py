"""Bloom-based query evaluation strategies (Section 5.3).

All strategies run in two phases.  Phase 1: the peers owning the query's
posting lists exchange Structural Bloom Filters along the query twig and
reduce their lists.  Phase 2: the (reduced) lists are sent to the query
peer for the final holistic join.  The strategies differ in phase 1:

* **AB Reducer** — AB filters flow top-down: each peer filters its list by
  the filter of its (already reduced) parent and forwards a filter of the
  result to its children.  The root list travels unfiltered.
* **DB Reducer** — DB filters flow bottom-up: each inner node filters its
  list by the conjunction of its children's filters.  Leaf lists travel
  unfiltered.
* **Bloom Reducer** — the hybrid: AB filters top-down, then DB filters
  bottom-up over the already reduced lists.
* **Sub-query Reducer** — the paper's selectivity heuristic: apply the DB
  Reducer only to the root-to-leaf path through the smallest posting list,
  shipping every other list in its entirety (Section 5.4, Figure 7(c)).

Reduced lists are supersets of the postings that can contribute to the
query (the filters are one-sided), so the final join computes exactly the
same candidate documents as the unfiltered strategy.
"""

from repro.bloom.dyadic import level_for
from repro.bloom.structural import AncestorBloomFilter, DescendantBloomFilter
from repro.errors import ConfigError
from repro.postings.encoder import encoded_size
from repro.query.pattern import Axis

STRATEGIES = ("ab", "db", "bloom", "subquery")


class ReducerRun:
    """Mutable state of one strategy execution."""

    def __init__(self, system, component, src_peer):
        self.system = system
        self.component = component
        self.src_peer = src_peer
        self.nodes = component.nodes()
        self.keys = {}  # node_id -> the DHT key of its term
        self.lists = {}  # node_id -> current (possibly reduced) PostingList
        self.phase_time = 0.0

    def charge_filter(self, filter_obj, node_id):
        """Ship the filter built from ``node_id``'s list; returns its
        seconds."""
        return self.system.net.ship(self.keys[node_id], filter_obj.size_bytes, "filters")

    def cpu(self, npostings):
        return self.system.net.cost.join_time(npostings)


class BloomReducers:
    """Executes the four filtering strategies for the query executor."""

    def __init__(self, system):
        self.system = system

    # -- entry point used by QueryExecutor ------------------------------------

    def fetch_reduced(self, component, src_peer, strategy):
        """Returns ``(streams, fetch_time_s, time_to_first_s)``."""
        if strategy not in STRATEGIES:
            raise ConfigError("unknown filter strategy %r" % (strategy,))
        if self.system.config.use_dpp:
            raise ConfigError(
                "Bloom reducers and the DPP are separate techniques in the "
                "paper; enable one at a time"
            )
        run = ReducerRun(self.system, component, src_peer)
        self._load_lists(run)
        if strategy == "ab":
            self._ab_phase(run)
        elif strategy == "db":
            self._db_phase(run)
        elif strategy == "bloom":
            self._ab_phase(run)
            self._db_phase(run)  # over the AB-reduced lists
        else:
            self._subquery_phase(run)
        streams, transfer_time, ttfa = self._ship_to_query_peer(run)
        return streams, run.phase_time + transfer_time, run.phase_time + ttfa

    # -- shared plumbing ---------------------------------------------------------

    def _load_lists(self, run):
        """Read each node's full list at its owner (no network traffic yet)."""
        from repro.kadop.execution import term_key_of

        max_end = 1
        for node in run.nodes:
            key = term_key_of(node)
            owner = self.system.net.owner_of(key)
            plist = owner.store.get(key)
            run.keys[node.node_id] = key
            run.lists[node.node_id] = plist
            list_max = plist.max_end()
            if list_max > max_end:
                max_end = list_max
        run.level = level_for(max_end)

    def _or_self(self, node):
        return node.axis is Axis.DESCENDANT_OR_SELF

    def _ab_filter(self, run, node_id):
        return AncestorBloomFilter(
            run.lists[node_id],
            l=run.level,
            fp_rate=self.system.config.ab_fp_rate,
            seed=node_id + 1,
        )

    def _db_filter(self, run, node_id):
        return DescendantBloomFilter(
            run.lists[node_id],
            l=run.level,
            fp_rate=self.system.config.db_fp_rate,
            seed=node_id + 101,
        )

    # -- the strategies ----------------------------------------------------------

    def _levels_top_down(self, run):
        levels = []
        frontier = [run.component.root]
        while frontier:
            levels.append(frontier)
            frontier = [c for node in frontier for c in node.children]
        return levels

    def _ab_phase(self, run):
        """Figure 5: AB filters flow from the root toward the leaves."""
        for level_nodes in self._levels_top_down(run):
            level_time = 0.0
            for node in level_nodes:
                if node.parent is None:
                    continue
                abf = self._ab_filter(run, node.parent.node_id)
                build = run.cpu(len(run.lists[node.parent.node_id]))
                ship = run.charge_filter(abf, node.parent.node_id)
                probe = run.cpu(len(run.lists[node.node_id]))
                run.lists[node.node_id] = abf.filter_postings(
                    run.lists[node.node_id]
                )
                level_time = max(level_time, build + ship + probe)
            run.phase_time += level_time

    def _db_phase(self, run):
        """Figure 6: DB filters flow from the leaves toward the root, over
        ``run.lists`` as they stand."""
        for level_nodes in reversed(self._levels_top_down(run)):
            level_time = 0.0
            for node in level_nodes:
                node_time = 0.0
                for child in node.children:
                    dbf = self._db_filter(run, child.node_id)
                    build = run.cpu(len(run.lists[child.node_id]))
                    ship = run.charge_filter(dbf, child.node_id)
                    probe = run.cpu(len(run.lists[node.node_id]))
                    run.lists[node.node_id] = dbf.filter_postings(
                        run.lists[node.node_id], or_self=self._or_self(child)
                    )
                    node_time += build + ship + probe
                level_time = max(level_time, node_time)
            run.phase_time += level_time

    def _subquery_phase(self, run):
        """DB-reduce only the path through the smallest posting list."""
        leaves = [n for n in run.nodes if n.is_leaf]
        pivot = min(leaves, key=lambda n: len(run.lists[n.node_id]))
        path = []
        node = pivot
        while node is not None:
            path.append(node)
            node = node.parent
        # bottom-up along the chosen path only
        for child in path[:-1]:
            parent = child.parent
            dbf = self._db_filter(run, child.node_id)
            build = run.cpu(len(run.lists[child.node_id]))
            ship = run.charge_filter(dbf, child.node_id)
            probe = run.cpu(len(run.lists[parent.node_id]))
            run.lists[parent.node_id] = dbf.filter_postings(
                run.lists[parent.node_id], or_self=self._or_self(child)
            )
            run.phase_time += build + ship + probe

    # -- phase 2 ---------------------------------------------------------------------

    def _ship_to_query_peer(self, run):
        net = self.system.net
        schedule = net.transfers()
        hops = net.cost.expected_hops(len(net.alive_nodes()))
        ttfa = 0.0
        streams = {}
        for node in run.nodes:
            plist = run.lists[node.node_id]
            streams[node.node_id] = plist
            key = run.keys[node.node_id]
            seconds = net.ship(key, encoded_size(plist), "postings")
            schedule.transfer("ship:%d" % node.node_id, seconds, net.owner_of(key).peer_index)
            # a latency estimate, not a message: the first list starts one
            # routed 64 B request after phase 1, and that request is not
            # metered
            ttfa = max(ttfa, net.cost.transfer_time(64, hops=hops))
        makespan = schedule.run()
        return streams, makespan, ttfa
