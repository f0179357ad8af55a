"""The KadoP network facade.

Wires the substrates together according to a
:class:`~repro.kadop.config.KadopConfig` and exposes publish/query.

>>> from repro.kadop.system import KadopNetwork
>>> net = KadopNetwork.create(num_peers=4)
>>> _ = net.peers[0].publish("<a><b>x y</b></a>", uri="u:1")
>>> [a.doc_id for a in net.query("//a//b")]
[(0, 0)]
"""

from repro.bloom.reducers import BloomReducers
from repro.dht.network import DhtNetwork
from repro.faults import RetryPolicy
from repro.fundex.index import FundexIndex
from repro.index.catalog import Catalog
from repro.index.dpp import DppIndex
from repro.index.publisher import Publisher
from repro.kadop.config import KadopConfig
from repro.kadop.execution import QueryExecutor
from repro.kadop.peer import KadopPeer
from repro.query.xpath import parse_query
from repro.sim.cost import CostModel
from repro.storage.clustered import ClusteredIndexStore
from repro.storage.lsm import LsmStore
from repro.storage.naive_store import NaiveGzipStore


#: ``KadopConfig`` fields of older checkpoints that are constants now (in
#: ``RetryPolicy``, ``LoadLedger``, ``Rebalancer``, ``DhtNetwork`` and
#: ``bloom.structural.PSI_C``)
RETIRED_CONFIG_KEYS = (
    "op_timeout_s", "retry_backoff_s", "retry_backoff_cap_s",
    "hot_key_decay", "rebalance_max_keys", "leaf_size", "psi_c",
)


class KadopNetwork:
    """A deployment of KadoP peers over one DHT ring."""

    def __init__(self, config=None):
        self.config = config or KadopConfig()
        from repro.postings import kernels

        kernels.apply_config(self.config.kernel_backend)
        store_factory = {
            "btree": ClusteredIndexStore,
            "naive": NaiveGzipStore,
            "lsm": LsmStore,
        }[self.config.store_backend]
        self.net = DhtNetwork(
            cost=CostModel(self.config.cost),
            replication=self.config.replication,
            overlay=self.config.overlay,
        )
        self.net.retry = RetryPolicy(max_retries=self.config.op_max_retries)
        self.net.write_quorum = self.config.write_quorum
        from repro.balance import LoadBalancer

        self.balance = LoadBalancer(
            self.net,
            read_policy=self.config.read_policy,
            hot_key_threshold=self.config.hot_key_threshold,
            hot_key_copies=self.config.hot_key_copies,
            rebalance_interval_s=self.config.rebalance_interval_s,
            rebalance_overload=self.config.rebalance_overload,
        )
        self.net.balancer = self.balance
        self._store_factory = store_factory
        self.catalog = Catalog(self.net)
        self.dpp = (
            DppIndex(
                self.net,
                max_block_entries=self.config.dpp_block_entries,
                ordered_splits=self.config.dpp_ordered_splits,
                replicate_after=self.config.dpp_replicate_after,
                replica_copies=self.config.dpp_replica_copies,
            )
            if self.config.use_dpp
            else None
        )
        self.publisher = Publisher(
            self.net,
            dpp=self.dpp,
            use_append=self.config.use_append,
            granularity=self.config.index_granularity,
            word_labels=self.config.word_index_labels,
        )
        self.reducers = BloomReducers(self)
        from repro.kadop.optimizer import StrategyOptimizer

        self.optimizer = StrategyOptimizer(self)
        self.fundex = FundexIndex(self)
        self.executor = QueryExecutor(self)
        from repro.views.manager import ViewManager

        self.views = ViewManager(self) if self.config.use_views else None
        self.peers = []
        self._resources = {}  # uri -> xml text (the "web" of includable data)
        self.tracer = None  # repro.obs.Tracer, via enable_tracing
        self.metrics = None  # repro.obs.MetricsRegistry, via enable_tracing
        self.telemetry = None  # repro.obs.TelemetrySampler, via enable_telemetry

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(cls, num_peers, config=None, seed=0):
        """Build a network of ``num_peers`` fresh peers.

        ``seed`` varies peer URIs (hence node placement) across runs."""
        system = cls(config)
        system._start_peers("kadop://s%d/p%d" % (seed, i) for i in range(num_peers))
        return system

    def _start_peers(self, uris):
        """Bring up the initial ring: one peer per URI, routing built once."""
        for uri in uris:
            node = self.net.add_node(uri, self._store_factory(), rebuild=False)
            self.peers.append(KadopPeer(self, len(self.peers), node))
        self.net._rebuild_routing()
        for peer in self.peers:
            self.catalog.register_peer(peer.node, peer.index, peer.uri)

    def add_peer(self, uri):
        node = self.net.add_node(uri, self._store_factory())
        peer = KadopPeer(self, len(self.peers), node)
        self.peers.append(peer)
        self.catalog.register_peer(node, peer.index, uri)
        return peer

    # -- intensional resources (Section 6) ------------------------------------

    def register_resource(self, uri, xml_text):
        """Make ``uri`` resolvable as include target / function result."""
        self._resources[uri] = xml_text

    def resolver(self, uri):
        return self._resources.get(uri)

    def fundex_register(self, peer, doc_index, document):
        """Hook called by peers when they publish intensional documents."""
        self.fundex.register_document(peer, doc_index, document)

    # -- observability (repro.obs) ---------------------------------------------

    def enable_tracing(self, tracer=None, metrics=None):
        """Attach a span tracer + metrics registry to this network.

        Tracing is strictly observational: every answer, simulated second,
        and metered byte is identical with it on or off (the differential
        test in ``tests/test_obs.py`` asserts this on Pastry and Chord).
        Returns the tracer.
        """
        from repro.obs import MetricsRegistry, Tracer

        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.net.tracer = self.tracer
        self.net.metrics = self.metrics
        self.net.meter.bind_metrics(self.metrics)
        return self.tracer

    def disable_tracing(self):
        """Detach the observers installed by :meth:`enable_tracing`."""
        self.tracer = None
        self.metrics = None
        self.net.tracer = None
        self.net.metrics = None
        self.net.meter.bind_metrics(None)

    def enable_telemetry(
        self,
        sampler=None,
        interval_s=None,
        slo_objective_s=None,
        slo_target=0.99,
        slo_window_s=0.5,
    ):
        """Attach a serving-clock telemetry sampler to this network.

        The next :meth:`serve` run installs the stock probe set on it
        (queue depth, per-peer ledger rates, wire bytes, ...), samples on
        the serving clock, and closes it out at the makespan.  Passing
        ``slo_objective_s`` also attaches an
        :class:`~repro.obs.slo.SLOTracker` fed from query completions.
        Like tracing, telemetry is strictly observational: every answer,
        simulated second, and metered byte is identical with it on or
        off (asserted in ``tests/test_telemetry.py``).  Returns the
        sampler.
        """
        from repro.obs.telemetry import DEFAULT_INTERVAL_S, TelemetrySampler

        if sampler is None:
            slo = None
            if slo_objective_s is not None:
                from repro.obs.slo import SLOTracker

                slo = SLOTracker(
                    slo_objective_s, target=slo_target, window_s=slo_window_s
                )
            sampler = TelemetrySampler(
                interval_s=(
                    DEFAULT_INTERVAL_S if interval_s is None else interval_s
                ),
                slo=slo,
            )
        self.telemetry = sampler
        return sampler

    # -- fault injection (repro.faults) -----------------------------------------

    def install_faults(self, plan):
        """Attach a :class:`~repro.faults.FaultPlan` to the deployment.

        Every DHT operation and fetch scheduler consults it from now on.
        Installing a plan with all rates at zero leaves answers, reports,
        and meter snapshots byte-identical to running without one (the
        differential test in ``tests/test_faults.py``).  Returns the plan.
        """
        self.net.faults = plan
        return plan

    def clear_faults(self):
        """Detach the plan installed by :meth:`install_faults`."""
        self.net.faults = None

    def repair(self):
        """Run one anti-entropy pass; returns the
        :class:`~repro.faults.RepairReport`."""
        return self.net.anti_entropy_repair()

    def crash_peer(self, peer):
        """Abruptly fail ``peer`` (disk kept, no handover)."""
        self.net.crash_node(peer.node)

    def restart_peer(self, peer):
        """Rejoin a crashed ``peer``, reconciling its stale state."""
        self.net.restart_node(peer.node)

    # -- queries ------------------------------------------------------------------

    def parse(self, query_text, keyword_steps=()):
        return parse_query(query_text, keyword_steps=keyword_steps)

    def query(self, query_text, keyword_steps=(), peer=None, strategy=None):
        """Run a query; returns the list of :class:`Answer`."""
        answers, _ = self.query_with_report(
            query_text, keyword_steps=keyword_steps, peer=peer, strategy=strategy
        )
        return answers

    def query_with_report(
        self, query_text, keyword_steps=(), peer=None, strategy=None
    ):
        """Run a query; returns ``(answers, QueryReport)``."""
        pattern = (
            query_text
            if hasattr(query_text, "root")
            else self.parse(query_text, keyword_steps)
        )
        src = peer or self.peers[0]
        return self.executor.run(pattern, src, strategy=strategy)

    def serve(self, arrivals, max_inflight=None, policy=None, coalesce=None):
        """Serve an open-loop query stream concurrently.

        ``arrivals`` is an iterable of
        :class:`~repro.kadop.serving.QueryArrival` (or ``(arrival_s,
        query_text[, keyword_steps[, src_peer_index]])`` tuples).  Queries
        run against one shared scheduler timeline — overlapping queries
        contend for per-peer links and CPU.  ``max_inflight`` / ``policy``
        / ``coalesce`` default to the config knobs when left at ``None``
        (``max_inflight=None`` therefore means "use the config bound";
        construct a :class:`~repro.kadop.serving.ServingEngine` directly
        to force unbounded admission over a bounded config).  Returns a
        :class:`~repro.kadop.serving.ServingResult`.
        """
        from repro.kadop.serving import _UNSET, ServingEngine

        engine = ServingEngine(
            self,
            max_inflight=_UNSET if max_inflight is None else max_inflight,
            policy=policy,
            coalesce=coalesce,
        )
        return engine.run(arrivals)

    def xquery(self, text, keyword_steps=(), peer=None, strategy=None):
        """Run a FLWOR query (the XQuery subset of Section 2).

        Returns ``(projected, report)`` where ``projected`` is the ordered,
        duplicate-free list of ``(peer, doc, Posting)`` bindings of the
        return expression."""
        from repro.query.xquery import compile_xquery

        compiled = compile_xquery(text, keyword_steps=keyword_steps)
        src = peer or self.peers[0]
        answers, report = self.executor.run(
            compiled.pattern, src, strategy=strategy
        )
        return compiled.project(answers), report

    # -- persistence -----------------------------------------------------------------

    def save(self, path):
        """Checkpoint the network to a JSON file.

        The checkpoint records the configuration, the registered
        intensional resources, and every published document (as XML text,
        in publish order).  :meth:`load` replays it deterministically —
        replay-based persistence keeps the on-disk format independent of
        every internal data structure."""
        import dataclasses
        import json

        from repro.xmldata.serializer import document_to_xml

        config = dataclasses.asdict(self.config)
        config["cost"] = dataclasses.asdict(self.config.cost)
        if config.get("word_index_labels") is not None:
            config["word_index_labels"] = sorted(config["word_index_labels"])
        docs = []
        for peer in self.peers:
            for doc_index in sorted(peer.documents):
                if doc_index in peer.functional_docs:
                    continue
                document = peer.documents[doc_index]
                docs.append(
                    {
                        "peer": peer.index,
                        "uri": document.uri,
                        "doc_type": document.doc_type,
                        "xml": document_to_xml(document),
                    }
                )
        state = {
            "format": 1,
            "num_peers": len(self.peers),
            "peer_uris": [p.uri for p in self.peers],
            "config": config,
            "resources": dict(self._resources),
            "documents": docs,
        }
        with open(path, "w") as handle:
            json.dump(state, handle)

    @classmethod
    def load(cls, path):
        """Rebuild a network from a :meth:`save` checkpoint."""
        import json

        from repro.sim.cost import CostParams

        with open(path) as handle:
            state = json.load(handle)
        if state.get("format") != 1:
            raise ValueError("unknown checkpoint format %r" % state.get("format"))
        config_dict = dict(state["config"])
        # a checkpoint from before ``store_backend`` was the only selector
        # carries the legacy ``store`` key, beside it or instead of it
        legacy_store = config_dict.pop("store", None)
        if legacy_store is not None:
            config_dict.setdefault("store_backend", legacy_store)
        for retired in RETIRED_CONFIG_KEYS:  # fields that became constants
            config_dict.pop(retired, None)
        config_dict["cost"] = CostParams(**config_dict["cost"])
        if config_dict.get("word_index_labels") is not None:
            config_dict["word_index_labels"] = frozenset(
                config_dict["word_index_labels"]
            )
        system = cls(KadopConfig(**config_dict))
        system._start_peers(state["peer_uris"])
        for uri, text in state["resources"].items():
            system.register_resource(uri, text)
        for entry in state["documents"]:
            system.peers[entry["peer"]].publish(
                entry["xml"], uri=entry["uri"], doc_type=entry["doc_type"]
            )
        return system

    # -- stats ----------------------------------------------------------------------

    @property
    def meter(self):
        return self.net.meter

    def document_count(self):
        return sum(len(p.documents) for p in self.peers)

    def __repr__(self):
        return "KadopNetwork(%d peers, %d docs)" % (
            len(self.peers),
            self.document_count(),
        )
