"""System configuration: every technique of the paper is a toggle here.

The defaults correspond to the *improved* KadoP of Section 3 (B+-tree
store, pipelined ``get``) without the optional techniques; the
experiment drivers flip individual switches to reproduce each comparison.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.sim.cost import CostParams


@dataclass
class KadopConfig:
    """Tunable knobs of a KadoP deployment.

    Section 3 (base system):

    ``store_backend``    the per-peer store: ``"btree"`` (BerkeleyDB
                         replacement), ``"naive"`` (PAST-style
                         read-modify-write store), or ``"lsm"`` (memtable +
                         sorted immutable runs with background compaction on
                         the serving clock).  Query answers are
                         byte-identical across backends — only the
                         store-time accounting differs.  Every index
                         write is an ``append``; on ``"naive"`` that is
                         the paper's quadratic ``put``
    ``pipelined_get``    stream posting lists instead of blocking ``get``
    ``chunk_postings``   pipeline chunk size, in postings

    Section 4 (DPP):

    ``use_dpp``              partition long posting lists across peers
    ``dpp_block_entries``    data-block capacity before a split
    ``parallelism``          K, the maximum degree of parallel block fetches
    ``dpp_ordered_splits``   False scatters split blocks randomly instead of
                             by range (the ablation the paper mentions)
    ``dpp_fetch_mode``       how the executor retrieves DPP blocks:
                             ``"eager"`` fetches every block of every term;
                             ``"window"`` applies the paper's single global
                             ``[min, max]`` document window; ``"lazy"``
                             (default) adds zone-map pruning and fetches
                             blocks on demand as the block-granular join
                             reaches their range

    Section 5 (Structural Bloom Filters):

    ``filter_strategy``      ``None``/``"ab"``/``"db"``/``"bloom"``/``"subquery"``,
                             ``"auto"`` (cost-based optimizer), or
                             ``"pushdown"`` (ship small lists to the longest
                             list's peer and join there — Section 4.2).
                             The reducers and pushdown need whole term
                             lists: a query raises ConfigError under the
                             DPP
    ``ab_fp_rate``           target basic false-positive rate of AB filters
    ``db_fp_rate``           target basic false-positive rate of DB filters

    Materialized views (:mod:`repro.views` — the caching layer Section 8
    gestures at with "reusing previously computed results"):

    ``use_views``                    consult the view rewriter before the
                                     index phase
    ``view_block_entries``           answer-block capacity before a split
    ``view_auto_materialize_after``  popularity threshold (queries of one
                                     canonical pattern) that triggers
                                     auto-materialization; None disables
    ``view_cost_based``              compare the view's stored bytes with
                                     the optimizer's base-index estimate
                                     and only serve from the view when it
                                     is cheaper (False forces view use)

    DHT:

    ``replication``      copies per key (fixed factor, set at network start)
    ``overlay``          ``"pastry"`` (the paper's PAST substrate) or
                         ``"chord"`` — the techniques only assume the
                         generic DHT interface of Section 2
    ``cost``             the calibrated :class:`CostParams`

    Concurrent serving (:mod:`repro.kadop.serving` — only consulted by
    :meth:`KadopNetwork.serve`; single-query runs ignore these):

    ``max_inflight``        admission-control bound on concurrently
                            executing queries; None admits every query the
                            instant it arrives (no queue); queued queries
                            are admitted in arrival order
    ``coalesce_fetches``    single-flight coalescing — concurrent queries
                            demanding the same term key / DPP block / view
                            block share one in-flight fetch

    Load balancing (:mod:`repro.balance` — the adaptive-redistribution
    layer; all defaults leave the balancer purely observational, so
    answers and receipts are byte-identical to the pre-balance path):

    ``read_policy``            how gets pick their serving replica:
                               ``"owner"`` (always the routed owner, the
                               original behaviour) or ``"least_loaded"``
                               (coldest provably-fresh copy by the
                               ledger's decayed byte rate)
    ``hot_key_threshold``      decayed read-byte rate above which a key
                               gets extra copies on cold peers beyond
                               ``replication``; None disables promotion
    ``hot_key_copies``         extra copies per hot key
    ``rebalance_interval_s``   simulated seconds between balance ticks of
                               the serving engine (decay + demotion + one
                               rebalancer pass); None disables the clock
    ``rebalance_overload``     a peer is overloaded when its decayed load
                               exceeds this multiple of the mean

    Fault tolerance (:mod:`repro.faults` — only observable when a
    FaultPlan is installed; all-zero-fault runs are byte-identical to the
    pre-fault code path):

    ``op_max_retries``      resends per op/replica before
                            :class:`~repro.faults.OpTimeoutError`
    ``write_quorum``        ``"all"`` (every replica must ack, the
                            original semantics) or ``"majority"``
                            (ack-on-quorum; stragglers are caught up by
                            anti-entropy repair)
    """

    store_backend: str = "btree"
    pipelined_get: bool = True
    chunk_postings: int = 2048

    use_dpp: bool = False
    dpp_block_entries: int = 1000
    parallelism: int = 8
    dpp_ordered_splits: bool = True
    dpp_fetch_mode: str = "lazy"

    filter_strategy: str = None
    ab_fp_rate: float = 0.20
    db_fp_rate: float = 0.01

    use_views: bool = False
    view_block_entries: int = 512
    view_auto_materialize_after: int = None
    view_cost_based: bool = True

    replication: int = 2
    overlay: str = "pastry"
    cost: CostParams = field(default_factory=CostParams)

    max_inflight: int = None
    coalesce_fetches: bool = True

    read_policy: str = "owner"
    hot_key_threshold: int = None
    hot_key_copies: int = 1
    rebalance_interval_s: float = None
    rebalance_overload: float = 2.0

    op_max_retries: int = 6
    write_quorum: str = "all"

    def __post_init__(self):
        if self.overlay not in ("pastry", "chord"):
            raise ConfigError("overlay must be 'pastry' or 'chord'")
        if self.store_backend not in ("btree", "naive", "lsm"):
            raise ConfigError(
                "store_backend must be 'btree', 'naive', or 'lsm', got %r"
                % (self.store_backend,)
            )
        if self.filter_strategy not in (
            None, "ab", "db", "bloom", "subquery", "auto", "pushdown"
        ):
            raise ConfigError("unknown filter strategy %r" % self.filter_strategy)
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.replication < 1:
            raise ConfigError("replication must be >= 1")
        if self.dpp_block_entries < 2:
            raise ConfigError("dpp_block_entries must be >= 2")
        if self.dpp_fetch_mode not in ("eager", "window", "lazy"):
            raise ConfigError(
                "dpp_fetch_mode must be 'eager', 'window', or 'lazy', got %r"
                % (self.dpp_fetch_mode,)
            )
        if self.view_block_entries < 1:
            raise ConfigError("view_block_entries must be >= 1")
        if (
            self.view_auto_materialize_after is not None
            and self.view_auto_materialize_after < 1
        ):
            raise ConfigError("view_auto_materialize_after must be >= 1 or None")
        if self.chunk_postings < 1:
            raise ConfigError("chunk_postings must be >= 1")
        if not 0 < self.ab_fp_rate < 1 or not 0 < self.db_fp_rate < 1:
            raise ConfigError("filter fp rates must be in (0, 1)")
        if self.write_quorum not in ("all", "majority"):
            raise ConfigError(
                "write_quorum must be 'all' or 'majority', got %r"
                % (self.write_quorum,)
            )
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ConfigError("max_inflight must be >= 1 or None")
        if self.read_policy not in ("owner", "least_loaded"):
            raise ConfigError(
                "read_policy must be 'owner' or 'least_loaded', got %r"
                % (self.read_policy,)
            )
        if self.hot_key_threshold is not None and self.hot_key_threshold < 1:
            raise ConfigError("hot_key_threshold must be >= 1 or None")
        if self.hot_key_copies < 1:
            raise ConfigError("hot_key_copies must be >= 1")
        if (
            self.rebalance_interval_s is not None
            and self.rebalance_interval_s <= 0
        ):
            raise ConfigError("rebalance_interval_s must be > 0 or None")
        if self.rebalance_overload <= 1.0:
            raise ConfigError("rebalance_overload must be > 1")
        if self.op_max_retries < 0:
            raise ConfigError("op_max_retries must be >= 0")
