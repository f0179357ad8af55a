"""Seed-reproducible scenario fuzzer for the fault-injection layer.

Each iteration builds a fresh :class:`~repro.kadop.system.KadopNetwork`,
installs a :class:`~repro.faults.FaultPlan`, and drives a random
interleaving of publish / join / crash / restart / repair / query /
serve steps, checking the fault-tolerance invariants after every step
(the *serve* step pushes a burst of overlapping queries through the
concurrent serving engine — admission bound, coalescing on — and holds
each served query to the same soundness/completeness oracle as a serial
query):

* **durability** — every key belonging to an *acknowledged* publish has
  at least one alive holder (the DHT's "acknowledged writes survive up
  to replication-1 crashes" claim; the plan's ``max_crashed`` envelope
  is set to ``replication - 1`` so the claim is actually exercised);
* **soundness** — query answers are always a subset of the in-memory
  matcher oracle restricted to alive publishers (the document phase
  verifies the full pattern, so faults may lose answers but never
  invent them);
* **completeness** — when the report says ``complete`` (and no publish
  was itself cut short by a timeout), answers *equal* the oracle;
* **conservation** — under DPP, ``blocks_fetched + blocks_skipped``
  equals the number of data blocks across the query's terms, retries
  and unreachable holders notwithstanding;
* **repair honesty** — an anti-entropy pass never reports an
  acknowledged key as lost.

Everything is derived from ``random.Random(seed + iteration)`` plus the
plan's own BLAKE2-hashed decisions, so a failing run is replayed exactly
by the one-line command in the :class:`FuzzFailure` it raises::

    PYTHONPATH=src python -m repro fuzz --seed 1234 --iterations 1 ...
"""

import contextlib
import random
from dataclasses import dataclass, field, fields

from repro.errors import NoSuchPeerError
from repro.faults import FaultPlan, OpTimeoutError
from repro.index.publisher import extract_postings
from repro.kadop.config import KadopConfig
from repro.kadop.execution import term_key_of
from repro.kadop.system import KadopNetwork
from repro.kadop.verify import oracle_answers
from repro.query.index_plan import build_index_plan
from repro.views import is_view_key

#: small vocabularies keep term collisions (and therefore joins, splits,
#: and multi-holder keys) frequent at fuzzing scale
LABELS = "abcd"
WORDS = ("alpha", "beta", "gamma", "delta")


def _knob(default, help, choices=None):
    """A :class:`FuzzConfig` field; its metadata are the flag's argparse
    keywords beside type and default."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class FuzzConfig:
    """Knobs of one fuzzing campaign (one plan per iteration).

    Each field is one ``repro fuzz`` flag, named after the field except
    ``--peers``.  :func:`add_arguments`, :func:`config_from_args` and
    :func:`repro_command` derive the parser, the config and the replay
    line from these fields.  A step weight of 0 disables the step and
    replays campaigns from before it existed (see :meth:`_Iteration.run`).
    """

    iterations: int = _knob(
        20, "independent scenarios; seeds are seed..seed+iterations-1"
    )
    steps: int = _knob(12, "random actions per scenario")
    num_peers: int = _knob(8, "peers of each scenario's network at start")
    replication: int = _knob(
        3, "replication factor; at most replication-1 peers are down at once"
    )
    crash_rate: float = _knob(0.05, "chance that an op point crashes a peer")
    drop_rate: float = _knob(0.02, "chance that a message is dropped")
    delay_rate: float = _knob(0.02, "chance that a message is delayed")
    duplicate_rate: float = _knob(0.02, "chance that a message is duplicated")
    overlay: str = _knob("pastry", "routing overlay", ("pastry", "chord"))
    write_quorum: str = _knob(
        "all", "replica acks a write waits for", ("all", "majority")
    )
    serve_weight: int = _knob(1, "weight of the concurrent-serving burst step")
    hot_read_weight: int = _knob(1, "weight of the hot-read burst step")
    rebalance_weight: int = _knob(
        1, "weight of the balance-tick step (decay, demotion, one migration pass)"
    )
    store_backend: str = _knob(
        "btree",
        "per-peer storage backend (it draws no rng, so seeds replay on every"
        " backend)",
        ("btree", "naive", "lsm"),
    )
    bulk_publish_weight: int = _knob(1, "weight of the batched-publish burst step")
    unpublish_weight: int = _knob(
        1, "weight of the document-withdrawal step, which checks view freshness"
    )
    compact_weight: int = _knob(
        1, "weight of the LSM flush+fold step, which checks store invariants"
    )


def _flag(name):
    """The ``repro fuzz`` flag of :class:`FuzzConfig` field ``name``."""
    return "--peers" if name == "num_peers" else "--" + name.replace("_", "-")


def add_arguments(parser):
    """Add one flag per :class:`FuzzConfig` field to ``parser``."""
    for knob in fields(FuzzConfig):
        parser.add_argument(
            _flag(knob.name),
            dest=knob.name,
            type=knob.type,
            default=knob.default,
            **knob.metadata,
        )


def config_from_args(args):
    """The :class:`FuzzConfig` that :func:`add_arguments`' flags parsed to."""
    return FuzzConfig(
        **{knob.name: getattr(args, knob.name) for knob in fields(FuzzConfig)}
    )


class FuzzFailure(AssertionError):
    """An invariant violation, carrying its one-line repro command."""

    def __init__(self, seed, step, invariant, detail, command):
        self.seed = seed
        self.step = step
        self.invariant = invariant
        self.detail = detail
        self.command = command
        super().__init__(
            "seed %d step %d: %s (%s)\n  repro: %s"
            % (seed, step, invariant, detail, command)
        )


@dataclass
class FuzzResult:
    """Aggregate outcome of a passing campaign."""

    iterations: int = 0
    steps: int = 0
    actions: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    queries_checked: int = 0

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "steps": self.steps,
            "actions": dict(self.actions),
            "faults": dict(self.faults),
            "queries_checked": self.queries_checked,
        }


#: how :func:`repro_command` prints a knob of each field type
_FORMATS = {int: "%d", float: "%g", str: "%s"}


def repro_command(seed, cfg):
    """The one-line command that replays iteration ``seed`` exactly."""
    knobs = "".join(
        " %s %s"
        % (_flag(knob.name), _FORMATS[knob.type] % getattr(cfg, knob.name))
        for knob in fields(cfg)
        if knob.name != "iterations"
    )
    return (
        "PYTHONPATH=src python -m repro fuzz --seed %d --iterations 1%s"
        % (seed, knobs)
    )


def _random_xml(rng, depth=0):
    label = rng.choice(LABELS)
    if depth >= 2 or rng.random() < 0.4:
        words = " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, 3)))
        return "<%s>%s</%s>" % (label, words, label)
    inner = "".join(
        _random_xml(rng, depth + 1) for _ in range(rng.randrange(1, 3))
    )
    return "<%s>%s</%s>" % (label, inner, label)


def _random_query(rng):
    """A wildcard-free descendant path: one index component, precise."""
    return "//" + "//".join(
        rng.choice(LABELS) for _ in range(rng.randrange(1, 4))
    )


def _expected_blocks(system, pattern):
    """Data blocks the executor must account for, or None to skip.

    Mirrors ``_fetch_dpp``: any term whose root is missing or holds no
    condition-carrying entry makes the executor early-return with (0, 0).
    """
    total = 0
    keys = dict.fromkeys(
        term_key_of(node)
        for component in build_index_plan(pattern).components
        for node in component.nodes()
    )
    for key in keys:
        root = system.dpp._root_at(system.net.owner_of(key), key)
        entries = (
            []
            if root is None
            else [e for e in root.entries if e.condition is not None]
        )
        if not entries:
            return 0
        total += len(entries)
    return total


class _Iteration:
    """One seeded scenario: the action loop plus its invariant checks."""

    def __init__(self, seed, cfg, result):
        self.seed = seed
        self.cfg = cfg
        self.result = result
        self.rng = random.Random(seed)
        self.use_dpp = self.rng.random() < 0.5
        self.use_balance = cfg.hot_read_weight > 0 or cfg.rebalance_weight > 0
        balance_knobs = {}
        if self.use_balance:
            # gated draws: with both balance weights at 0 the rng stream
            # is untouched, so pre-balance corpus seeds replay exactly
            balance_knobs = dict(
                # a three-entry draw, so every later draw and the pinned
                # corpus seeds see the random stream they were found with
                read_policy=self.rng.choice(
                    ("owner", "least_loaded", "least_loaded")
                ),
                # tiny threshold: a couple of reads of any real posting
                # list promote it, so extra copies exist at fuzz scale
                hot_key_threshold=64,
                hot_key_copies=1,
            )
        self.use_updates = (
            cfg.bulk_publish_weight > 0
            or cfg.unpublish_weight > 0
            or cfg.compact_weight > 0
        )
        view_knobs = {}
        self.use_views = False
        if self.use_updates:
            # same gating trick: the views draw only happens when a
            # write-path action can run, so pre-write-path corpus seeds
            # replay exactly.  A tiny materialization threshold plus tiny
            # blocks means views actually form (and split) at fuzz scale;
            # cost-based choice stays off so a formed view is always the
            # serving path the freshness invariant exercises
            self.use_views = self.rng.random() < 0.5
            if self.use_views:
                view_knobs = dict(
                    use_views=True,
                    view_auto_materialize_after=2,
                    view_block_entries=2,
                    view_cost_based=False,
                )
        config = KadopConfig(
            replication=cfg.replication,
            overlay=cfg.overlay,
            write_quorum=cfg.write_quorum,
            use_dpp=self.use_dpp,
            dpp_block_entries=4,  # tiny blocks: splits happen at fuzz scale
            dpp_fetch_mode=self.rng.choice(("eager", "window", "lazy")),
            # tiny chunks: multi-chunk streams happen at fuzz scale, so
            # crash-mid-pipelined_get is actually reachable
            chunk_postings=self.rng.choice((2, 4, 2048)),
            store_backend=cfg.store_backend,
            max_inflight=2,  # act_serve's bursts queue and interleave
            **balance_knobs,
            **view_knobs,
        )
        self.system = KadopNetwork.create(
            num_peers=cfg.num_peers, config=config, seed=seed
        )
        self.plan = self.system.install_faults(
            FaultPlan(
                seed=seed,
                drop_rate=cfg.drop_rate,
                delay_rate=cfg.delay_rate,
                duplicate_rate=cfg.duplicate_rate,
                crash_rate=cfg.crash_rate,
                max_crashed=cfg.replication - 1,
                min_alive=2,
                restart_after_ops=25,
            )
        )
        self.acked = set()  # keys of acknowledged publishes
        self.exact = True  # False once a publish was cut short
        self.step = 0
        self.joined = 0
        self.served_coalesced = 0  # single-flight joins across serve bursts
        self.pruned_acked = 0  # durability claims ended by unpublish

    def fail(self, invariant, detail):
        raise FuzzFailure(
            self.seed,
            self.step,
            invariant,
            detail,
            repro_command(self.seed, self.cfg),
        )

    def _count(self, action):
        self.result.actions[action] = self.result.actions.get(action, 0) + 1

    # -- shared checks ---------------------------------------------------------

    @contextlib.contextmanager
    def _crashes_paused(self):
        """Pause the stochastic crash trigger; message faults stay live.

        Mid-query crashes are a different invariant regime (a half-read
        stream is indistinguishable from an incomplete answer), so every
        step that checks what a read returned runs inside this."""
        crash_rate = self.plan.crash_rate
        self.plan.crash_rate = 0.0
        try:
            yield
        finally:
            self.plan.crash_rate = crash_rate

    def _acked_write(self, write, *args, **kwargs):
        """Run one publish-like ``write``; if it is acknowledged, the keys
        it added join the durability set.

        A write cut short (a timeout, or its own peer crashed mid-write: a
        peer is protected only while it is the src of one op) adds none,
        and equality checks stand down.  Only *new* keys join: a snapshot
        diff cannot tell appends to old keys from keys an earlier cut-short
        write left unacked, and under-approximating raises no false alarm.
        View state never joins: it is single-copy, rebuildable cache that
        the view manager's integrity fallback defends, not replication."""
        before = self.system.net._all_keys()
        try:
            write(*args, **kwargs)
        except (OpTimeoutError, NoSuchPeerError):
            self.exact = False
            return
        self.acked |= {
            key
            for key in self.system.net._all_keys() - before
            if not is_view_key(key)
        }

    def _check_answers(self, label, pattern, answers, report, blocks=True):
        """Hold one query's answers to the oracle and count it checked.

        *Soundness*: no answer outside the oracle restricted to alive
        publishers.  *Completeness*: when the report says complete and no
        write was cut short, the answers equal the oracle.  With
        ``blocks``, *conservation*: under DPP, a base-index evaluation (a
        view-served query skips the index phase entirely) accounts for
        every data block of its terms.  ``label`` names the query in a
        failure's detail."""
        got = {a.bindings for a in answers}
        oracle = oracle_answers(self.system, pattern)
        phantom = got - oracle
        if phantom:
            self.fail(
                "phantom-answer",
                "%s returned %d binding(s) not in the oracle"
                % (label, len(phantom)),
            )
        if (
            self.exact
            and report.complete
            and not report.unreachable_keys
            and got != oracle
        ):
            self.fail(
                "missing-answers",
                "%s: %d answer(s), oracle has %d, report says complete"
                % (label, len(got), len(oracle)),
            )
        if (
            blocks
            and self.use_dpp
            and not report.view_hit
            and not report.unreachable_keys
        ):
            expected = _expected_blocks(self.system, pattern)
            if report.blocks_fetched + report.blocks_skipped != expected:
                self.fail(
                    "blocks-conservation",
                    "%s: fetched %d + skipped %d != %d blocks"
                    % (
                        label,
                        report.blocks_fetched,
                        report.blocks_skipped,
                        expected,
                    ),
                )
        self.result.queries_checked += 1

    # -- actions ---------------------------------------------------------------

    def _alive_peers(self):
        return [p for p in self.system.peers if p.node.alive]

    def act_publish(self):
        peer = self.rng.choice(self._alive_peers())
        xml = _random_xml(self.rng)
        self._acked_write(
            peer.publish, xml, uri="fuzz:%d:%d" % (self.seed, self.step)
        )

    def act_join(self):
        if len(self.system.peers) >= self.cfg.num_peers + 4:
            return
        self.joined += 1
        try:
            self.system.add_peer("kadop://fuzz%d/j%d" % (self.seed, self.joined))
        except OpTimeoutError:
            pass  # joined, but its catalog row (read by no answer) missed its quorum

    def act_crash(self):
        node = self.rng.choice(self.system.net.alive_nodes())
        if self.plan.may_crash(self.system.net, node):
            self.plan.crash(self.system.net, node)

    def act_restart(self):
        if self.plan.crashed:
            self.plan.restart(self.system.net, self.plan.crashed[0])

    def act_repair(self):
        report = self.system.repair()
        lost = set(report.lost_keys) & self.acked
        if lost:
            self.fail(
                "repair-lost-acked-key",
                "anti-entropy lost %s" % sorted(lost)[:3],
            )

    def act_query(self, query_text=None):
        query_text = query_text or _random_query(self.rng)
        pattern = self.system.parse(query_text)
        src = self.rng.choice(self._alive_peers())
        with self._crashes_paused():
            answers, report = self.system.query_with_report(
                query_text, peer=src
            )
        self._check_answers(query_text, pattern, answers, report)

    def act_serve(self):
        """A burst of overlapping queries through the serving engine.

        Exercises the shared-timeline replay, bounded admission, and
        single-flight coalescing *under message faults* (drops, delays,
        duplicates stay live; only the stochastic crash trigger pauses).
        Answers must be byte-identical to what a serial run of each query
        would return, so every served query faces the full oracle check."""
        from repro.kadop.serving import QueryArrival

        alive = self._alive_peers()
        arrivals = []
        for j in range(self.rng.randrange(2, 4)):
            arrivals.append(
                QueryArrival(
                    # near-simultaneous arrivals: with max_inflight=2 a
                    # 3-query burst actually queues and interleaves
                    arrival_s=j * 0.001,
                    query_text=_random_query(self.rng),
                    src=self.rng.choice(alive).index,
                )
            )
        with self._crashes_paused():
            result = self.system.serve(arrivals)
        self.served_coalesced += result.coalesced_hits
        for served in result.queries:
            self._check_answers(
                "served " + served.query_text,
                self.system.parse(served.query_text),
                served.answers,
                served.report,
            )

    def act_hot_read(self):
        """Hammer one acked key with direct gets under the read policy.

        Checks the staleness guarantee of the read fan-out: a fanned-out
        read must return exactly as many postings as the *routed* owner
        holds — a replica that missed a quorum write (shorter list, even
        at the owner's stamp) must never be chosen over it.  The baseline
        is the owner ``locate`` actually routed to, captured from the
        balancer's own pick call: under churn the overlay can route to a
        node ``owner_of`` disagrees with, and the legacy owner-only read
        would serve *that* node's copy — fan-out must never do worse.
        The repeated reads also heat the key toward hot-copy promotion."""
        net = self.system.net
        balance = self.system.balance
        candidates = sorted(
            key
            for key in self.acked
            if any(key in n.store for n in net.alive_nodes())
        )
        if not candidates:
            return
        key = self.rng.choice(candidates)
        src = self.rng.choice(self._alive_peers())
        routed = {}
        inner = balance.read_holder

        def capture(k, owner):
            routed[k] = owner
            return inner(k, owner)

        with self._crashes_paused():
            balance.read_holder = capture
            try:
                for _ in range(3):
                    try:
                        plist, _ = net.get(src.node, key)
                    except OpTimeoutError:
                        continue
                    owner = routed.get(key)
                    if (
                        owner is not None
                        and key in owner.store
                        and len(plist) != owner.store.count(key)
                    ):
                        self.fail(
                            "stale-read",
                            "%r: fanned-out get returned %d posting(s), the"
                            " routed owner holds %d"
                            % (key, len(plist), owner.store.count(key)),
                        )
            finally:
                balance.read_holder = inner

    def _best_copies(self):
        """Per acked key, the best alive ``(version, count)`` store copy."""
        best = {}
        for node in self.system.net.alive_nodes():
            for key in self.acked:
                if key not in node.store:
                    continue
                score = (node.versions.get(key, 0), node.store.count(key))
                if key not in best or score > best[key]:
                    best[key] = score
        return best

    def act_rebalance(self):
        """One balance tick, checked for *migration durability*: the best
        surviving ``(version, count)`` copy of every acked key must not
        regress across the tick — demotion and migration may drop or
        replace copies, but never the freshest."""
        before = self._best_copies()
        self.system.balance.tick()
        after = self._best_copies()
        for key, score in before.items():
            if after.get(key, (0, 0)) < score:
                self.fail(
                    "migration-lost-postings",
                    "%r: best copy regressed %r -> %r across a balance"
                    " tick" % (key, score, after.get(key)),
                )

    def act_bulk_publish(self):
        """A burst of documents through the batched publish pipeline.

        ``publish_batch`` buffers postings per destination key across the
        whole batch and ships them with one routed append per key — the
        same acknowledged-keys durability contract as doc-at-a-time
        publish, so the diffed keys join the durability set exactly like
        :meth:`act_publish`'s."""
        peer = self.rng.choice(self._alive_peers())
        count = self.rng.randrange(2, 5)
        xmls = [_random_xml(self.rng) for _ in range(count)]
        uris = [
            "fuzz:%d:%d:%d" % (self.seed, self.step, j) for j in range(count)
        ]
        # a batch cut short leaves its parsed documents registered on the
        # peer while some destination keys never got their postings
        self._acked_write(peer.publish_batch, xmls, uris=uris)

    def act_unpublish(self):
        """Withdraw one published document and hold views to freshness.

        The withdrawn document's own term keys may legitimately vanish
        from the DHT (their last postings deleted), so exactly those keys
        leave the durability set when no alive holder remains — keys
        shared with other documents keep their postings and stay acked."""
        candidates = [p for p in self._alive_peers() if p.documents]
        if not candidates:
            return
        peer = self.rng.choice(candidates)
        doc_index = self.rng.choice(sorted(peer.documents))
        doc_keys = set(
            extract_postings(peer.documents[doc_index], peer.index, doc_index)
        )
        try:
            peer.unpublish(doc_index)
        except (OpTimeoutError, NoSuchPeerError):
            # deletes (or view maintenance) were cut short: the document
            # is already off the peer, stray tombstone-less postings may
            # linger, and a view may still hold the withdrawn postings —
            # the document phase keeps answers sound regardless
            self.exact = False
            self._prune_acked(doc_keys)
            return
        self._prune_acked(doc_keys)
        self._check_view_freshness(peer.index, doc_index)

    def _prune_acked(self, doc_keys):
        """End the durability claim for keys the unpublish emptied.

        Deletes rewrite the *routed owner's* copy and stamp it; replicas
        keep stale copies until anti-entropy pushes the deletion.  So a
        withdrawn-doc key whose owner no longer holds it is logically
        gone — counting its stale replica copies as "alive holders" would
        turn their later crashes into false durability alarms.  The check
        covers the physical keys derived from the doc's term keys too
        (``dppdata:<term>``, ``overflow:<seq>:<term>``)."""
        net = self.system.net

        def derived(key, term):
            return key == term or key == "dppdata:" + term or key.endswith(
                ":" + term
            )

        stale = set()
        for key in self.acked:
            if not any(derived(str(key), term) for term in doc_keys):
                continue
            owner = net.owner_of(key)
            if key not in owner.store and key not in owner.objects:
                stale.add(key)
        self.pruned_acked += len(stale)
        self.acked -= stale

    def _check_view_freshness(self, peer_index, doc_index):
        """Every materialized view must serve fresh answers after a delta.

        Queries each view's own pattern through the full path — which
        prefers the view — and checks that no answer binds the withdrawn
        document and that the view-served result still matches the
        oracle."""
        views = self.system.views
        if views is None:
            return
        src = self.rng.choice(self._alive_peers())
        with self._crashes_paused():
            for view in list(views.catalog().values()):
                if not view.materialized:
                    continue
                try:
                    answers, report = self.system.executor.run(
                        view.pattern, src
                    )
                except (OpTimeoutError, NoSuchPeerError):
                    continue
                withdrawn = [
                    answer
                    for answer in answers
                    if any(
                        p.peer == peer_index and p.doc == doc_index
                        for _nid, p in answer.bindings
                    )
                ]
                if withdrawn:
                    self.fail(
                        "view-stale-answer",
                        "view %s still answers with withdrawn doc (%d, %d)"
                        % (view.canonical, peer_index, doc_index),
                    )
                # no blocks check: a view that falls back to the base
                # index would face block conservation here for the first
                # time and move fuzz outcomes
                self._check_answers(
                    "view %s after unpublish" % view.canonical,
                    view.pattern,
                    answers,
                    report,
                    blocks=False,
                )

    def act_compact(self):
        """Flush + fold one LSM store; content must survive the fold.

        Snapshots every term's reconstructed posting list, forces a flush
        and one compaction step, then re-runs the store's own layer
        invariants and diffs the content — a fold that drops, resurrects,
        or reorders postings fails here long before a query would notice."""
        stores = [
            node.store
            for node in self.system.net.alive_nodes()
            if hasattr(node.store, "compact_tick")
        ]
        if not stores:
            return
        store = self.rng.choice(stores)
        before = {
            term: [tuple(p) for p in store.get(term)] for term in store.terms()
        }
        store.flush()
        store.compact_tick()
        try:
            store.check_invariants()
        except AssertionError as exc:
            self.fail("store-invariants", str(exc))
        after = {
            term: [tuple(p) for p in store.get(term)] for term in store.terms()
        }
        if before != after:
            drift = sorted(
                term
                for term in set(before) | set(after)
                if before.get(term) != after.get(term)
            )
            self.fail(
                "compaction-content-drift",
                "flush+fold changed %d term(s), e.g. %s"
                % (len(drift), drift[:3]),
            )

    def check_durability(self):
        alive = self.system.net.alive_nodes()
        for key in self.acked:
            if not any(key in n.store or key in n.objects for n in alive):
                self.fail(
                    "acked-key-unavailable",
                    "%r has no alive holder (%d down)"
                    % (key, len(self.plan.crashed)),
                )

    # -- the scenario ----------------------------------------------------------

    def run(self):
        actions = (
            ("publish", self.act_publish, 4),
            ("query", self.act_query, 3),
            ("crash", self.act_crash, 1),
            ("restart", self.act_restart, 1),
            ("join", self.act_join, 1),
            ("repair", self.act_repair, 1),
            # last on purpose: with serve_weight=0 the cumulative-weight
            # table gains only a duplicate tail entry, so rng.choices
            # picks the exact same actions as a pre-serving campaign
            ("serve", self.act_serve, self.cfg.serve_weight),
            # same tail-entry trick as serve: at weight 0 these never win
            # a draw and consume no randomness, replaying old campaigns
            ("hot_read", self.act_hot_read, self.cfg.hot_read_weight),
            ("rebalance", self.act_rebalance, self.cfg.rebalance_weight),
            # write-path actions, same zero-weight-replay contract
            (
                "bulk_publish",
                self.act_bulk_publish,
                self.cfg.bulk_publish_weight,
            ),
            ("unpublish", self.act_unpublish, self.cfg.unpublish_weight),
            ("compact", self.act_compact, self.cfg.compact_weight),
        )
        names = [a[0] for a in actions]
        weights = [a[2] for a in actions]
        by_name = {a[0]: a[1] for a in actions}
        # seed content so the first queries have something to miss
        self.act_publish()
        self._count("publish")
        self.check_durability()
        for self.step in range(1, self.cfg.steps + 1):
            name = self.rng.choices(names, weights=weights)[0]
            self._count(name)
            by_name[name]()
            self.check_durability()
            self.result.steps += 1
        # convergence: once every peer is back and repair has run, a
        # fully-acknowledged corpus must answer exactly again
        self.step = self.cfg.steps + 1
        while self.plan.crashed:
            self.plan.restart(self.system.net, self.plan.crashed[0])
        self.act_repair()
        self.check_durability()
        for label in LABELS:
            self.act_query("//" + label)
        for key, value in self.plan.stats.to_dict().items():
            self.result.faults[key] = self.result.faults.get(key, 0) + value


def run_fuzz(seed=0, config=None, progress=None):
    """Run a campaign; returns :class:`FuzzResult` or raises the first
    :class:`FuzzFailure` (whose message carries the repro command)."""
    cfg = config or FuzzConfig()
    result = FuzzResult()
    for i in range(cfg.iterations):
        _Iteration(seed + i, cfg, result).run()
        result.iterations += 1
        if progress is not None:
            progress(seed + i, result)
    return result
