"""Tests for the load-balance subsystem (repro.balance).

The load-bearing guarantees:

* **Read-path staleness** — a fanned-out get never serves a replica
  whose copy differs from the routed owner's: same write-version stamp
  *and* same posting count, or the owner serves.  In particular a
  backup that missed a majority-quorum write is never chosen.
* **Byte-identical answers** — with default knobs the installed
  balancer is purely observational (meter snapshots equal a network
  with no balancer at all); with any knobs engaged, answers and reports
  still equal serial unbalanced execution.
* **Hot keys** — promotion lands byte-fresh extra copies on cold peers,
  writes propagate to them synchronously, decay demotes them — unless
  an extra has become the freshest surviving copy.
* **Rebalance** — migrations re-place whole alias groups onto colder
  peers, survive churn on Pastry and Chord, and revert silently when
  the placed node dies.
"""

import dataclasses
import random

import pytest

from repro.balance import LoadLedger
from repro.kadop.config import ConfigError, KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings.posting import Posting
from repro.workloads.dblp import DblpGenerator

QUERIES = (
    "//article//author",
    "//inproceedings//title",
    "//dblp//article//author",
)


def build_net(seed=3, num_peers=8, docs=8, **overrides):
    overrides.setdefault("replication", 2)
    config = KadopConfig(**overrides)
    net = KadopNetwork.create(num_peers=num_peers, config=config, seed=seed)
    gen = DblpGenerator(seed=7, target_doc_bytes=4_000)
    for i in range(docs):
        net.peers[i % num_peers].publish(gen.document(), uri="d:%d" % i)
    return net


def sig(answers):
    return [(a.peer, a.doc, repr(a.bindings)) for a in answers]


def load_up(net, *nodes):
    """Ledger more read load on ``nodes`` than any test's reads add, so a
    least-loaded read picks another fresh copy whenever one exists."""
    for node in nodes:
        net.balance.ledger.record_read("load", node.peer_index, 10**9)


def replicated_key(net, min_holders=2):
    """A store key with a full replica set of alive holders."""
    dht = net.net
    for key in sorted(dht._all_keys()):
        replicas = dht.replica_nodes(key)
        holders = [n for n in replicas if n.alive and key in n.store]
        if len(holders) >= min_holders and dht.owner_of(key) is holders[0]:
            return key
    raise AssertionError("no fully-replicated key in this corpus")


class TestLoadLedger:
    def test_rates_decay_and_prune(self):
        ledger = LoadLedger(decay=0.5)
        ledger.record_read("a", 0, 100)
        assert ledger.key_rate("a") == pytest.approx(100.0)
        ledger.tick()
        # the window folded into the decayed rate at full weight
        assert ledger.key_rate("a") == pytest.approx(100.0)
        ledger.tick()
        assert ledger.key_rate("a") == pytest.approx(50.0)
        # idle long enough: the entry decays below epsilon and is pruned
        for _ in range(60):
            ledger.tick()
        assert ledger.key_rate("a") == 0.0
        assert "a" not in ledger._key_rate

    def test_peer_load_counts_reads_and_writes(self):
        ledger = LoadLedger()
        ledger.record_read("a", 3, 100)
        ledger.record_write(3, 40)
        assert ledger.peer_load(3) == pytest.approx(140.0)
        assert ledger.peer_load(4) == 0.0

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            LoadLedger(decay=1.0)
        with pytest.raises(ValueError):
            LoadLedger(decay=-0.1)

    def test_equals_dict_based_reference_on_a_seeded_stream(self):
        """The Counter windows and decayed rates equal plain-dict ones."""
        rng = random.Random(29)
        ledger = LoadLedger(decay=0.5)
        # the reference: one plain dict per table, ``.get(k, 0) + n``
        key_rate, peer_rate, key_window, peer_window = {}, {}, {}, {}

        def bump(table, ident, amount):
            table[ident] = table.get(ident, 0) + amount

        for step in range(600):
            kind = rng.choice(["read"] * 5 + ["write"] * 4 + ["tick"])
            key, peer = "k%d" % rng.randrange(12), rng.randrange(6)
            nbytes = rng.choice([0, 1, 64, 5_000])
            if kind == "tick":
                ledger.tick()
                for rate, window in ((key_rate, key_window), (peer_rate, peer_window)):
                    for ident in list(rate):
                        decayed = rate[ident] * 0.5
                        if decayed < 1e-9 and ident not in window:
                            del rate[ident]
                        else:
                            rate[ident] = decayed
                    for ident, amount in window.items():
                        rate[ident] = rate.get(ident, 0.0) + amount
                    window.clear()
            elif kind == "read":
                ledger.record_read(key, peer, nbytes)
                bump(key_window, key, nbytes)
                bump(peer_window, peer, nbytes)
            else:
                ledger.record_write(peer, nbytes)
                bump(peer_window, peer, nbytes)

        for key in ["k%d" % i for i in range(12)]:
            assert ledger.key_rate(key) == key_rate.get(key, 0.0) + key_window.get(key, 0)
        for peer in range(6):
            assert ledger.peer_load(peer) == (
                peer_rate.get(peer, 0.0) + peer_window.get(peer, 0)
            )

    def test_looking_up_the_unseen_creates_no_entry(self):
        ledger = LoadLedger()
        ledger.record_read("a", 0, 100)
        assert ledger.key_rate("never") == 0.0
        assert ledger.peer_load(99) == 0.0
        assert "never" not in ledger._key_window
        assert 99 not in ledger._peer_window
        ledger.tick()
        assert ledger.key_rate("never") == 0.0
        assert ledger.peer_load(99) == 0.0
        assert ledger._key_rate == {"a": 100.0}
        assert ledger._peer_rate == {0: 100.0}


class TestConfigValidation:
    def test_bad_knobs_rejected(self):
        for bad in (
            {"read_policy": "fastest"},
            {"hot_key_threshold": 0},
            {"hot_key_copies": 0},
            {"rebalance_interval_s": 0.0},
            {"rebalance_overload": 1.0},
        ):
            with pytest.raises(ConfigError):
                KadopConfig(**bad)

    def test_knobs_survive_save_load(self, tmp_path):
        net = build_net(
            docs=2,
            read_policy="least_loaded",
            hot_key_threshold=500,
            rebalance_interval_s=0.5,
        )
        path = tmp_path / "net.json"
        net.save(path)
        loaded = KadopNetwork.load(path)
        assert loaded.config.read_policy == "least_loaded"
        assert loaded.config.hot_key_threshold == 500
        assert loaded.config.rebalance_interval_s == 0.5
        assert loaded.balance.read_policy == "least_loaded"


class TestReadPolicy:
    def test_owner_policy_never_fans_out(self):
        net = build_net()
        key = replicated_key(net)
        src = net.peers[0].node
        owner = net.net.owner_of(key)
        for _ in range(6):
            net.net.get(src, key)
            assert net.net.last_holder is owner
        assert net.balance.fanout_reads == 0

    def test_least_loaded_prefers_cold_then_low_index(self):
        net = build_net(read_policy="least_loaded")
        key = replicated_key(net)
        owner = net.net.owner_of(key)
        eligible = net.balance._eligible(key, owner)
        assert len(eligible) > 1
        # zero load everywhere: the tie breaks on peer index
        pick = net.balance.read_holder(key, owner)
        assert pick is min(eligible, key=lambda n: n.peer_index)
        # pile load onto that pick: the next read goes elsewhere
        net.balance.ledger.record_read(key, pick.peer_index, 10_000)
        other = net.balance.read_holder(key, owner)
        assert other is not pick

    def test_fanned_out_answers_equal_owner_copy(self):
        net = build_net(read_policy="least_loaded")
        key = replicated_key(net)
        src = net.peers[0].node
        owner = net.net.owner_of(key)
        load_up(net, owner)  # so that a replica is picked
        reference = owner.store.get(key)
        for _ in range(6):
            plist, _ = net.net.get(src, key)
            assert plist == reference
            assert net.net.last_holder is not owner
        # writes only the owner applied, of the same posting count: now
        # its stamp alone tells the stale replica copies apart
        owner.store.delete(key)
        owner.store.append(key, reference[1:])
        owner.store.append(key, [Posting(0, 99, 1, 2, 0)])
        owner.versions[key] = owner.versions.get(key, 0) + 1
        assert owner.store.count(key) == len(reference)
        plist, _ = net.net.get(src, key)
        assert plist == owner.store.get(key) != reference


class TestReadStaleness:
    """Regression: a backup that missed a quorum write is never chosen."""

    def _make_stale(self, net, key):
        """Give a non-owner replica a copy that *looks* current (same
        stamp) but misses a whole append batch — the shape a majority
        quorum leaves behind when the replica's delivery timed out."""
        dht = net.net
        owner = dht.owner_of(key)
        victim = next(
            n
            for n in dht.replica_nodes(key)
            if n is not owner and key in n.store
        )
        full = owner.store.get(key)
        assert len(full) >= 2
        victim.store.delete(key)
        victim.store.append(key, full[:-1])
        victim.versions[key] = owner.versions.get(key, 0)
        return owner, victim

    @pytest.mark.parametrize("policy", ["least_loaded"])
    def test_short_copy_at_owner_stamp_is_never_served(self, policy):
        net = build_net(read_policy=policy, write_quorum="majority")
        key = replicated_key(net)
        owner, victim = self._make_stale(net, key)
        src = net.peers[0].node
        for _ in range(8):
            plist, _ = net.net.get(src, key)
            assert len(plist) == owner.store.count(key)
            assert net.net.last_holder is not victim

    def test_old_stamp_is_never_served(self):
        net = build_net(read_policy="least_loaded")
        key = replicated_key(net)
        dht = net.net
        owner = dht.owner_of(key)
        victim = next(
            n
            for n in dht.replica_nodes(key)
            if n is not owner and key in n.store
        )
        load_up(net, owner)  # the victim is the coldest holder
        victim.versions[key] = owner.versions.get(key, 0) - 1
        src = net.peers[0].node
        for _ in range(8):
            dht.get(src, key)
            assert dht.last_holder is not victim


class TestHotKeys:
    def _hammer(self, net, key, reads=6):
        src = net.peers[0].node
        for _ in range(reads):
            net.net.get(src, key)

    def test_promotion_lands_fresh_copies_on_cold_peers(self):
        net = build_net(hot_key_threshold=100, hot_key_copies=2)
        key = replicated_key(net)
        dht = net.net
        owner = dht.owner_of(key)
        self._hammer(net, key)
        extras = net.balance.extras.get(key, [])
        assert 1 <= len(extras) <= 2
        assert net.balance.promotions == len(extras)
        replicas = {id(n) for n in dht.replica_nodes(key)}
        for node in extras:
            assert id(node) not in replicas
            assert node.store.get(key) == owner.store.get(key)
            assert node.versions[key] == owner.versions.get(key, 0)

    def test_writes_propagate_to_extras(self):
        net = build_net(hot_key_threshold=100, hot_key_copies=1)
        key = replicated_key(net)
        dht = net.net
        self._hammer(net, key)
        (extra,) = net.balance.extras[key]
        dht.append(net.peers[0].node, key, [Posting(0, 99, 1, 2, 0)])
        owner = dht.owner_of(key)
        assert extra.store.get(key) == owner.store.get(key)
        assert extra.versions[key] == owner.versions.get(key, 0)

    def test_extras_are_read_eligible(self):
        net = build_net(
            read_policy="least_loaded", hot_key_threshold=100, hot_key_copies=1
        )
        key = replicated_key(net)
        self._hammer(net, key, reads=12)
        (extra,) = net.balance.extras[key]
        load_up(net, *net.net.replica_nodes(key))  # so that the extra is picked
        served = set()
        src = net.peers[0].node
        for _ in range(8):
            net.net.get(src, key)
            served.add(net.net.last_holder.peer_index)
        assert extra.peer_index in served
        # an extra that missed a write keeps its old stamp and is skipped
        extra.versions[key] -= 1
        for _ in range(8):
            net.net.get(src, key)
            assert net.net.last_holder is not extra

    def test_decay_demotes_extra_copies(self):
        net = build_net(hot_key_threshold=100, hot_key_copies=1)
        key = replicated_key(net)
        self._hammer(net, key)
        (extra,) = net.balance.extras[key]
        for _ in range(30):  # idle ticks: the rate decays below exit
            net.balance.tick()
        assert key not in net.balance.extras
        assert key not in extra.store
        assert net.balance.demotions == 1

    def test_demotion_spares_the_freshest_surviving_copy(self):
        net = build_net(hot_key_threshold=100, hot_key_copies=1)
        key = replicated_key(net)
        self._hammer(net, key)
        (extra,) = net.balance.extras[key]
        # an acked write lands on the extra, then every replica holder
        # crashes before receiving it: the extra is now the freshest copy
        stamp = max(n.versions.get(key, 0) for n in net.net.alive_nodes()) + 1
        extra.store.append(key, [Posting(0, 98, 1, 2, 0)])
        extra.versions[key] = stamp
        for _ in range(30):
            net.balance.tick()
        # demotion must refuse to drop it
        assert key in extra.store
        assert extra.versions[key] == stamp


class TestRebalancer:
    def _heat_owner(self, net, reads=20):
        """Hammer every key of one owner so it crosses the overload bar;
        returns (owner, its alias groups)."""
        dht = net.net
        key = replicated_key(net)
        owner = dht.owner_of(key)
        src = net.peers[0].node
        for _ in range(reads):
            dht.get(src, key)
        return owner, key

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_migration_moves_ownership_to_colder_peer(self, overlay):
        net = build_net(overlay=overlay, rebalance_overload=1.2)
        owner, key = self._heat_owner(net)
        report = net.balance.tick()
        assert report.migrations >= 1
        from repro.dht.replicas import routing_alias

        alias = routing_alias(key)
        new_owner = net.net.owner_of(key)
        assert new_owner is not owner
        assert net.net.placement[alias] is new_owner
        # the whole group landed: the re-placed owner serves the key
        assert key in new_owner.store
        assert new_owner.store.get(key) == owner.store.get(key)

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_answers_survive_migration_and_churn(self, overlay):
        baseline = build_net(overlay=overlay)
        expected = [sig(baseline.query(q)) for q in QUERIES]
        net = build_net(overlay=overlay, rebalance_overload=1.2)
        self._heat_owner(net)
        report = net.balance.tick()
        assert report.migrations >= 1
        assert [sig(net.query(q)) for q in QUERIES] == expected
        # crash the migration target: placement reverts silently to the
        # hash owner (whose replica set still holds every copy).  The
        # reference is the identically-built baseline with the same peer
        # down — its documents' answers are legitimately gone on both
        alias, _src, dst = report.moved[0]
        target = net.net.placement[alias]
        assert target.peer_index == dst
        net.net.crash_node(target)
        assert net.net.owner_of(alias) is not target
        baseline.net.crash_node(baseline.peers[dst].node)
        src = net.peers[1 if dst == 0 else 0]  # a source that is still up
        bsrc = baseline.peers[src.index]
        crashed_expected = [sig(baseline.query(q, peer=bsrc)) for q in QUERIES]
        assert [
            sig(net.query(q, peer=src)) for q in QUERIES
        ] == crashed_expected
        # ... and the placement resumes when the target comes back
        net.net.restart_node(target)
        assert net.net.owner_of(alias) is target
        baseline.net.restart_node(baseline.peers[dst].node)
        assert [sig(net.query(q)) for q in QUERIES] == expected

    def test_no_migration_below_overload(self):
        net = build_net(rebalance_overload=100.0)
        self._heat_owner(net)
        report = net.balance.tick()
        assert report.migrations == 0
        assert net.net.placement == {}

    def test_serving_clock_drives_ticks(self):
        from repro.kadop.serving import QueryArrival

        net = build_net(
            rebalance_interval_s=0.05, rebalance_overload=1.2, coalesce_fetches=False
        )
        self._heat_owner(net)
        arrivals = [
            QueryArrival(arrival_s=0.2 + 0.2 * i, query_text=QUERIES[i % 3], src=0)
            for i in range(3)
        ]
        net.serve(arrivals)
        assert net.balance.rebalancer.migrations >= 1


class TestDifferential:
    """The installed-but-inert balancer is purely observational."""

    def _run(self, net):
        rows = []
        for q in QUERIES:
            answers, report = net.query_with_report(q, peer=net.peers[1])
            rows.append((sig(answers), dataclasses.asdict(report)))
        return rows

    def test_default_knobs_byte_identical_to_no_balancer(self):
        plain = build_net()
        plain.net.balancer = None  # rip the hook out entirely
        hooked = build_net()
        assert self._run(plain) == self._run(hooked)
        assert plain.net.meter.snapshot() == hooked.net.meter.snapshot()
        summary = hooked.balance.summary()
        assert summary["fanout_reads"] == 0
        assert summary["promotions"] == 0
        assert summary["migrations"] == 0

    @pytest.mark.parametrize(
        "knobs",
        [{"read_policy": "least_loaded", "hot_key_threshold": 200}],
        ids=["least-loaded-hot"],
    )
    def test_balanced_answers_equal_unbalanced(self, knobs):
        plain = build_net()
        expected = [sig(plain.query(q)) for q in QUERIES for _ in range(3)]
        net = build_net(**knobs)
        got = [sig(net.query(q)) for q in QUERIES for _ in range(3)]
        assert got == expected

    def test_served_reports_byte_identical_at_owner_fanout(self):
        from repro.kadop.serving import QueryArrival

        arrivals = [
            QueryArrival(arrival_s=0.01 * i, query_text=QUERIES[i % 3], src=i % 2)
            for i in range(6)
        ]
        plain = build_net()
        plain.net.balancer = None
        hooked = build_net()  # fan-out=owner: the default
        res_a = plain.serve(arrivals)
        res_b = hooked.serve(arrivals)
        assert res_a.to_dict() == res_b.to_dict()
        for qa, qb in zip(res_a.queries, res_b.queries):
            assert sig(qa.answers) == sig(qb.answers)
            assert dataclasses.asdict(qa.report) == dataclasses.asdict(qb.report)


class TestBalancerUnits:
    def test_summary_and_stats_surface(self):
        from repro.kadop.stats import format_stats, network_stats

        net = build_net(
            read_policy="least_loaded", hot_key_threshold=100, hot_key_copies=1
        )
        # the hot peers and keys are read off the span tree of the queries
        net.enable_tracing()
        for _ in range(8):
            net.query(QUERIES[0], peer=net.peers[0])
        stats = network_stats(net)
        assert stats["hot_peers"], "served reads must surface peer heat"
        assert stats["balance"]["read_policy"] == "least_loaded"
        assert stats["balance"]["fanout_reads"] == net.balance.fanout_reads
        assert set(stats["hot_keys"][0]) == {"key", "read_bytes"}
        text = format_stats(stats)
        assert "hottest peers" in text
        assert "balancing:" in text
