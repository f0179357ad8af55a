"""Unit tests for the materialized-view subsystem (:mod:`repro.views`).

The differential integration suite proves view-served answers equal base
answers end to end; these tests pin down the pieces — canonical identity,
the containment test, block storage and splits, auto-materialization, the
cost-based choice, the stats surface, and the repeated-query workload.
"""

import pytest

from repro.faults import FaultPlan
from repro.kadop.config import KadopConfig
from repro.kadop.stats import network_stats
from repro.kadop.system import KadopNetwork
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.query.index_plan import build_index_plan
from repro.query.xpath import parse_query
from repro.views.definition import (
    ViewDefinition,
    block_key,
    canonical_pattern,
    view_id_of,
)
from repro.views.rewrite import equivalent, pick_view, subsumes, view_beats_base
from repro.workloads.profiles import (
    REPEATED_QUERY_PROFILES,
    QueryTrafficProfile,
    zipfian_query_workload,
)


def pat(text, keywords=()):
    return parse_query(text, keyword_steps=keywords)


class TestCanonicalForm:
    def test_deterministic(self):
        assert canonical_pattern(pat("//a//b")) == canonical_pattern(pat("//a//b"))

    def test_predicate_order_invariant(self):
        a = canonical_pattern(pat("//a[//b][//c]//d"))
        b = canonical_pattern(pat("//a[//c][//b]//d"))
        assert a == b

    def test_axes_distinguished(self):
        assert canonical_pattern(pat("//a/b")) != canonical_pattern(pat("//a//b"))

    def test_value_condition_in_identity(self):
        assert canonical_pattern(pat('//a[. = "x"]')) != canonical_pattern(
            pat("//a")
        )

    def test_view_id_is_stable_hex(self):
        canonical = canonical_pattern(pat("//a//b"))
        vid = view_id_of(canonical)
        assert vid == view_id_of(canonical)
        assert len(vid) == 16
        int(vid, 16)  # parses as hex

    def test_block_keys_scatter_by_seq(self):
        vid = view_id_of(canonical_pattern(pat("//a")))
        assert block_key(vid, 0) != block_key(vid, 1)
        assert vid in block_key(vid, 3)


class TestSubsumption:
    @pytest.mark.parametrize(
        "view,query",
        [
            ("//a//b", "//a/b"),  # descendant covers child
            ("//a//b", "//a//b//c"),  # prefix of a longer query
            ("//a", "//a[//b][//c]"),  # dropping predicates generalizes
            ("//*//b", "//a//b"),  # wildcard covers any label
            ("//a//b", "//a//b"),  # reflexive
            ("//b", "//a/b"),  # deeper embedding point
        ],
    )
    def test_subsumes(self, view, query):
        assert subsumes(pat(view), pat(query))

    @pytest.mark.parametrize(
        "view,query",
        [
            ("//a/b", "//a//b"),  # child does not cover descendant
            ("//a//b//c", "//a//b"),  # longer view, shorter query
            ("//a//b", "//a//c"),  # label mismatch
            ("//a//b", "//*//b"),  # label view vs wildcard query
            ('//a[. = "x"]', "//a"),  # value condition must reappear
        ],
    )
    def test_not_subsumes(self, view, query):
        assert not subsumes(pat(view), pat(query))

    def test_word_nodes(self):
        assert subsumes(pat("//a//red", ("red",)), pat("//a/b//red", ("red",)))
        assert not subsumes(pat("//a//red", ("red",)), pat("//a//blue", ("blue",)))

    def test_equivalent(self):
        assert equivalent(pat("//a[//b][//c]"), pat("//a[//c][//b]"))
        assert not equivalent(pat("//a//b"), pat("//a/b"))

    def test_pick_view_prefers_fewest_bytes(self):
        small, big = ViewDefinition(pat("//a")), ViewDefinition(pat("//b"))
        small.blocks.append(
            type("B", (), {"count": 1, "nbytes": 10, "key": "k"})()
        )
        big.blocks.append(type("B", (), {"count": 9, "nbytes": 90, "key": "k"})())
        assert pick_view([big, small]) is small


def build_net(num_docs=8, **config_kwargs):
    config = KadopConfig(replication=1, use_views=True, **config_kwargs)
    net = KadopNetwork.create(num_peers=6, config=config, seed=5)
    docs = [
        "<a><b> red </b><b> blue </b><c><b> green </b></c></a>",
        "<a><c><d> red </d></c></a>",
        "<e><a><b> blue </b></a></e>",
        "<a><b> cyan </b><b> red </b></a>",
    ]
    for i in range(num_docs):
        net.peers[i % 4].publish(docs[i % len(docs)], uri="u:%d" % i)
    return net


class TestMaterializeAndFetch:
    def test_roundtrip_multi_block(self):
        net = build_net(num_docs=8, view_block_entries=2)
        pattern = pat("//a//b")
        view, cost = net.views.materialize(pattern, net.peers[0])
        assert view is not None and view.materialized
        assert cost > 0.0
        assert len(view.blocks) > 1  # forced by the tiny block size
        merged, makespan, first, nbytes = net.views.store.fetch_all(
            net.peers[1].node, view
        )
        assert len(merged) == view.total_postings
        assert sorted(merged) == list(merged)  # (p, d, sid) order preserved
        assert 0.0 < first <= makespan
        assert nbytes == view.total_bytes

    def test_materialize_is_idempotent(self):
        net = build_net()
        view1, _ = net.views.materialize(pat("//a//b"), net.peers[0])
        view2, cost2 = net.views.materialize(pat("//a//b"), net.peers[1])
        assert view2 is view1
        assert cost2 == 0.0

    def test_base_cost_cached_at_materialization(self):
        net = build_net()
        view, _ = net.views.materialize(pat("//a//b"), net.peers[0])
        assert view.base_bytes is not None and view.base_bytes > 0

    def test_unindexable_pattern_refused(self):
        net = build_net()
        view, cost = net.views.materialize(pat("//*"), net.peers[0])
        assert view is None

    def test_maintenance_append_splits_blocks(self):
        net = build_net(num_docs=4, view_block_entries=2)
        view, _ = net.views.materialize(pat("//a//b"), net.peers[0])
        blocks_before = len(view.blocks)
        postings_before = view.total_postings
        # publish a heavy document: six distinct //a roots (the view keeps
        # root bindings, one per matching a-element) overflow the blocks
        net.peers[1].publish(
            "<r>%s</r>" % ("<a><b> red </b></a>" * 6), uri="u:heavy"
        )
        assert view.total_postings == postings_before + 6
        assert len(view.blocks) > blocks_before
        for block in view.blocks:
            holder = net.net.owner_of(block.key)
            assert holder.store.count(block.key) == block.count
            assert block.count <= net.config.view_block_entries

    def test_oversized_delta_is_cut_to_capacity(self):
        """The counterpart of ``test_dpp.py``'s pinned single split (see
        ROADMAP 6.4): a view block splits until every piece fits."""
        net = build_net(num_docs=4, view_block_entries=4)
        view, _ = net.views.materialize(pat("//a//b"), net.peers[0])
        before = view.total_postings
        delta = [Posting(9, 0, i, i + 1, 1) for i in range(1, 41)]
        net.views.store.append(net.peers[1].node, view, delta)
        assert view.total_postings == before + 40
        assert max(block.count for block in view.blocks) <= 4

    def test_split_charges_no_store_time_for_the_lower_half(self):
        """Pinned, see ROADMAP 6.4: a view split rewrites the lower half
        at its holder (a delete and an append, both disk work) and charges
        the receipt only for the upper half: its routed transfer and its
        append at the new holder.  The DPP split charges both halves."""
        net = build_net(num_docs=4, view_block_entries=4)
        view, _ = net.views.materialize(pat("//a//b"), net.peers[0])
        block = view.blocks[-1]
        src, dht = net.peers[1].node, net.net
        holder = dht.owner_of(block.key)
        holder.store.append(block.key, [Posting(9, 0, i, i + 1, 1) for i in (1, 3)])
        new_key = block_key(view.view_id, view.next_seq)
        new_holder, hops = dht.route(src, new_key)
        assert new_holder is not holder
        rewrite = holder.store.stats.snapshot()
        upper = new_holder.store.stats.snapshot()
        receipt = net.views.store._split_block(src, view, block, holder)
        assert holder.store.stats.delta_since(rewrite).cost_seconds(dht.cost) > 0
        assert receipt.duration_s == dht.cost.transfer_time(
            view.blocks[-1].nbytes, hops=max(1, hops)
        ) + new_holder.store.stats.delta_since(upper).cost_seconds(dht.cost)

    def test_unpublish_removes_exactly_the_doc(self):
        net = build_net(num_docs=4)
        view, _ = net.views.materialize(pat("//a//b"), net.peers[0])
        before = view.total_postings
        net.peers[1].publish(
            "<r><a><b> red </b></a><a><b> blue </b></a></r>", uri="u:x"
        )
        assert view.total_postings == before + 2
        doc_index = max(net.peers[1].documents)
        net.peers[1].unpublish(doc_index)
        assert view.total_postings == before
        assert net.views.maintenance_added == 2
        assert net.views.maintenance_removed == 2

    def test_lost_maintenance_message_dematerializes_the_view(self):
        net = build_net(num_docs=4, op_max_retries=0)
        view, _ = net.views.materialize(pat("//a//b"), net.peers[0])
        net.peers[1].publish("<r><a><b> red </b></a></r>", uri="u:x")
        doc_index = max(net.peers[1].documents)
        document = net.peers[1].documents[doc_index]
        # every message is lost from here: the delete's control message,
        # then the advertisement of the dematerialized view
        plan = net.install_faults(FaultPlan(seed=1, drop_rate=1.0))
        assert net.views.on_unpublish(net.peers[1], doc_index, document) == 0
        assert not view.materialized and view.blocks == []
        assert net.views.dematerializations == 1
        assert plan.stats.timeouts == 2


class TestAutoMaterialization:
    def test_threshold_counts_canonical_asks(self):
        net = build_net(view_auto_materialize_after=2, view_cost_based=False)
        _, r1 = net.query_with_report("//a//b")
        assert not r1.view_hit and not r1.view_materialized
        _, r2 = net.query_with_report("//a//b")
        assert r2.view_hit and r2.view_materialized
        _, r3 = net.query_with_report("//a//b")
        assert r3.view_hit and not r3.view_materialized
        assert net.views.materializations == 1
        assert net.views.hits == 2 and net.views.misses == 1

    def test_subsumed_query_hits_without_own_view(self):
        net = build_net(view_auto_materialize_after=1, view_cost_based=False)
        net.query("//a//b")  # materializes the general view
        _, report = net.query_with_report("//a/b")  # strictly narrower
        assert report.view_hit
        assert not report.precise  # compensated in the document phase
        assert net.views.materializations == 1

    def test_disabled_threshold_never_materializes(self):
        net = build_net(view_auto_materialize_after=None)
        for _ in range(5):
            net.query("//a//b")
        assert net.views.materializations == 0


class TestCostBasedChoice:
    def test_cached_statistic_decides_for_free(self):
        view = ViewDefinition(pat("//a//b"))
        view.base_bytes = 1000
        view.blocks.append(
            type("B", (), {"count": 10, "nbytes": 100, "key": "k"})()
        )
        wins, stats_s = view_beats_base(view, None, None, None)
        assert wins and stats_s == 0.0
        view.blocks[0].nbytes = 5000  # now bigger than the base cost
        wins, _ = view_beats_base(view, None, None, None)
        assert not wins

    def test_live_fallback_charges_a_stats_round(self):
        net = build_net()
        pattern = pat("//a//b")
        view, _ = net.views.materialize(pattern, net.peers[0])
        view.base_bytes = None  # no cached statistic: force the live path
        view.blocks[0].nbytes = 10**9  # absurdly expensive view
        plan = build_index_plan(pattern)
        wins, stats_s = view_beats_base(
            view, plan, net.optimizer, net.peers[0]
        )
        assert not wins
        assert stats_s > 0.0

    def test_losing_view_rejected_on_query_path(self):
        net = build_net(view_auto_materialize_after=1, view_cost_based=True)
        net.query("//a//b")  # materializes (and serves: fresh views skip)
        view = next(iter(net.views.catalog().values()))
        for block in view.blocks:
            block.nbytes = 10**9  # make the view look worse than base
        _, report = net.query_with_report("//a//b")
        assert not report.view_hit  # cost-based choice fell back to base


class TestMaintenanceCostCoherence:
    """Regression: maintenance must invalidate the cached base-cost
    statistic.  Before the fix, ``on_publish``/``on_unpublish`` updated the
    view blocks but left ``view.base_bytes`` at its materialization-time
    value, so the cost-based gate kept comparing against a base index that
    no longer existed."""

    def _oracle_answers(self, query, num_docs, unpublish=None):
        """The same publish/unpublish history on a views-off network."""
        config = KadopConfig(replication=1, use_views=False)
        net = KadopNetwork.create(num_peers=6, config=config, seed=5)
        docs = [
            "<a><b> red </b><b> blue </b><c><b> green </b></c></a>",
            "<a><c><d> red </d></c></a>",
            "<e><a><b> blue </b></a></e>",
            "<a><b> cyan </b><b> red </b></a>",
        ]
        for i in range(num_docs):
            net.peers[i % 4].publish(docs[i % len(docs)], uri="u:%d" % i)
        if unpublish is not None:
            peer_idx, doc_index = unpublish
            net.peers[peer_idx].unpublish(doc_index)
        return [a.doc_id for a in net.query(query)]

    def test_unpublish_invalidates_stale_base_cost(self):
        net = build_net(num_docs=8, view_auto_materialize_after=1)
        net.query("//a//b")  # materializes the warm view
        view = next(iter(net.views.catalog().values()))
        stale = view.base_bytes
        assert stale is not None
        doc_index = max(net.peers[0].documents)
        net.peers[0].unpublish(doc_index)  # peer 0's docs contribute //a//b
        # the delta was applied, and the dead statistic dropped with it
        assert net.views.maintenance_removed > 0
        assert view.base_bytes is None

    def test_warm_view_serves_correct_answers_after_unpublish(self):
        net = build_net(num_docs=8, view_auto_materialize_after=1)
        net.query("//a//b")  # warm
        view = next(iter(net.views.catalog().values()))
        doc_index = max(net.peers[1].documents)
        net.peers[1].unpublish(doc_index)
        answers, report = net.query_with_report("//a//b")
        expected = self._oracle_answers(
            "//a//b", num_docs=8, unpublish=(1, doc_index)
        )
        assert [a.doc_id for a in answers] == expected
        assert (1, doc_index) not in {a.doc_id for a in answers}
        # the cost-based gate re-measured the post-unpublish base index
        # live (and re-cached it) instead of trusting the dead statistic
        assert view.base_bytes is not None

    def test_publish_also_invalidates_then_requery_recaches(self):
        net = build_net(num_docs=4, view_auto_materialize_after=1)
        net.query("//a//b")  # warm
        view = next(iter(net.views.catalog().values()))
        net.peers[1].publish(
            "<r><a><b> red </b></a><a><b> blue </b></a></r>", uri="u:new"
        )
        assert view.base_bytes is None
        answers = net.query("//a//b")
        assert view.base_bytes is not None
        new_doc = max(net.peers[1].documents)
        assert (1, new_doc) in {a.doc_id for a in answers}


class TestStatsSurface:
    def test_view_counters_and_storage(self):
        net = build_net(view_auto_materialize_after=1, view_cost_based=False)
        net.query("//a//b")
        net.query("//a//b")
        stats = network_stats(net)
        assert stats.views == 1
        assert stats.view_hits == 2 and stats.view_misses == 0
        assert stats.view_bytes > 0
        assert stats.view_bytes == sum(
            nbytes for _, nbytes in net.views.storage_by_peer().values()
        )
        # view blocks are cache, not index: excluded from term/posting tallies
        assert not any(
            term.startswith("viewblk:") for _, term in stats.hottest_terms
        )
        assert "views: 1 materialized" in stats.format()
        assert "hit rate" in stats.format()

    def test_viewless_network_prints_no_view_line(self):
        net = KadopNetwork.create(
            num_peers=4, config=KadopConfig(replication=1)
        )
        net.peers[0].publish("<a><b> red </b></a>", uri="u:0")
        assert "views:" not in network_stats(net).format()


class TestRepeatedQueryWorkload:
    def test_deterministic_and_sized(self):
        profile = REPEATED_QUERY_PROFILES["zipf-hot"]
        first = zipfian_query_workload(profile, seed=3)
        again = zipfian_query_workload(profile, seed=3)
        assert first == again
        assert len(first) == profile.num_queries
        assert len({q for q, _ in first}) <= profile.distinct_patterns
        assert zipfian_query_workload(profile, seed=4) != first

    def test_skew_concentrates_the_stream(self):
        hot = QueryTrafficProfile("hot", 200, 10, zipf_skew=1.2)
        flat = QueryTrafficProfile("flat", 200, 10, zipf_skew=0.0)

        def top_share(workload):
            counts = {}
            for query, _ in workload:
                counts[query] = counts.get(query, 0) + 1
            return max(counts.values()) / len(workload)

        assert top_share(zipfian_query_workload(hot, seed=0)) > top_share(
            zipfian_query_workload(flat, seed=0)
        )

    def test_warmup_boundary(self):
        profile = REPEATED_QUERY_PROFILES["zipf-hot"]
        assert 0 < profile.warmup_queries < profile.num_queries
