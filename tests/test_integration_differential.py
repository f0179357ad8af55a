"""The crown-jewel integration test: every configuration agrees.

Each of the paper's techniques — the store replacement, pipelining, the
DPP (ordered or random splits, with or without popularity replication),
every Bloom reducer strategy, and the optimizer — is a pure performance
mechanism: answers must be *identical* to the baseline.  This test
publishes a randomized corpus across peers and asserts exactly that, for a
battery of queries, plus agreement with a centralized oracle that simply
matches every document in memory.
"""

import random

import pytest

from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.query.matcher import match_document, match_to_postings
from repro.xmldata.parser import parse_document

LABELS = ["a", "b", "c", "d", "e"]
WORDS = ["red", "green", "blue", "cyan"]


def random_doc(rng, max_nodes=30):
    parts = []

    def build(depth, budget):
        label = rng.choice(LABELS)
        parts.append("<%s>" % label)
        if rng.random() < 0.5:
            parts.append(" %s " % rng.choice(WORDS))
        for _ in range(0 if depth > 4 else rng.randint(0, 3)):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            build(depth + 1, budget)
        parts.append("</%s>" % label)

    build(0, [max_nodes])
    return "".join(parts)


QUERIES = [
    ("//a//b", ()),
    ("//a/b", ()),
    ("//a//b//c", ()),
    ("//a[//b]//c", ()),
    ('//a[. contains "red"]', ()),
    ('//b[. contains "green"]//c', ()),
    ("//a//b//red", ("red",)),
    ("//a[//b][//c]//d", ()),
    ("//e", ()),
    ("//*//b", ()),
]

CONFIGS = {
    "baseline": KadopConfig(replication=1),
    "blocking": KadopConfig(replication=1, pipelined_get=False),
    "naive-store": KadopConfig(replication=1, store_backend="naive", use_append=False),
    "dpp": KadopConfig(replication=1, use_dpp=True, dpp_block_entries=12),
    "dpp-random": KadopConfig(
        replication=1,
        use_dpp=True,
        dpp_block_entries=12,
        dpp_ordered_splits=False,
    ),
    "dpp-replicated": KadopConfig(
        replication=1,
        use_dpp=True,
        dpp_block_entries=12,
        dpp_replicate_after=1,
    ),
    "replicated-ring": KadopConfig(replication=3),
    "views-pastry": KadopConfig(
        replication=1,
        use_views=True,
        view_auto_materialize_after=1,
        view_cost_based=False,
    ),
    "views-chord": KadopConfig(
        replication=1,
        overlay="chord",
        use_views=True,
        view_auto_materialize_after=1,
        view_cost_based=False,
    ),
}

STRATEGIES = (None, "ab", "db", "bloom", "subquery", "auto")


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(2008)
    return [random_doc(rng) for _ in range(10)]


@pytest.fixture(scope="module")
def oracle(corpus):
    """Centralized truth: match every document directly."""

    def run(query, keywords):
        from repro.query.xpath import parse_query

        pattern = parse_query(query, keyword_steps=keywords)
        expected = set()
        for i, text in enumerate(corpus):
            doc = parse_document(text)
            peer_idx = i % 4
            # doc index within its peer: position among that peer's docs
            doc_idx = i // 4
            for m in match_document(pattern, doc):
                expected.add(
                    tuple(sorted(match_to_postings(m, peer_idx, doc_idx).items()))
                )
        return expected

    return run


def build(config, corpus, seed=1):
    net = KadopNetwork.create(num_peers=8, config=config, seed=seed)
    for i, text in enumerate(corpus):
        net.peers[i % 4].publish(text, uri="u:%d" % i)
    return net


class TestAllConfigurationsAgree:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_config_matches_oracle(self, config_name, corpus, oracle):
        net = build(CONFIGS[config_name], corpus)
        for query, keywords in QUERIES:
            answers = net.query(query, keyword_steps=keywords)
            got = {a.bindings for a in answers}
            assert got == oracle(query, keywords), (config_name, query)

    def test_all_strategies_match_oracle(self, corpus, oracle):
        net = build(CONFIGS["baseline"], corpus)
        for strategy in STRATEGIES:
            for query, keywords in QUERIES:
                answers = net.query(
                    query, keyword_steps=keywords, strategy=strategy
                )
                got = {a.bindings for a in answers}
                assert got == oracle(query, keywords), (strategy, query)

    def test_repeated_queries_stable(self, corpus):
        net = build(CONFIGS["dpp-replicated"], corpus)
        first = net.query("//a//b")
        for _ in range(3):
            assert net.query("//a//b") == first

    @pytest.mark.parametrize("seed", [3, 7])
    def test_placement_invariance(self, corpus, oracle, seed):
        """Ring placement (peer URIs) must not affect answers' content."""
        net = build(CONFIGS["baseline"], corpus, seed=seed)
        for query, keywords in QUERIES[:4]:
            got = {a.bindings for a in net.query(query, keyword_steps=keywords)}
            assert got == oracle(query, keywords)


def _views_config(overlay):
    # threshold 1 + no cost gate: the very first ask materializes and every
    # repeat is forced through the view path
    return KadopConfig(
        replication=1,
        overlay=overlay,
        use_views=True,
        view_auto_materialize_after=1,
        view_cost_based=False,
    )


class TestViewsServeIdenticalAnswers:
    """View-served answers are element-for-element the base answers —
    on both overlay substrates, and across the maintenance cycle."""

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_view_hits_match_oracle(self, overlay, corpus, oracle):
        net = build(_views_config(overlay), corpus)
        for ask in range(2):  # first ask materializes, second is a pure hit
            for query, keywords in QUERIES:
                answers = net.query(query, keyword_steps=keywords)
                got = {a.bindings for a in answers}
                assert got == oracle(query, keywords), (overlay, ask, query)
        assert net.views.materializations > 0
        assert net.views.hits > 0

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_maintenance_cycle(self, overlay, corpus):
        """publish -> query -> unpublish -> query: live views track the
        corpus exactly, agreeing with a views-off network at every step."""
        view_net = build(_views_config(overlay), corpus)
        base_net = build(KadopConfig(replication=1, overlay=overlay), corpus)

        def agree(stage):
            for query, keywords in QUERIES:
                got = {a.bindings for a in view_net.query(query, keyword_steps=keywords)}
                want = {a.bindings for a in base_net.query(query, keyword_steps=keywords)}
                assert got == want, (overlay, stage, query)

        agree("warmup")  # also materializes every query's view
        assert view_net.views.materializations > 0

        extra = "<a><b> red </b><c><d> green </d></c><e> blue </e></a>"
        view_net.peers[2].publish(extra, uri="u:extra")
        base_net.peers[2].publish(extra, uri="u:extra")
        view_doc = max(view_net.peers[2].documents)
        base_doc = max(base_net.peers[2].documents)
        assert view_net.views.maintenance_added > 0
        agree("after publish")

        view_net.peers[2].unpublish(view_doc)
        base_net.peers[2].unpublish(base_doc)
        assert view_net.views.maintenance_removed > 0
        agree("after unpublish")
