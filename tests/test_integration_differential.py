"""The crown-jewel integration test: every configuration agrees.

Each of the paper's techniques — the store replacement, pipelining, the
DPP (every fetch mode, ordered or random splits), every Bloom reducer
strategy, views, the balancer's read policies and hot copies, DHT
replication and write quorums, bulk publishing and the kernel backends —
is a pure performance mechanism: answers must be *identical* to a
centralized oracle that simply matches every live document in memory.

The configurations are a pairwise covering array over those dimensions:
every pair of values of any two dimensions runs together in some row.
Each row publishes a randomized corpus, publishes more documents, then
withdraws one, and is checked against the oracle after every phase, so a
copy that a write forgets to reach shows up as a wrong answer.
"""

import random

import pytest

from repro.errors import ConfigError
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings import kernels
from repro.query.matcher import match_document, match_to_postings
from repro.query.xpath import parse_query
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

DPP = dict(use_dpp=True, dpp_block_entries=12)
VIEWS = dict(use_views=True, view_auto_materialize_after=1, view_cost_based=False)

#: dimension -> value label -> the KadopConfig fields it sets; ``publish``
#: and ``kernel`` are read off the row by :func:`run_row` instead
DIMENSIONS = {
    "overlay": {"pastry": {}, "chord": dict(overlay="chord")},
    "store": {
        "btree": {},
        "lsm": dict(store_backend="lsm"),
        "naive": dict(store_backend="naive"),
    },
    "fetch": {"pipelined": {}, "blocking": dict(pipelined_get=False)},
    "index": {
        "plain": {},
        "dpp-eager": dict(DPP, dpp_fetch_mode="eager"),
        "dpp-window": dict(DPP, dpp_fetch_mode="window"),
        "dpp-lazy": DPP,
        "dpp-unordered": dict(DPP, dpp_ordered_splits=False),
    },
    "strategy": {
        name: dict(filter_strategy=None if name == "none" else name)
        for name in ("none", "ab", "db", "bloom", "subquery", "auto", "pushdown")
    },
    "views": {"off": {}, "on": VIEWS},
    "read": {
        name: dict(read_policy=name)
        for name in ("owner", "least_loaded")
    },
    "hot": {"off": {}, "on": dict(hot_key_threshold=1)},
    "replication": {str(r): dict(replication=r) for r in (1, 2, 3)},
    "quorum": {"all": {}, "majority": dict(write_quorum="majority")},
    "publish": {"serial": {}, "batch": {}},
    # numpy only where it imports: CI also runs the suite without it
    "kernel": {"pure": {}, **({"numpy": {}} if kernels.numpy_available() else {})},
}


def _pair(dim_a, value_a, dim_b, value_b):
    """One value pair in the dimensions' declaration order."""
    names = list(DIMENSIONS)
    if names.index(dim_a) > names.index(dim_b):
        dim_a, value_a, dim_b, value_b = dim_b, value_b, dim_a, value_a
    return ((dim_a, value_a), (dim_b, value_b))


def _rejected():
    """Value pairs the code rejects by design (a query raises
    ConfigError), with the reason; no row holds one."""
    reasons = {}
    for strategy in ("ab", "db", "bloom", "subquery", "pushdown"):
        pushdown = strategy == "pushdown"
        for index in DIMENSIONS["index"]:
            if index != "plain":
                reasons[_pair("index", index, "strategy", strategy)] = (
                    "join pushdown joins whole term lists at their owners"
                    if pushdown
                    else "the Bloom reducers and the DPP are separate techniques"
                )
    return reasons


REJECTED = _rejected()


def all_pairs(dims):
    """Every value pair of two dimensions the code accepts."""
    names = list(dims)
    return {
        _pair(x, a, y, b)
        for i, x in enumerate(names)
        for y in names[i + 1:]
        for a in dims[x]
        for b in dims[y]
    } - REJECTED.keys()


def row_pairs(row):
    items = list(row.items())
    return {
        _pair(x, a, y, b)
        for i, (x, a) in enumerate(items)
        for y, b in items[i + 1:]
    }


def pairwise_rows(dims):
    """Greedy covering array: each row starts from the smallest uncovered
    pair and gives every other dimension the first value that covers the
    most uncovered pairs with the values chosen so far.  Deterministic."""
    uncovered = all_pairs(dims)
    rows = []
    while uncovered:
        (x, a), (y, b) = min(uncovered)
        row = {x: a, y: b}
        for z in dims:
            if z in row:
                continue

            def gain(value):
                pairs = {_pair(w, row[w], z, value) for w in row}
                if pairs & REJECTED.keys():
                    return -1
                return len(pairs & uncovered)

            row[z] = max(dims[z], key=gain)
        rows.append({z: row[z] for z in dims})
        uncovered -= row_pairs(row)
    return rows


ROWS = pairwise_rows(DIMENSIONS)


def _corpus_docs():
    rng = random.Random(2008)
    return [random_doc(rng) for _ in range(10)], [random_doc(rng) for _ in range(3)]


CORPUS, EXTRA = _corpus_docs()


def _placed(texts, first):
    """``(peer, uri, text)`` for documents ``first, first + 1, ...``: the
    i-th document goes to peer ``i % 4``."""
    return [(i % 4, "u:%d" % i, text) for i, text in enumerate(texts, first)]


#: the write phases every row runs: (name, documents to publish, the
#: ``(peer, doc_index)`` to withdraw or None)
PHASES = [
    ("publish corpus", _placed(CORPUS, 0), None),
    ("publish 3 more", _placed(EXTRA, len(CORPUS)), None),
    ("unpublish 1", [], (1, 0)),
]


def live_documents():
    """``[(peer, doc_index, text)]`` alive after each phase, in order:
    a peer numbers its documents in publish order."""
    live, counts, out = {}, {}, []
    for _, published, withdrawn in PHASES:
        for peer, _, text in published:
            live[(peer, counts.get(peer, 0))] = text
            counts[peer] = counts.get(peer, 0) + 1
        if withdrawn is not None:
            del live[withdrawn]
        out.append([(p, d, text) for (p, d), text in sorted(live.items())])
    return out


def oracle_answers(docs, query, keywords):
    """Centralized truth: match every ``(peer, doc_index, text)`` directly."""
    pattern = parse_query(query, keyword_steps=keywords)
    expected = set()
    for peer_idx, doc_idx, text in docs:
        for m in match_document(pattern, parse_document(text)):
            expected.add(tuple(sorted(match_to_postings(m, peer_idx, doc_idx).items())))
    return expected


@pytest.fixture(scope="module")
def expected():
    """Oracle answers per phase, per query."""
    return [
        {query: oracle_answers(docs, query, keywords) for query, keywords in QUERIES}
        for docs in live_documents()
    ]


def _publish(net, docs, batch):
    if not batch:
        for peer, uri, text in docs:
            net.peers[peer].publish(text, uri=uri)
        return
    for peer in sorted({peer for peer, _, _ in docs}):
        mine = [(uri, text) for p, uri, text in docs if p == peer]
        net.peers[peer].publish_batch(
            [text for _, text in mine], uris=[uri for uri, _ in mine]
        )


def run_row(row, expected):
    """Run the three phases under ``row``; returns the wrong answers as
    ``(phase, query, missing, extra)`` tuples."""
    fields = {}
    for dim, value in row.items():
        fields.update(DIMENSIONS[dim][value])
    wrong = []
    previous = kernels.use_backend(row["kernel"])
    try:
        net = KadopNetwork.create(num_peers=8, config=KadopConfig(**fields), seed=1)
        for phase, (name, published, withdrawn) in enumerate(PHASES):
            _publish(net, published, row["publish"] == "batch")
            if withdrawn is not None:
                net.peers[withdrawn[0]].unpublish(withdrawn[1])
            for query, keywords in QUERIES:
                got = {a.bindings for a in net.query(query, keyword_steps=keywords)}
                want = expected[phase][query]
                if got != want:
                    wrong.append((name, query, len(want - got), len(got - want)))
        for node in net.net.nodes:
            check = getattr(node.store, "check_invariants", None)
            if check is not None:
                check()
    finally:
        kernels.use_backend(previous)
    return wrong


class TestPairwiseOracle:
    def test_every_pair_is_covered(self):
        covered = set().union(*(row_pairs(row) for row in ROWS))
        assert all_pairs(DIMENSIONS) <= covered
        assert not covered & REJECTED.keys()
        assert all(list(row) == list(DIMENSIONS) for row in ROWS)

    def test_rejected_pairs_raise(self):
        """A rejected pair is refused by the code, not merely left out."""
        for (dim_a, value_a), (dim_b, value_b) in REJECTED:
            fields = dict(DIMENSIONS[dim_a][value_a], **DIMENSIONS[dim_b][value_b])
            config = KadopConfig(replication=1, **fields)
            net = KadopNetwork.create(num_peers=4, config=config, seed=1)
            net.peers[0].publish("<a><b/></a>", uri="u:0")
            with pytest.raises(ConfigError):
                net.query("//a//b")

    def test_rows_match_oracle(self, expected):
        failures = []
        for row in ROWS:
            wrong = run_row(row, expected)
            if wrong:
                failures.append((row, wrong))
        assert not failures, "\n".join(
            "%s: %s" % (" ".join("%s=%s" % item for item in row.items()), wrong)
            for row, wrong in failures
        )


@pytest.fixture(scope="module")
def oracle():
    docs = live_documents()[0]
    return lambda query, keywords: oracle_answers(docs, query, keywords)


def build(config, seed=1):
    net = KadopNetwork.create(num_peers=8, config=config, seed=seed)
    _publish(net, PHASES[0][1], batch=False)
    return net


#: hand-picked configurations, each run on its own against the oracle
CONFIGS = {
    "baseline": KadopConfig(replication=1),
    "blocking": KadopConfig(replication=1, pipelined_get=False),
    "naive-store": KadopConfig(replication=1, store_backend="naive"),
    "dpp": KadopConfig(replication=1, **DPP),
    "dpp-random": KadopConfig(replication=1, dpp_ordered_splits=False, **DPP),
    "replicated-ring": KadopConfig(replication=3),
    "views-pastry": KadopConfig(replication=1, **VIEWS),
    "views-chord": KadopConfig(replication=1, overlay="chord", **VIEWS),
}

STRATEGIES = (None, "ab", "db", "bloom", "subquery", "auto")


class TestAllConfigurationsAgree:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_config_matches_oracle(self, config_name, oracle):
        net = build(CONFIGS[config_name])
        for query, keywords in QUERIES:
            answers = net.query(query, keyword_steps=keywords)
            got = {a.bindings for a in answers}
            assert got == oracle(query, keywords), (config_name, query)

    def test_all_strategies_match_oracle(self, oracle):
        net = build(CONFIGS["baseline"])
        for strategy in STRATEGIES:
            for query, keywords in QUERIES:
                answers = net.query(query, keyword_steps=keywords, strategy=strategy)
                got = {a.bindings for a in answers}
                assert got == oracle(query, keywords), (strategy, query)

    def test_repeated_queries_stable(self):
        net = build(CONFIGS["dpp"])
        first = net.query("//a//b")
        for _ in range(3):
            assert net.query("//a//b") == first

    @pytest.mark.parametrize("seed", [3, 7])
    def test_placement_invariance(self, oracle, seed):
        """Ring placement (peer URIs) must not affect answers' content."""
        net = build(KadopConfig(replication=1), seed=seed)
        for query, keywords in QUERIES[:4]:
            got = {a.bindings for a in net.query(query, keyword_steps=keywords)}
            assert got == oracle(query, keywords)


def _views_config(overlay):
    # threshold 1 + no cost gate: the very first ask materializes and every
    # repeat is forced through the view path
    return KadopConfig(replication=1, overlay=overlay, **VIEWS)


class TestViewsServeIdenticalAnswers:
    """View-served answers are element-for-element the base answers —
    on both overlay substrates, and across the maintenance cycle."""

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_view_hits_match_oracle(self, overlay, oracle):
        net = build(_views_config(overlay))
        for ask in range(2):  # first ask materializes, second is a pure hit
            for query, keywords in QUERIES:
                answers = net.query(query, keyword_steps=keywords)
                got = {a.bindings for a in answers}
                assert got == oracle(query, keywords), (overlay, ask, query)
        assert net.views.materializations > 0
        assert net.views.hits > 0

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_maintenance_cycle(self, overlay):
        """publish -> query -> unpublish -> query: live views track the
        corpus exactly, agreeing with a views-off network at every step."""
        view_net = build(_views_config(overlay))
        base_net = build(KadopConfig(replication=1, overlay=overlay))

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
