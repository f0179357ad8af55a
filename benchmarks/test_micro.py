"""Micro-benchmarks of the core data structures (real wall-clock time).

Unlike the table/figure benches (which run once and report *simulated*
costs), these measure the actual Python implementations over repeated
rounds: B+-tree inserts and scans, twig-join throughput, Bloom filter
construction and probing, posting codec throughput, and DHT routing.
"""

import random

import pytest

from repro.bloom.structural import AncestorBloomFilter, DescendantBloomFilter
from repro.dht.network import DhtNetwork
from repro.postings.encoder import (
    decode_postings,
    encode_postings,
    encoded_size,
    encoded_size_sum,
)
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.query.twigjoin import twig_join
from repro.query.xpath import parse_query
from repro.storage.bptree import BPlusTree
from repro.storage.clustered import ClusteredIndexStore
from repro.storage.lsm import LsmStore


@pytest.fixture(scope="module")
def posting_list_10k():
    rng = random.Random(1)
    start = 0
    items = []
    for doc in range(100):
        start = 0
        for _ in range(100):
            start += rng.randint(1, 30)
            items.append(Posting(0, doc, start, start + 1, rng.randint(1, 8)))
    return PostingList(items)


def test_bptree_insert_10k(benchmark):
    keys = [("k%06d" % i).encode() for i in range(10_000)]
    rng = random.Random(2)
    rng.shuffle(keys)

    def insert_all():
        tree = BPlusTree(order=64)
        for key in keys:
            tree.insert(key)
        return tree

    tree = benchmark(insert_all)
    assert len(tree) == 10_000


def test_bptree_scan_10k(benchmark):
    tree = BPlusTree(order=64)
    for i in range(10_000):
        tree.insert(("k%06d" % i).encode())
    result = benchmark(lambda: sum(1 for _ in tree.scan()))
    assert result == 10_000


def test_clustered_store_append(benchmark, posting_list_10k):
    items = posting_list_10k.items()

    def append_all():
        store = ClusteredIndexStore()
        for i in range(0, len(items), 200):
            store.append("author", items[i : i + 200])
        return store

    store = benchmark(append_all)
    assert store.count("author") == len(items)


def test_posting_codec_roundtrip(benchmark, posting_list_10k):
    def roundtrip():
        data = encode_postings(posting_list_10k)
        decoded, _ = decode_postings(data)
        return decoded

    decoded = benchmark(roundtrip)
    assert len(decoded) == len(posting_list_10k)


def test_twig_join_throughput(benchmark, posting_list_10k):
    pattern = parse_query("//a//b")
    # a-elements: widen every third posting to act as an ancestor
    items = posting_list_10k.items()
    la = PostingList(
        [Posting(p.peer, p.doc, p.start, p.start + 60, 1) for p in items[::3]]
    )
    lb = PostingList([Posting(p.peer, p.doc, p.start + 1, p.start + 2, 2) for p in items[1::3]])
    streams = {0: la, 1: lb}
    solutions = benchmark(lambda: twig_join(pattern, streams))
    assert solutions  # sanity: the join produces output


def _docpeer():
    """A document peer holding 8 generated DBLP documents of 4 KB, the
    candidates of one ``query_docphase`` peer; with their indexes."""
    from repro.kadop.peer import KadopPeer
    from repro.workloads.dblp import DblpGenerator
    from repro.xmldata.parser import parse_document
    from repro.xmldata.streams import ElementStreams

    peer = KadopPeer(None, 0, None)
    generator = DblpGenerator(seed=1, target_doc_bytes=4_000)
    for doc_index in range(8):
        document = parse_document(generator.document())
        document.streams = ElementStreams(document)
        peer.documents[doc_index] = document
    return peer, sorted(peer.documents)


def test_twig_join_docpeer(benchmark):
    """One document peer's join at ``query_docphase``'s size: its 8
    generated DBLP documents of 4 KB, every one a candidate, under one
    chain and one branching query."""
    from repro.query.twigjoin import TwigPlan

    peer, docs = _docpeer()
    queries = ("//article//author", "//article[//title]//author")
    plans = [TwigPlan(parse_query(query)) for query in queries]

    def evaluate_peer():
        return [peer.evaluate(plan.pattern, docs, plan=plan) for plan in plans]

    answers = benchmark(evaluate_peer)
    assert all(answers)


def test_ab_filter_build_and_probe(benchmark, posting_list_10k):
    items = posting_list_10k.items()
    la = PostingList([Posting(p.peer, p.doc, p.start, p.start + 40, 1) for p in items[::5]])
    lb = posting_list_10k

    def build_and_filter():
        abf = AncestorBloomFilter(la, fp_rate=0.1)
        return abf.filter_postings(lb)

    kept = benchmark(build_and_filter)
    assert 0 < len(kept) <= len(lb)


def test_db_filter_build_and_probe(benchmark, posting_list_10k):
    items = posting_list_10k.items()
    lb = PostingList(items[::5])
    la = PostingList([Posting(p.peer, p.doc, p.start, p.start + 40, 1) for p in items[::7]])

    def build_and_filter():
        dbf = DescendantBloomFilter(lb, fp_rate=0.05)
        return dbf.filter_postings(la, or_self=True)

    kept = benchmark(build_and_filter)
    assert len(kept) <= len(la)


def test_dht_routing(benchmark):
    from repro.dht.network import DhtNetwork

    net = DhtNetwork.create(100, replication=1)
    keys = ["key:%d" % i for i in range(200)]

    def route_all():
        hops = 0
        for i, key in enumerate(keys):
            _, h = net.route(net.nodes[i % 100], key)
            hops += h
        return hops

    total_hops = benchmark(route_all)
    assert total_hops / len(keys) <= 4


def test_xml_parse_20kb(benchmark):
    from repro.workloads.dblp import DblpGenerator
    from repro.xmldata.parser import parse_document

    text = DblpGenerator(seed=3).document(0)
    document = benchmark(lambda: parse_document(text))
    assert document.element_count > 100


def test_publish_extract_4kb(benchmark):
    """What a publish does to a document before the DHT sees it: parse,
    lay out its element streams, cut its postings per term.  The inputs
    are the 88 timed publishes of the ``ingest`` workload at seed 0: 4 KB
    DBLP documents of ``DblpGenerator(seed=1)``, after the 16 it preloads."""
    from repro.index.publisher import extract_postings
    from repro.workloads.dblp import DblpGenerator
    from repro.xmldata.parser import parse_document
    from repro.xmldata.streams import ElementStreams

    generator = DblpGenerator(seed=1, target_doc_bytes=4_000)
    texts = [generator.document() for _ in range(16 + 88)][16:]

    def publish_side():
        postings = 0
        for i, text in enumerate(texts):
            document = parse_document(text)
            document.streams = ElementStreams(document)
            postings += sum(map(len, extract_postings(document, 0, i).values()))
        return postings

    assert benchmark(publish_side) > 300 * len(texts)


# --- kernel backend benches ------------------------------------------------
# Parameterized over the pluggable kernel backends so the committed
# BENCH_micro.json carries the pure-vs-numpy trajectory; check_micro.py
# gates on the [pure]/[numpy] mean ratio of these names.

from repro.bloom.filter import BloomFilter  # noqa: E402
from repro.postings import kernels  # noqa: E402

KERNEL_BACKENDS = ["pure"] + (["numpy"] if kernels.numpy_available() else [])


@pytest.fixture(params=KERNEL_BACKENDS)
def kernel_backend(request):
    previous = kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(previous)


def _cold_memo():
    """Empty the numpy backend's key-digest memo, so a round run after it
    hashes every key it has not yet hashed itself, as ``pure`` does."""
    if kernels.numpy_available():
        kernels.resolve("numpy")._MEMOS.clear()


def _cold_rounds(benchmark, target, rounds):
    """``target`` timed ``rounds`` times, each from an empty digest memo."""
    return benchmark.pedantic(target, setup=_cold_memo, rounds=rounds, warmup_rounds=1)


def _kernel_rows(n, seed, stride=3):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        start = rng.randrange(5000)
        rows.append(
            (i % 4, (i * stride) % 600, start, start + rng.randrange(1, 60),
             rng.randrange(1, 9))
        )
    return rows


def test_kernel_codec_decode(benchmark, kernel_backend):
    cols = PostingList(_kernel_rows(20_000, seed=11))
    data = encode_postings(cols)
    decoded, _ = benchmark(lambda: decode_postings(data))
    assert len(decoded) == len(cols)


def test_kernel_merge(benchmark, kernel_backend):
    # the ordered union of two lists: interleaved peer/doc keys force the
    # union kernel, not the disjoint-concatenation fast path
    a = PostingList(_kernel_rows(10_000, seed=12, stride=3))
    b = PostingList(_kernel_rows(10_000, seed=13, stride=5))
    merged = benchmark(lambda: PostingList.concat((a, b)))
    assert len(merged) > len(a)


def test_kernel_concat_sorted(benchmark, kernel_backend):
    parts = [
        PostingList(_kernel_rows(5_000, seed=20 + j, stride=3 + j))
        for j in range(4)
    ]
    total = benchmark(lambda: PostingList.concat(parts))
    assert len(total) > len(parts[0])


def test_kernel_bloom_batch(benchmark, kernel_backend):
    rng = random.Random(14)
    datas = [
        b"(i%d,i%d,i%d,i%d,i%d)"
        % (rng.randrange(4), rng.randrange(600), rng.randrange(5000),
           rng.randrange(5000), rng.randrange(9))
        for _ in range(20_000)
    ]

    def build_and_probe():
        f = BloomFilter(131_101, 5, seed=9)
        f.insert_serialized_batch(datas)
        return f.contains_serialized_batch(datas[::2])

    hits = _cold_rounds(benchmark, build_and_probe, rounds=10)
    assert all(hits)


def _probe_traffic(rng, n, widths):
    """``n`` element intervals inside ``[1, 2**9]`` over 4 peers x 15 docs."""
    rows = []
    for _ in range(n):
        start = rng.randrange(1, 500)
        rows.append(
            (rng.randrange(4), rng.randrange(15), start,
             min(512, start + rng.choice(widths)), rng.randrange(1, 9))
        )
    return PostingList(rows)


def test_kernel_dbf_probe(benchmark, kernel_backend):
    # the serve_churn traffic of ISSUE 20: a 28-posting source, l = 9, probe
    # lists of 443 (median) and 1,709 (largest) rows, a few percent kept
    rng = random.Random(15)
    dbf = DescendantBloomFilter(_probe_traffic(rng, 28, (1, 2)), l=9)
    probes = [
        _probe_traffic(rng, n, (2, 2, 2, 3, 3, 4, 6, 40)) for n in (443, 1709)
    ]
    kept = _cold_rounds(benchmark, lambda: [dbf.filter_postings(la) for la in probes], rounds=50)
    assert all(0 < len(k) < len(la) // 5 for k, la in zip(kept, probes))


def test_kernel_dbf_probe_warm(benchmark, kernel_backend):
    # serve_churn's probes as the digest memo sees them: 104 calls of about
    # 990 distinct cover keys each, 92 % of them hashed by an earlier call
    # (one round starts from an empty memo); 510-row lists drawn from 4,500
    # postings, against the 28-posting source of test_kernel_dbf_probe
    rng = random.Random(15)
    dbf = DescendantBloomFilter(_probe_traffic(rng, 28, (1, 2)), l=9)
    pool = _probe_traffic(rng, 4_500, (2, 2, 2, 3, 3, 4, 6, 40))
    probes = [pool.select(sorted(rng.sample(range(len(pool)), 510))) for _ in range(104)]
    kept = _cold_rounds(benchmark, lambda: [dbf.filter_postings(la) for la in probes], rounds=5)
    assert all(len(k) < len(la) // 5 for k, la in zip(kept, probes))


def _index_phase_edges():
    """The ``semijoin_below`` calls of ``query_docphase``'s index phase: its
    10 query templates over the merged label streams of 16 generated 4 KB
    DBLP documents, 8 per peer.  Streams hold 16 to 593 rows (241 on
    average, 578.7 per query); the 14 calls take 16-140 outer rows (87.7 on
    average) and 80-593 inner rows (357.1), all on ``//`` edges."""
    from repro.index.publisher import extract_postings
    from repro.kadop.execution import term_key_of
    from repro.workloads.dblp import DblpGenerator
    from repro.workloads.queries import traffic_workload
    from repro.xmldata.parser import parse_document

    generator = DblpGenerator(seed=1, target_doc_bytes=4_000)
    rows = {}
    for i in range(16):
        extracted = extract_postings(parse_document(generator.document()), i // 8, i % 8)
        for key, postings in extracted.items():
            rows.setdefault(key, []).extend(postings)
    streams = {key: PostingList(postings).arrays() for key, postings in rows.items()}
    edges = []
    for text, _ in traffic_workload(10, with_keywords=False):
        nodes = parse_query(text).nodes()
        kept = {}
        for node in reversed(nodes):  # bottom-up, as twig_docs walks
            cols = streams[term_key_of(node)]
            for child in node.children:
                edges.append((cols, kept[child.node_id], child.axis.value))
                cols = kernels.resolve("pure").semijoin_below(*edges[-1])
            kept[node.node_id] = cols
    return edges


def test_kernel_semijoin_below(benchmark, kernel_backend):
    edges = _index_phase_edges()
    semijoin_below = kernels.active().semijoin_below
    kept = benchmark(lambda: [semijoin_below(*edge) for edge in edges])
    assert len(edges) == 14 and all(len(cols[0]) for cols in kept)


def _docpeer_expansions(monkeypatch):
    """The ``expand_below`` calls of one ``query_docphase`` document peer:
    its 10 query templates over the 8 documents of :func:`_docpeer`, as
    the pure backend receives them.  The 14 calls are all on ``//``
    edges: 8-71 outer rows asked about (median 37, mean 42.9; the
    workload's median is 43, 11 of them at or above the numpy backend's
    cut-over) against 37-300 inner rows (180.5 on average)."""
    from repro.workloads.queries import traffic_workload

    peer, docs = _docpeer()
    pure = kernels.resolve("pure")
    calls = []
    expand_below = pure.expand_below
    monkeypatch.setattr(
        pure, "expand_below", lambda *args: calls.append(args) or expand_below(*args)
    )
    previous = kernels.use_backend("pure")
    try:
        for text, _ in traffic_workload(10, with_keywords=False):
            peer.evaluate(parse_query(text), docs)
    finally:
        kernels.use_backend(previous)
        monkeypatch.undo()
    return calls


def test_kernel_expand_below(benchmark, kernel_backend, monkeypatch):
    calls = _docpeer_expansions(monkeypatch)
    expand_below = kernels.active().expand_below
    found = benchmark(lambda: [expand_below(*call) for call in calls])
    assert len(calls) == 14 and all(owner for owner, _ in found)


def test_kernel_dbf_build(benchmark, kernel_backend):
    # serve_churn's Descendant filters: a 28-posting source (the median of
    # the 104 its timed window builds), l = 9
    source = _probe_traffic(random.Random(15), 28, (1, 2))
    dbf = _cold_rounds(benchmark, lambda: DescendantBloomFilter(source, l=9), rounds=500)
    assert dbf.filter.inserted == 28 * 10


def _answers(segments, rows, seed=18):
    """``segments`` sorted answer posting lists of ``rows // segments`` rows,
    each inside one document, like a document peer's answers."""
    rng = random.Random(seed)
    parts = []
    for _ in range(segments):
        doc, start = rng.randrange(40), rng.randrange(1, 4000)
        parts.append(sorted(
            Posting(3, doc, start + 9 * k, start + 9 * k + rng.randrange(1, 8), 2 + k)
            for k in range(rows // segments)
        ))
    return parts


def _bench_answer_sizes(benchmark, segments, rows, per_answer):
    # the document phase's answer metering at the sizes measured on the
    # repo benchmark: one segmented call per document peer, or the
    # per-answer loop it replaced
    # calls of a few microseconds: fixed rounds of 20 calls keep the
    # recorded sample list (and BENCH_micro.json) small
    parts = _answers(segments, rows)
    expected = sum(encoded_size(part) for part in parts)
    if per_answer:
        def metered():
            return sum(encoded_size(part) for part in parts)
    else:
        def metered():
            return encoded_size_sum(parts)
    assert benchmark.pedantic(metered, rounds=100, iterations=20) == expected


def test_kernel_encoded_sizes_1x2(benchmark, kernel_backend):
    _bench_answer_sizes(benchmark, 1, 2, per_answer=False)


def test_kernel_encoded_size_loop_1x2(benchmark, kernel_backend):
    _bench_answer_sizes(benchmark, 1, 2, per_answer=True)


def test_kernel_encoded_sizes_2x8(benchmark, kernel_backend):
    _bench_answer_sizes(benchmark, 2, 8, per_answer=False)


def test_kernel_encoded_size_loop_2x8(benchmark, kernel_backend):
    _bench_answer_sizes(benchmark, 2, 8, per_answer=True)


def test_kernel_encoded_sizes_70x210(benchmark, kernel_backend):
    _bench_answer_sizes(benchmark, 70, 210, per_answer=False)


def test_kernel_encoded_size_loop_70x210(benchmark, kernel_backend):
    _bench_answer_sizes(benchmark, 70, 210, per_answer=True)


@pytest.mark.parametrize("size", [1, 2, 6, 16, 48])
def test_kernel_encoded_size(benchmark, kernel_backend, size):
    # one term's run as a publish or a withdrawal sizes it: most runs of a
    # DBLP document hold one posting (numpy hands those to the pure loop),
    # few more than six; 16 and 48 rows bracket where the array set-up
    # starts to pay in host time
    run = PostingList(_answers(1, size)[0])
    assert benchmark.pedantic(
        encoded_size, args=(run,), rounds=100, iterations=20
    ) == len(encode_postings(run))


def test_columns_bisect_left(benchmark):
    # PostingList.add's insert search: 200 probes into 700 rows
    cols = PostingList(_kernel_rows(700, seed=16))
    keys = [cols.key(i) for i in range(0, 700, 7)] + _kernel_rows(100, seed=17)
    found = benchmark(lambda: [cols.bisect_left(key) for key in keys])
    assert found[:100] == list(range(0, 700, 7))


@pytest.mark.parametrize("size", [50, 500, 5000])
def test_clustered_get_range(benchmark, posting_list_10k, size):
    # a DPP block fetch: one ordered key range of a 10,000-posting term
    store = ClusteredIndexStore()
    for term in ("author", "title"):
        store.append(term, posting_list_10k)
    lo, hi = posting_list_10k[2000], posting_list_10k[2000 + size - 1]
    got = benchmark(lambda: store.get_range("author", lo, hi))
    assert len(got) == size


@pytest.mark.parametrize("size", [1, 3, 300])
def test_clustered_sorted_append(benchmark, posting_list_10k, size):
    # one publish's sorted batch for a term into a populated store: each
    # round appends a new document's postings (the parent's 63 % of
    # ingest appends carry one posting, 14 % two)
    store = ClusteredIndexStore()
    for term in ("author", "title"):
        store.append(term, posting_list_10k)
    docs = iter(range(100, 10**9))

    def fresh_batch():
        doc = next(docs)
        batch = PostingList([Posting(0, doc, 2 * s + 1, 2 * s + 2, 1) for s in range(size)])
        return ("author", batch), {}

    benchmark.pedantic(store.append, setup=fresh_batch, rounds=max(200, 3000 // size))
    assert store.count("author") == len(posting_list_10k) + size * max(200, 3000 // size)


@pytest.mark.parametrize("size", [1, 6])
def test_lsm_append(benchmark, size):
    # one append into an LSM memtable that already buffers 700 postings of
    # the term, at serve_churn's median and mean batch sizes (1 and 5.9
    # postings); the memtable never flushes here
    store = LsmStore(memtable_postings=10**6)
    store.append("author", PostingList(_kernel_rows(700, seed=16)))
    docs = iter(range(1000, 10**9))

    def fresh_batch():
        doc = next(docs)
        batch = PostingList([Posting(0, doc, 2 * s + 1, 2 * s + 2, 1) for s in range(size)])
        return ("author", batch), {}

    rounds = max(200, 3000 // size)
    benchmark.pedantic(store.append, setup=fresh_batch, rounds=rounds)
    assert store.count("author") == store.memtable_entries == 700 + size * rounds


def test_transfers_run_10(benchmark):
    # a lazy DPP fetch schedule: 10 block transfers from 6 senders into one
    # peer with 8 ingress slots, built and run
    net = DhtNetwork()
    blocks = [(i, [2, 13, 10, 14, 14, 2, 13, 3, 8, 10][i], 0.0101 + 0.0003 * i) for i in range(10)]

    def schedule():
        transfers = net.transfers(8)
        for i, sender, seconds in blocks:
            transfers.transfer("blk:%d" % i, seconds, sender, release=0.004)
        return transfers.run()

    assert benchmark(schedule) > 0.004
