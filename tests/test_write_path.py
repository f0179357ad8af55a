"""Write-path lockdown: cross-backend differential + LSM property tests.

Two families:

* Differential — the three store backends (``btree``/``naive``/``lsm``)
  and the two publish paths (document-at-a-time vs. the bulk pipeline)
  must be observationally equivalent on both overlays: identical answers,
  identical metered query traffic, and — for bulk vs. serial publishing
  on one backend — fully byte-identical :class:`QueryReport`s.  Only the
  simulated store *durations* may differ across backends; that accounting
  difference is the entire point of the ablation.

* Property — seeded random append/delete/flush/compact sequences against
  a reference-dict oracle (mirroring the ``test_kernels.py`` style),
  including adversarial keys: the empty term, shared-prefix terms, and
  postings at the 2^63-1 edge of the varint codec.
"""

import dataclasses
import random

import pytest

from repro.errors import XmlParseError
from repro.index.publisher import extract_postings
from repro.kadop.config import KadopConfig
from repro.kadop.system import KadopNetwork
from repro.postings.encoder import encoded_size
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.storage.lsm import LsmStore

BACKENDS = ("btree", "naive", "lsm")
OVERLAYS = ("pastry", "chord")

DOCS = [
    "<article><title>red green</title><author>ada</author></article>",
    "<article><title>blue</title><author>grace</author>"
    "<body>shared words red</body></article>",
    "<article><author>ada</author><author>grace</author></article>",
    "<book><title>green</title><chapter><author>alan</author></chapter></book>",
    "<article><title>cyan red</title></article>",
    "<note><author>ada</author></note>",
]

QUERIES = ("//article//author", "//article/title", "//author", "//book//author")

#: more inputs of the bulk-vs-serial differential, on the btree store.  The
#: two publish paths cut DPP blocks differently, so these compare answers,
#: not reports; with views the queries also run between the publish
#: rounds, so later rounds are maintenance deltas into materialised views
DPP = dict(use_dpp=True, dpp_block_entries=8)
DPP_CASES = {
    "dpp": DPP,
    "dpp-views": dict(
        DPP, use_views=True, view_auto_materialize_after=1,
        view_block_entries=2, view_cost_based=False,
    ),
}


def _build(backend, overlay, bulk, docs=DOCS, rounds=3, **overrides):
    config = KadopConfig(
        store_backend=backend,
        overlay=overlay,
        replication=2,
        **overrides
    )
    net = KadopNetwork.create(num_peers=6, config=config, seed=11)
    for r in range(rounds):
        peer = net.peers[r % 3]
        uris = ["u:%d" % (r * len(docs) + i) for i in range(len(docs))]
        if bulk:
            peer.publish_batch(docs, uris=uris)
        else:
            for text, uri in zip(docs, uris):
                peer.publish(text, uri=uri)
        if net.views is not None:
            for query in QUERIES:
                net.query(query)
    return net


def _observe(net):
    """Answers + reports for the query set, as comparable values."""
    out = []
    for query in QUERIES:
        answers, report = net.query_with_report(query)
        out.append(
            (
                [(a.peer, a.doc, a.bindings) for a in answers],
                dataclasses.asdict(report),
            )
        )
    return out


def _strip_durations(report_dict):
    trimmed = dict(report_dict)
    for key in (
        "response_time_s",
        "time_to_first_s",
        "index_time_s",
        "doc_time_s",
    ):
        trimmed.pop(key)
    return trimmed


class TestCrossBackendDifferential:
    @pytest.mark.parametrize("overlay", OVERLAYS)
    def test_backends_agree_on_answers_and_traffic(self, overlay):
        runs = {b: _observe(_build(b, overlay, bulk=False)) for b in BACKENDS}
        reference = runs["btree"]
        for backend in ("naive", "lsm"):
            for (ref_answers, ref_report), (answers, report) in zip(
                reference, runs[backend]
            ):
                assert answers == ref_answers
                # everything except the simulated store durations must be
                # byte-identical: traffic, postings fetched, precision...
                assert _strip_durations(report) == _strip_durations(ref_report)

    @pytest.mark.parametrize("overlay", OVERLAYS)
    @pytest.mark.parametrize("backend", BACKENDS + tuple(DPP_CASES))
    def test_bulk_publish_is_observationally_identical(self, overlay, backend):
        overrides = DPP_CASES.get(backend)
        if overrides is None:
            # same backend, same final index: the whole QueryReport must
            # match byte for byte, durations included
            assert _observe(_build(backend, overlay, bulk=True)) == _observe(
                _build(backend, overlay, bulk=False)
            )
            return
        serial, bulk = (
            [
                answers
                for answers, _ in _observe(
                    _build("btree", overlay, bulk=bulk, **overrides)
                )
            ]
            for bulk in (False, True)
        )
        assert bulk == serial and all(serial)

    def test_bulk_cuts_routed_messages(self):
        serial_net = _build("btree", "pastry", bulk=False)
        docs = [DOCS[i % len(DOCS)] for i in range(32)]
        from repro.index.publisher import PublishReceipt

        serial = PublishReceipt()
        for i, text in enumerate(docs):
            serial.merge(serial_net.peers[0].publish(text, uri="v:%d" % i))
        bulk_net = _build("btree", "pastry", bulk=False)
        bulk = bulk_net.peers[0].publish_batch(
            docs, uris=["v:%d" % i for i in range(32)]
        )
        assert serial.postings == bulk.postings
        assert serial.messages >= 3 * bulk.messages

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpublish_differential(self, backend):
        net = _build(backend, "pastry", bulk=(backend != "naive"))
        reference = _build("btree", "pastry", bulk=False)
        for victim in (net, reference):
            victim.peers[1].unpublish(min(victim.peers[1].documents))
        for query in QUERIES:
            assert [a.doc_id for a in net.query(query)] == [
                a.doc_id for a in reference.query(query)
            ]

    @pytest.mark.parametrize("overlay", OVERLAYS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpublish_sends_one_routed_request_per_term(self, backend, overlay):
        """A withdrawal is one message per (term, document) pair, carrying
        the term's postings over its route like the ``append`` that put
        them there."""
        system = _build(backend, overlay, bulk=False)
        net, peer = system.net, system.peers[1]
        doc_index = min(peer.documents)
        runs = extract_postings(peer.documents[doc_index], peer.index, doc_index)
        wire = sum(
            encoded_size(PostingList(run)) * max(1, net.route(peer.node, key)[1])
            for key, run in runs.items()
        )
        messages, before = net.meter.messages(), net.meter.snapshot()
        removed = peer.unpublish(doc_index)
        assert net.meter.messages() - messages == len(runs)
        sent = {category: n for category, n in net.meter.delta_since(before).items() if n}
        assert sent == {"postings": wire}
        assert removed == sum(map(len, runs.values()))

    def test_lsm_flush_and_compaction_preserve_answers(self):
        net = _build("lsm", "chord", bulk=True)
        before = _observe(net)
        for node in net.net.nodes:
            node.store.flush()
            while node.store.compact_tick():
                pass
            node.store.check_invariants()
        assert _observe(net) == before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_store_stats_accounting_sane(self, backend):
        net = _build(backend, "pastry", bulk=False)
        wrote = read = 0
        for node in net.net.nodes:
            stats = node.store.stats
            assert stats.bytes_written >= 0
            assert stats.bytes_read >= 0
            assert stats.num_ops >= 0
            wrote += stats.bytes_written
            read += stats.bytes_read
        assert wrote > 0  # publishing paid for its writes
        if backend == "lsm":
            # memtable reads are free of disk I/O by design; freeze the
            # buffered postings into runs so the query pays to read them
            for node in net.net.nodes:
                node.store.flush()
        snapshots = [n.store.stats.snapshot() for n in net.net.nodes]
        net.query(QUERIES[0])
        deltas = [
            n.store.stats.delta_since(s)
            for n, s in zip(net.net.nodes, snapshots)
        ]
        assert all(
            d.bytes_read >= 0 and d.bytes_written >= 0 and d.num_ops >= 0
            for d in deltas
        )
        # a query must charge read I/O somewhere
        assert sum(d.bytes_read for d in deltas) > 0

    def test_checkpoint_roundtrips_store_backend(self, tmp_path):
        net = _build("lsm", "pastry", bulk=True, rounds=1)
        path = str(tmp_path / "ckpt.json")
        net.save(path)
        loaded = KadopNetwork.load(path)
        assert loaded.config.store_backend == "lsm"
        assert isinstance(loaded.net.nodes[0].store, LsmStore)
        for query in QUERIES:
            assert [a.doc_id for a in loaded.query(query)] == [
                a.doc_id for a in net.query(query)
            ]


# -- LSM property tests ---------------------------------------------------------

ADVERSARIAL_TERMS = (
    "",  # empty key
    "author",
    "authors",  # shared prefix
    "author\x00x",  # embedded NUL (the clustered codec's escape case)
    "aut",
)


def _random_posting(rng, huge=False):
    if huge and rng.random() < 0.25:
        big = 2**63 - 1
        return Posting(big, big, big - 1, big, 255)
    start = rng.randrange(1, 5000)
    return Posting(
        rng.randrange(4), rng.randrange(6), start, start + rng.randrange(1, 9),
        rng.randrange(1, 12),
    )


class TestLsmProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ops_match_dict_oracle(self, seed):
        rng = random.Random(seed)
        store = LsmStore(memtable_postings=24, max_runs=3)
        oracle = {}
        for step in range(300):
            term = rng.choice(ADVERSARIAL_TERMS)
            action = rng.random()
            if action < 0.55:
                batch = [
                    _random_posting(rng, huge=True)
                    for _ in range(rng.randrange(1, 6))
                ]
                store.append(term, batch)
                oracle.setdefault(term, set()).update(
                    tuple(p) for p in batch
                )
            elif action < 0.75 and oracle.get(term):
                victim = rng.choice(sorted(oracle[term]))
                assert store.delete(term, [Posting(*victim)])
                oracle[term].discard(victim)
                if not oracle[term]:
                    del oracle[term]
            elif action < 0.85 and term in oracle:
                assert store.delete(term)
                del oracle[term]
            elif action < 0.93:
                store.flush()
            else:
                store.compact_tick()
            if step % 37 == 0:
                store.check_invariants()
        store.check_invariants()
        assert sorted(store.terms()) == sorted(oracle)
        for term in ADVERSARIAL_TERMS:
            expected = sorted(oracle.get(term, ()))
            got = [tuple(p) for p in store.get(term)]
            assert got == expected, "term %r diverged at seed %d" % (term, seed)
            assert store.count(term) == len(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_flush_and_full_compaction_equal_memtable_only(self, seed):
        rng = random.Random(1000 + seed)
        plain = LsmStore(memtable_postings=10**9)  # never flushes
        churned = LsmStore(memtable_postings=8, max_runs=2)
        for _ in range(150):
            term = rng.choice(ADVERSARIAL_TERMS)
            if rng.random() < 0.7:
                batch = [_random_posting(rng) for _ in range(3)]
                plain.append(term, batch)
                churned.append(term, batch)
            elif plain.count(term):
                victim = sorted(tuple(p) for p in plain.get(term))[0]
                plain.delete(term, [Posting(*victim)])
                churned.delete(term, [Posting(*victim)])
        churned.flush()
        while churned.compact_tick():
            pass
        for term in ADVERSARIAL_TERMS:
            assert list(churned.get(term)) == list(plain.get(term))

    def test_memtable_flush_threshold(self):
        store = LsmStore(memtable_postings=4)
        store.append("t", [Posting(0, 0, i, i + 1, 1) for i in range(1, 4)])
        assert store.num_runs == 0 and store.memtable_entries == 3
        store.append("t", [Posting(0, 0, 10, 11, 1)])
        assert store.num_runs == 1 and store.memtable_entries == 0

    def test_tombstones_collected_at_bottom(self):
        store = LsmStore(memtable_postings=2, max_runs=2)
        postings = [Posting(0, 0, i, i + 1, 1) for i in range(1, 9)]
        store.append("t", postings)
        for posting in postings[:6]:
            store.delete("t", [posting])
        store.delete("u", None)  # no-op drop of an absent term
        store.flush()
        while store.compact_tick():
            pass
        assert store.num_runs == 1
        bottom = store._runs[0]
        assert not bottom.dead and not bottom.dropped  # GC'd at the bottom
        assert [tuple(p) for p in store.get("t")] == [
            tuple(p) for p in postings[6:]
        ]

    def test_whole_term_drop_then_readd(self):
        store = LsmStore(memtable_postings=3, max_runs=2)
        store.append("t", [Posting(0, 0, 1, 2, 1), Posting(0, 0, 3, 4, 1)])
        store.flush()
        assert store.delete("t")
        store.append("t", [Posting(0, 0, 9, 10, 1)])
        store.flush()
        while store.compact_tick():
            pass
        assert [tuple(p) for p in store.get("t")] == [(0, 0, 9, 10, 1)]
        store.check_invariants()

    def test_duplicate_appends_do_not_double(self):
        store = LsmStore(memtable_postings=2)
        posting = Posting(1, 2, 3, 4, 5)
        assert store.append("t", [posting]) == 1
        store.flush()
        assert store.append("t", [posting]) == 0  # already live below
        store.flush()
        while store.compact_tick():
            pass
        assert store.count("t") == 1
        assert list(store.get("t")) == list(PostingList([posting]))

    def test_huge_posting_survives_codec_roundtrip(self):
        store = LsmStore(memtable_postings=1)  # immediate flush
        big = 2**63 - 1
        posting = Posting(big, big, big - 1, big, 1)
        store.append("edge", [posting])
        assert store.num_runs == 1
        assert [tuple(p) for p in store.get("edge")] == [tuple(posting)]

    def test_serving_clock_tick_compacts(self):
        store = LsmStore(memtable_postings=2, max_runs=10, compact_interval_s=0.5)
        for i in range(1, 9, 2):
            store.append("t", [Posting(0, 0, i, i + 1, 1), Posting(0, 0, i + 10, i + 11, 1)])
        assert store.num_runs == 4
        assert store.maybe_compact(0.0)  # first tick folds
        assert store.num_runs == 3
        assert not store.maybe_compact(0.2)  # within the interval: no fold
        assert store.maybe_compact(0.7)
        assert store.num_runs == 2


class TestFailedBatchAdmitsNothing:
    """A batch that fails before its index write leaves the peer as it
    was: no document, no allotted number, nothing in any store."""

    @pytest.mark.parametrize(
        "docs, uris, error, message",
        [
            (["<a>x</a>", "<a>x</b>"], None, XmlParseError, "mismatched end tag"),
            (["<a>x</a>", "<a>y</a>"], ["u:0"], ValueError, "got 1 uris for 2 documents"),
            (["<a>x</a>"], ["u:0", "u:1"], ValueError, "got 2 uris for 1 documents"),
        ],
    )
    def test_nothing_admitted(self, docs, uris, error, message):
        net = KadopNetwork.create(num_peers=3, seed=11)
        peer = net.peers[0]
        peer.publish("<seed>kept</seed>", uri="u:seed")
        documents, next_doc, keys = dict(peer.documents), peer._next_doc, net.net._all_keys()
        with pytest.raises(error, match=message):
            peer.publish_batch(docs, uris=uris)
        assert peer.documents == documents
        assert peer._next_doc == next_doc
        assert net.net._all_keys() == keys
        peer.publish_batch(["<a>x</a>"], uris=["u:a"])
        assert sorted(peer.documents) == [0, next_doc]
