"""Tests for the block-based parallel twig join (Section 4.2)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.publisher import extract_postings
from repro.kadop.execution import term_key_of
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.query.block_join import (
    Block,
    BlockJoinResult,
    LazyBlock,
    demand_driven_block_join,
    meaningful_vectors,
)
from repro.query.twigjoin import twig_join, twig_roots
from repro.query.xpath import parse_query
from repro.xmldata.parser import parse_document


def B(lo, hi):
    """An empty-content block with explicit (peer, doc) bounds."""
    return Block(PostingList(), doc_lo=(0, lo), doc_hi=(0, hi))


class TestMeaningfulVectors:
    def test_disjoint_ranges_no_vectors(self):
        vectors = list(meaningful_vectors([[B(0, 4)], [B(5, 9)]]))
        assert vectors == []

    def test_aligned_partitions_staircase(self):
        lists = [
            [B(0, 2), B(3, 5), B(6, 8)],
            [B(0, 5), B(6, 8)],
        ]
        vectors = list(meaningful_vectors(lists))
        assert vectors == [(0, 0), (1, 0), (2, 1)]
        # the paper's bound
        assert len(vectors) <= 3 + 2

    def test_boundary_split_blocks_all_combos(self):
        """Blocks split inside a document: every combo sharing the boundary
        document must be enumerated or matches would be lost."""
        lists = [
            [B(0, 5), B(5, 9)],
            [B(0, 5), B(5, 9)],
        ]
        vectors = set(meaningful_vectors(lists))
        assert vectors == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_empty_list_yields_nothing(self):
        assert list(meaningful_vectors([[B(0, 1)], []])) == []
        assert list(meaningful_vectors([])) == []

    def test_single_list(self):
        assert list(meaningful_vectors([[B(0, 1), B(2, 3)]])) == [(0,), (1,)]

    def test_bound_for_doc_aligned_partitions(self):
        """Random doc-aligned partitions respect m1+...+mn."""
        rng = random.Random(7)
        for _ in range(50):
            lists = []
            for _ in range(rng.randint(1, 4)):
                bounds = sorted(rng.sample(range(0, 100), rng.randint(2, 8)))
                blocks = [
                    B(lo + 1 if i else 0, hi)
                    for i, (lo, hi) in enumerate(zip([-1] + bounds, bounds))
                ]
                lists.append(blocks)
            vectors = list(meaningful_vectors(lists))
            assert len(vectors) <= sum(len(l) for l in lists)

    def test_block_bounds_from_postings(self):
        from repro.postings.posting import Posting

        block = Block(
            PostingList([Posting(0, 2, 1, 2, 1), Posting(0, 5, 1, 2, 1)])
        )
        assert block.doc_lo == (0, 2)
        assert block.doc_hi == (0, 5)

    def test_empty_block_needs_bounds(self):
        with pytest.raises(ValueError):
            Block(PostingList())


def _blocks_from_stream(stream, cuts, rng):
    """Partition a posting list into blocks at random positions."""
    items = stream.items()
    if not items:
        return []
    positions = sorted(rng.sample(range(1, len(items)), min(cuts, len(items) - 1))) if len(items) > 1 else []
    blocks = []
    prev = 0
    for pos in positions + [len(items)]:
        chunk = PostingList(items[prev:pos], presorted=True)
        if len(chunk):
            blocks.append(Block(chunk))
        prev = pos
    return blocks


def _random_corpus(seed):
    """A random multi-document corpus, a pattern over it and its streams
    (one merged list per pattern node), or None when a stream is empty."""
    rng = random.Random(seed)
    docs = []
    for d in range(rng.randint(1, 4)):
        parts = []

        def build(depth, budget):
            label = rng.choice("ab")
            parts.append("<%s>" % label)
            for _ in range(0 if depth > 3 else rng.randint(0, 3)):
                if budget[0] <= 0:
                    break
                budget[0] -= 1
                build(depth + 1, budget)
            parts.append("</%s>" % label)

        build(0, [12])
        docs.append(parse_document("".join(parts)))

    pattern = parse_query(rng.choice(["//a//b", "//a/b", "//a//a", "//b//a//b"]))
    parts = {node.node_id: [] for node in pattern.nodes()}
    for d, doc in enumerate(docs):
        extracted = extract_postings(doc, 0, d)
        for node in pattern.nodes():
            parts[node.node_id].append(PostingList(extracted.get(term_key_of(node), [])))
    streams = {nid: PostingList.concat(lists) for nid, lists in parts.items()}
    if any(not len(s) for s in streams.values()):
        return None
    return rng, pattern, streams


def _block_cursors(blocks_per_node, calls):
    """Cursors over random blocks as ``_fetch_dpp`` builds them: each bound
    is the block's condition, clamped to the query's document window.

    A block's condition reaches back to the last document of the block
    before it and on to the first document of the block after it, as
    consecutive DPP conditions touch, so it is wider than the block's own
    documents; the window is ``[max first lo, min last hi]`` over the
    nodes.  Loaders log into ``calls``."""
    doc_lo = max(blocks[0].doc_lo for blocks in blocks_per_node.values())
    doc_hi = min(blocks[-1].doc_hi for blocks in blocks_per_node.values())
    cursors = {}
    for nid, blocks in blocks_per_node.items():
        cursors[nid] = []
        for i, block in enumerate(blocks):
            def loader(plist=block.postings, tag=(nid, i)):
                calls.append(tag)
                return plist

            lo = blocks[i - 1].doc_hi if i else block.doc_lo
            hi = blocks[i + 1].doc_lo if i + 1 < len(blocks) else block.doc_hi
            cursors[nid].append(
                LazyBlock(
                    max(lo, doc_lo), min(hi, doc_hi), loader,
                    count=len(block.postings),
                )
            )
    return cursors


def _merged_docs(pattern, streams):
    """The reference: the documents the root of ``twig_join`` over the
    merged lists is bound in."""
    root_id = pattern.root.node_id
    return {sol[root_id].doc_id for sol in twig_join(pattern, streams)}


def _realized(cursors):
    """``cursors`` after realizing every one, as eager and window mode do
    before the join."""
    for lazies in cursors.values():
        for cursor in lazies:
            cursor.realize()
    return cursors


def _random_blocks(seed):
    """``(pattern, streams, blocks)`` for a random corpus cut into random
    blocks (cuts inside documents included), or None."""
    corpus = _random_corpus(seed)
    if corpus is None:
        return None
    rng, pattern, streams = corpus
    blocks = {
        nid: _blocks_from_stream(stream, rng.randint(0, 4), rng)
        for nid, stream in streams.items()
    }
    return pattern, streams, blocks


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_block_join_equals_merged_join(seed):
    """Differential: the block join over cursors realized before it runs
    (the eager and window fetch modes) finds the documents of the join of
    the merged lists, and it joins exactly the meaningful vectors of the
    realized blocks' own document spans."""
    case = _random_blocks(seed)
    if case is None:
        return
    pattern, streams, blocks = case
    result = demand_driven_block_join(pattern, _realized(_block_cursors(blocks, [])))
    assert result.docs == _merged_docs(pattern, streams)
    assert isinstance(result, BlockJoinResult)
    assert result.vectors_bound == sum(len(b) for b in blocks.values())
    realized = [blocks[node.node_id] for node in pattern.nodes()]
    assert result.vectors_considered == len(list(meaningful_vectors(realized)))


def _lazy_wrap(blocks_per_node, calls):
    """Wrap eager blocks as LazyBlocks whose loaders log into ``calls``."""
    lazy = {}
    for nid, blist in blocks_per_node.items():
        lazy_list = []
        for i, block in enumerate(blist):
            def loader(plist=block.postings, tag=(nid, i)):
                calls.append(tag)
                return plist

            lazy_list.append(
                LazyBlock(
                    block.doc_lo, block.doc_hi, loader,
                    count=len(block.postings),
                )
            )
        lazy[nid] = lazy_list
    return lazy


class TestLazyBlocks:
    def test_realize_fetches_exactly_once(self):
        calls = []
        plist = PostingList([Posting(0, 0, 1, 2, 1)])

        def loader():
            calls.append(1)
            return plist

        lazy = LazyBlock((0, 0), (0, 0), loader, count=1)
        assert not lazy.fetched
        first = lazy.realize()
        second = lazy.realize()
        assert first is second
        assert first.postings is plist
        assert calls == [1]
        assert lazy.fetched
        assert lazy.loader is None

    def test_empty_realization_caches_none(self):
        calls = []

        def loader():
            calls.append(1)
            return PostingList()

        lazy = LazyBlock((0, 0), (0, 0), loader)
        assert lazy.realize() is None
        assert lazy.realize() is None
        assert calls == [1]

    def test_blocks_outside_every_vector_stay_unfetched(self):
        pattern = parse_query("//a//b")
        a_id, b_id = (n.node_id for n in pattern.nodes())
        a_near = PostingList([Posting(0, 0, 1, 10, 0)])
        b_near = PostingList([Posting(0, 0, 2, 3, 1)])
        b_far = PostingList([Posting(0, 9, 2, 3, 1)])  # no 'a' near doc 9
        calls = []
        lazy = _lazy_wrap(
            {a_id: [Block(a_near)], b_id: [Block(b_near), Block(b_far)]},
            calls,
        )
        result = demand_driven_block_join(pattern, lazy)
        assert result.docs == {(0, 0)}
        # the doc-9 'b' block intersects no 'a' block: never demanded
        assert (b_id, 1) not in calls
        assert not lazy[b_id][1].fetched


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_demand_join_matches_eager_block_join(seed):
    """Differential: over unfetched cursors (lazy mode) the block join
    finds the documents of the join of the merged lists, and returns the
    vector count it returns over cursors realized up front; it fetches
    each block at most once and shares the same vector bound."""
    case = _random_blocks(seed)
    if case is None:
        return
    pattern, streams, blocks = case
    eager = demand_driven_block_join(pattern, _realized(_block_cursors(blocks, [])))
    calls = []
    lazy = demand_driven_block_join(pattern, _block_cursors(blocks, calls))
    assert lazy.docs == _merged_docs(pattern, streams)
    assert lazy.docs == eager.docs
    assert lazy.vectors_considered == eager.vectors_considered
    assert lazy.vectors_bound == eager.vectors_bound
    assert len(calls) == len(set(calls))  # at most one fetch per block
    assert len(calls) <= sum(len(b) for b in blocks.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_twig_roots_equals_root_bindings(seed):
    """Differential: the reducer's kept root rows == the sorted, distinct
    root bindings of the full join."""
    corpus = _random_corpus(seed)
    if corpus is None:
        return
    _rng, pattern, streams = corpus
    root_id = pattern.root.node_id
    bindings = sorted({tuple(sol[root_id]) for sol in twig_join(pattern, streams)})
    assert [tuple(p) for p in twig_roots(pattern, streams)] == bindings


class TestExecutorIntegration:
    def test_block_vectors_reported(self):
        from repro.kadop.config import KadopConfig
        from repro.kadop.system import KadopNetwork

        config = KadopConfig(use_dpp=True, dpp_block_entries=15, replication=1)
        net = KadopNetwork.create(num_peers=8, config=config, seed=2)
        for d in range(4):
            body = "".join("<x>w%d</x>" % i for i in range(12))
            net.peers[0].publish("<r>%s</r>" % body, uri="u:%d" % d)
        _, report = net.query_with_report("//r//x")
        assert report.block_vectors >= 1
        assert report.block_vectors <= report.blocks_fetched + 4
