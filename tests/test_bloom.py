"""Tests for dyadic decomposition, Bloom filters, and structural filters."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.analysis import (
    ab_fp_bound,
    basic_fp_rate,
    empirical_fp_rate,
    is_balanced,
    level_effect,
)
from repro.bloom.dyadic import (
    dyadic_containers,
    dyadic_cover,
    interval_level,
    level_for,
    point_chain,
)
from repro.bloom.filter import BloomFilter, optimal_params
from repro.bloom.structural import (
    PSI_C,
    AncestorBloomFilter,
    DescendantBloomFilter,
    psi,
)
from repro.index.publisher import extract_postings
from repro.postings import kernels
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.xmldata.parser import parse_document


class TestDyadic:
    def test_paper_example_cover(self):
        # D[1,7] = {[1,4],[5,6],[7,7]} (Section 5, running example)
        assert dyadic_cover(1, 7, 3) == [(1, 4), (5, 6), (7, 7)]

    def test_paper_example_containers(self):
        # Dc[3,4] = {[3,4],[1,4],[1,8]}
        assert dyadic_containers(3, 4, 3) == [(3, 4), (1, 4), (1, 8)]

    def test_full_interval(self):
        assert dyadic_cover(1, 8, 3) == [(1, 8)]

    def test_single_point(self):
        assert dyadic_cover(5, 5, 3) == [(5, 5)]
        assert point_chain(5, 3) == [(5, 5), (5, 6), (5, 8), (1, 8)]

    def test_point_chain_length(self):
        for x in (1, 4, 7, 8):
            assert len(point_chain(x, 3)) == 4  # l + 1

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            dyadic_cover(0, 3, 3)
        with pytest.raises(ValueError):
            dyadic_cover(3, 9, 3)
        with pytest.raises(ValueError):
            dyadic_containers(2, 1, 3)

    def test_level_for(self):
        assert level_for(1) == 0
        assert level_for(2) == 1
        assert level_for(9) == 4
        with pytest.raises(ValueError):
            level_for(0)

    def test_interval_level(self):
        assert interval_level((1, 8)) == 3
        assert interval_level((5, 6)) == 1
        with pytest.raises(ValueError):
            interval_level((2, 3))  # not aligned
        with pytest.raises(ValueError):
            interval_level((1, 3))  # not a power of two

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cover_properties(self, data):
        l = data.draw(st.integers(min_value=1, max_value=12))
        x = data.draw(st.integers(min_value=1, max_value=1 << l))
        y = data.draw(st.integers(min_value=x, max_value=1 << l))
        cover = dyadic_cover(x, y, l)
        # disjoint, contiguous, covering exactly [x, y]
        assert cover[0][0] == x and cover[-1][1] == y
        for (alo, ahi), (blo, bhi) in zip(cover, cover[1:]):
            assert ahi + 1 == blo
        # all dyadic, at most 2l of them
        for interval in cover:
            interval_level(interval)
        assert len(cover) <= max(1, 2 * l)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_containers_properties(self, data):
        l = data.draw(st.integers(min_value=1, max_value=12))
        x = data.draw(st.integers(min_value=1, max_value=1 << l))
        y = data.draw(st.integers(min_value=x, max_value=1 << l))
        containers = dyadic_containers(x, y, l)
        assert containers, "top interval always contains"
        assert containers[-1] == (1, 1 << l)
        for lo, hi in containers:
            assert lo <= x and y <= hi
            interval_level(interval := (lo, hi))
        # one candidate per level at most
        levels = [interval_level(i) for i in containers]
        assert len(set(levels)) == len(levels)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cover_container_duality(self, data):
        """Theorem 1's geometric core: [x,y] ⊆ [a,b] iff every piece of
        D[x,y] has a container inside D[a,b]."""
        l = data.draw(st.integers(min_value=1, max_value=9))
        a = data.draw(st.integers(min_value=1, max_value=1 << l))
        b = data.draw(st.integers(min_value=a, max_value=1 << l))
        x = data.draw(st.integers(min_value=1, max_value=1 << l))
        y = data.draw(st.integers(min_value=x, max_value=1 << l))
        outer = set(dyadic_cover(a, b, l))
        covered = all(
            any(c in outer for c in dyadic_containers(lo, hi, l))
            for lo, hi in dyadic_cover(x, y, l)
        )
        assert covered == (a <= x and y <= b)


BACKENDS = ["pure"] + (["numpy"] if kernels.numpy_available() else [])


@pytest.fixture(params=BACKENDS)
def backend(request):
    previous = kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(previous)


@pytest.fixture
def each_backend():
    """An iterator over the backend names that activates each in turn; the
    test's backend is restored afterwards, also when the test fails."""

    def activate():
        for name in BACKENDS:
            kernels.use_backend(name)
            yield name

    previous = kernels.backend_name()
    yield activate()
    kernels.use_backend(previous)


def _keys(tag, n):
    return [b"(i%d,i%d,i%d)" % (tag, i, i * 2) for i in range(n)]


class TestBloomFilter:
    def test_no_false_negatives(self, each_backend):
        for name in each_backend:
            f = BloomFilter.for_items(100, 0.01)
            keys = _keys(0, 100)
            f.insert_serialized_batch(keys)
            assert all(f.contains_serialized_batch(keys)), name

    #: the (bits, hashes, fill) grid; ``fill`` is the expected share of
    #: set bits, ``1 - e^(-kn/m)``, so the load is n = -m ln(1 - fill) / k
    FP_GRID = [
        (bits, hashes, fill)
        for bits in (512, 4099, 20000)
        for hashes in (1, 4, 7)
        for fill in (0.2, 0.5)
    ]

    def test_fp_rate_approximates_target(self, each_backend):
        """At every grid point the false-positive count of fresh keys lies
        in a binomial bound around ``N * basic_fp_rate(m, k, n)``: five
        standard deviations plus a floor of three counts, for the sparse
        points where the expected count is below one."""
        probes = 2000
        for name in each_backend:
            for bits, hashes, fill in self.FP_GRID:
                n = round(-bits * math.log(1 - fill) / hashes)
                f = BloomFilter(bits, hashes, seed=bits + hashes)
                f.insert_serialized_batch(_keys(0, n))
                false_positives = sum(f.contains_serialized_batch(_keys(1, probes)))
                p = basic_fp_rate(bits, hashes, n)
                bound = 5 * math.sqrt(probes * p * (1 - p)) + 3
                assert abs(false_positives - probes * p) <= bound, (
                    name, bits, hashes, fill, false_positives, probes * p,
                )

    def test_deterministic(self, each_backend):
        vectors = set()
        for _name in each_backend:
            a, b = BloomFilter(256, 3, seed=9), BloomFilter(256, 3, seed=9)
            a.insert_serialized_batch([b"(i1,i2)"])
            b.insert_serialized_batch([b"(i1,i2)"])
            assert a._vector == b._vector
            vectors.add(bytes(a._vector))
        assert len(vectors) == 1  # and the same bits under every backend

    def test_seed_independence(self, each_backend):
        for name in each_backend:
            a, b = BloomFilter(256, 3, seed=1), BloomFilter(256, 3, seed=2)
            a.insert_serialized_batch([b"(i1,i2)"])
            b.insert_serialized_batch([b"(i1,i2)"])
            assert a._vector != b._vector, name

    def test_optimal_params(self):
        m, k = optimal_params(1000, 0.01)
        assert m >= 9000  # ~9.6 bits/item
        assert 5 <= k <= 9

    def test_param_validation(self):
        with pytest.raises(ValueError):
            optimal_params(10, 1.5)
        with pytest.raises(ValueError):
            BloomFilter(100, 0)

    def test_size_bytes(self):
        f = BloomFilter(1024, 3)
        assert f.size_bytes == 1024 // 8 + 16


class TestPsiAnalysis:
    def test_psi_values(self):
        assert psi(0, 4) == 1
        assert psi(4, 4) == 2
        assert psi(8, 4) == 3

    def test_ab_bound_monotone_in_fp(self):
        assert ab_fp_bound(0.01, 20, 4) < ab_fp_bound(0.2, 20, 4) < 1

    def test_basic_fp_rate(self):
        assert basic_fp_rate(1000, 3, 0) == 0.0
        assert 0 < basic_fp_rate(1000, 3, 100) < 1

    def test_balancing_property(self):
        # fp < 1/2^c=1/16: every level's expected effect bounded by 1/16
        assert is_balanced(0.05, 30, 4)
        assert not is_balanced(0.2, 30, 4)

    def test_level_effect(self):
        assert level_effect(0.05, 0, 4) == pytest.approx(0.05)

    def test_empirical_fp_rate(self):
        assert empirical_fp_rate(filtered=30, truly_matching=10, total=110) == 0.2
        assert empirical_fp_rate(filtered=10, truly_matching=10, total=10) == 0.0


def _doc_filters_fixture():
    doc = parse_document(
        "<r>"
        "<a><b>w1</b><c/></a>"
        "<a><c><b>w2</b></c></a>"
        "<d><b>w3</b></d>"
        "<a/>"
        "</r>"
    )
    extracted = extract_postings(doc, 0, 0)
    la = PostingList(extracted["elem:a"])
    lb = PostingList(extracted["elem:b"])
    return doc, la, lb


class TestStructuralFilters:
    def test_abf_keeps_all_true_descendants(self):
        _, la, lb = _doc_filters_fixture()
        abf = AncestorBloomFilter(la, fp_rate=0.05)
        kept = abf.filter_postings(lb)
        true_matches = [
            b for b in lb if any(a.is_ancestor_of(b) for a in la)
        ]
        for b in true_matches:
            assert b in kept

    def test_abf_rejects_unrelated(self):
        _, la, lb = _doc_filters_fixture()
        abf = AncestorBloomFilter(la, fp_rate=0.001)
        kept = abf.filter_postings(lb)
        # the b under d has no a ancestor; with fp 0.1% it must be dropped
        d_b = [b for b in lb if not any(a.is_ancestor_of(b) for a in la)]
        assert d_b, "fixture must contain a non-matching b"
        assert all(b not in kept for b in d_b) or len(kept) < len(lb)

    def test_dbf_keeps_all_true_ancestors(self):
        _, la, lb = _doc_filters_fixture()
        dbf = DescendantBloomFilter(lb, fp_rate=0.05)
        kept = dbf.filter_postings(la)
        for a in la:
            if any(a.is_ancestor_of(b) for b in lb):
                assert a in kept

    def test_dbf_drops_childless(self):
        _, la, lb = _doc_filters_fixture()
        dbf = DescendantBloomFilter(lb, fp_rate=0.001)
        childless = [a for a in la if not any(a.is_ancestor_of(b) for b in lb)]
        assert childless
        kept = dbf.filter_postings(la)
        assert len(kept) < len(la)

    def test_dbf_or_self(self):
        plist = PostingList([Posting(0, 0, 2, 3, 1)])
        dbf = DescendantBloomFilter(plist, fp_rate=0.01)
        # strict: an element is not its own descendant
        assert not dbf.may_have_descendant(Posting(0, 0, 2, 3, 1))
        assert dbf.may_have_descendant(Posting(0, 0, 2, 3, 1), or_self=True)

    def test_abf_self_passes(self):
        # AB filters are inherently or-self (word-predicate semantics)
        plist = PostingList([Posting(0, 0, 2, 5, 1)])
        abf = AncestorBloomFilter(plist, fp_rate=0.01)
        assert abf.may_have_ancestor(Posting(0, 0, 2, 5, 1))

    def test_filters_respect_documents(self):
        la = PostingList([Posting(0, 0, 1, 10, 0)])
        lb_other_doc = PostingList([Posting(0, 1, 2, 3, 1)])
        abf = AncestorBloomFilter(la, fp_rate=0.001)
        assert len(abf.filter_postings(lb_other_doc)) == 0

    def test_sizes_smaller_than_lists(self):
        doc = parse_document(
            "<r>%s</r>" % "".join("<a><b>t</b></a>" for _ in range(300))
        )
        extracted = extract_postings(doc, 0, 0)
        la = PostingList(extracted["elem:a"])
        from repro.postings.encoder import encoded_size

        abf = AncestorBloomFilter(la, fp_rate=0.2)
        assert abf.size_bytes < encoded_size(la) * 2  # compact vs raw

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_one_sidedness_random(self, seed):
        """Neither filter ever drops a posting that truly joins."""
        rng = random.Random(seed)
        parts = []

        def build(depth, budget):
            label = rng.choice("abc")
            parts.append("<%s>" % label)
            for _ in range(0 if depth > 3 else rng.randint(0, 3)):
                if budget[0] <= 0:
                    break
                budget[0] -= 1
                build(depth + 1, budget)
            parts.append("</%s>" % label)

        build(0, [20])
        doc = parse_document("".join(parts))
        extracted = extract_postings(doc, 0, 0)
        la = PostingList(extracted.get("elem:a", []))
        lb = PostingList(extracted.get("elem:b", []))
        if not la or not lb:
            return
        abf = AncestorBloomFilter(la, fp_rate=0.1)
        kept_b = abf.filter_postings(lb)
        for b in lb:
            if any(a.is_ancestor_of(b) for a in la):
                assert b in kept_b
        dbf = DescendantBloomFilter(lb, fp_rate=0.1)
        kept_a = dbf.filter_postings(la)
        for a in la:
            if any(a.is_ancestor_of(b) for b in lb):
                assert a in kept_a


def _random_intervals(rng, n, pos_max):
    """``n`` element intervals over 2 peers x 5 documents; about a third
    are leaves (``start == end``, an empty interior either way)."""
    items = []
    for _ in range(n):
        start = rng.randrange(1, pos_max)
        width = rng.choice((0, 1, 2, rng.randrange(pos_max)))
        items.append(
            Posting(rng.randrange(2), rng.randrange(5), start, start + width, 1)
        )
    return PostingList(items)


class TestDescendantProbeExactness:
    """``filter_postings``' kernel path keeps exactly the postings the
    scalar ``may_have_descendant`` keeps, under every backend."""

    @pytest.mark.parametrize("fp_rate", [0.01, 0.2, 0.5])
    def test_batch_path_equals_scalar_oracle(self, backend, fp_rate):
        kept_some = dropped_some = False
        for seed in range(25):
            rng = random.Random(seed)
            lb = _random_intervals(rng, rng.randrange(1, 30), 200)
            # probe positions run past the source's: end > 2**l is clamped
            for size in (0, 1, 9, 120):
                la = _random_intervals(rng, size, 300)
                for l in (None, level_for(lb.max_end()) + 2):
                    dbf = DescendantBloomFilter(lb, l=l, fp_rate=fp_rate, seed=seed)
                    for or_self in (False, True):
                        want = [
                            p for p in la
                            if dbf.may_have_descendant(p, or_self=or_self)
                        ]
                        got = dbf.filter_postings(la, or_self=or_self)
                        assert got.items() == want, (seed, size, l, or_self)
                        kept_some |= bool(want)
                        dropped_some |= len(want) < len(la)
        assert kept_some and dropped_some


class TestAncestorProbeExactness:
    """``filter_postings``' staged batch probe keeps exactly the postings
    the scalar ``may_have_ancestor`` keeps, under every backend."""

    @pytest.mark.parametrize("fp_rate", [0.01, 0.2, 0.5])
    def test_batch_path_equals_scalar_oracle(self, backend, fp_rate):
        kept_some = dropped_some = False
        for seed in range(12):
            rng = random.Random(seed)
            la = _random_intervals(rng, rng.randrange(1, 30), 200)
            # probe positions run past the source's: end > 2**l is dropped
            for size in (0, 1, 9, 60):
                lb = _random_intervals(rng, size, 300)
                for l in (None, level_for(la.max_end()) + 2):
                    for psi_c, bits in ((PSI_C, None), (None, None), (PSI_C, 256)):
                        abf = AncestorBloomFilter(
                            la, l=l, fp_rate=fp_rate, psi_c=psi_c, seed=seed, bits=bits
                        )
                        want = [p for p in lb if abf.may_have_ancestor(p)]
                        got = abf.filter_postings(lb)
                        assert got.items() == want, (seed, size, l, psi_c, bits)
                        kept_some |= bool(want)
                        dropped_some |= len(want) < len(lb)
        assert kept_some and dropped_some
