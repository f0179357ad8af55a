"""Differential tests for the pluggable kernel backends.

The numpy backend must be byte-identical to the pure backend on every
kernel — merge, concat, the delta-varint codec, batch bisect, the
twig join's semi-join and expansion, and the Bloom bit kernels — including the adversarial
edges: empty and single-row inputs, duplicate keys across inputs,
negative levels, and values at the 2**63 - 1 boundary (which exercise
the fallback paths).  A final end-to-end section runs the same query
workload under both backends on Pastry AND Chord and asserts identical
answers and identical metered traffic.
"""

import inspect
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bloom.filter import BloomFilter
from repro.bloom.structural import DescendantBloomFilter
from repro.kadop.config import KadopConfig
from repro.postings import kernels
from repro.postings.kernels import pure
from repro.postings.plist import PostingList
from repro.postings.posting import Posting
from repro.query.pattern import Axis

HAVE_NUMPY = kernels.numpy_available()
requires_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
npk = kernels.resolve("numpy") if HAVE_NUMPY else None

BIG = 2**63 - 1


@pytest.fixture
def restore_backend():
    previous = kernels.backend_name()
    yield
    kernels.use_backend(previous)


def random_rows(rng, n, peer_max=4, doc_max=40, pos_max=400, neg_levels=False):
    rows = []
    for _ in range(n):
        start = rng.randrange(pos_max)
        level = rng.randrange(-3, 9) if neg_levels else rng.randrange(9)
        rows.append(
            (
                rng.randrange(peer_max),
                rng.randrange(doc_max),
                start,
                start + rng.randrange(1, 50),
                level,
            )
        )
    return rows


def big_rows(rng, n):
    """Rows hugging the int64 boundary: forces the pack/codec fallbacks."""
    rows = []
    for _ in range(n):
        start = BIG - rng.randrange(1, 1000)
        rows.append(
            (
                rng.randrange(3),
                BIG - rng.randrange(5),
                start,
                min(BIG, start + rng.randrange(1, 10)),
                rng.randrange(4),
            )
        )
    return rows


def arrays_of(rows):
    return PostingList(rows).arrays()


def case_rows(rng, case):
    """One adversarial input per case index."""
    kind = case % 5
    if kind == 0:
        return []
    if kind == 1:
        return random_rows(rng, 1)
    if kind == 2:
        return random_rows(rng, rng.randrange(2, 120))
    if kind == 3:
        return random_rows(rng, rng.randrange(2, 60), neg_levels=True)
    return big_rows(rng, rng.randrange(1, 20))


#: hand-made expansion inputs: outer rows, inner rows, the outer row
#: indexes asked about
_EXPAND_EDGES = (
    # empty outer rows, empty inner rows, an empty row list
    ([], [(0, 0, 2, 3, 2)], []),
    ([(0, 0, 1, 10, 1)], [], [0]),
    ([(0, 0, 1, 10, 1)], [(0, 0, 2, 3, 2)], []),
    # peer and document boundaries: inner rows whose starts fall inside the
    # outer interval, in the document before, the one after, and on the
    # next peer
    (
        [(0, 1, 1, 10, 1), (1, 0, 1, 10, 1)],
        [(0, 0, 2, 3, 2), (0, 1, 2, 3, 2), (0, 2, 2, 3, 2), (1, 0, 5, 6, 2), (1, 1, 5, 6, 2)],
        [0, 1],
    ),
    # equal starts: the element itself (``.//`` binds it, ``//`` and ``/``
    # do not), and its right neighbour starting at its end
    ([(0, 0, 4, 7, 1)], [(0, 0, 4, 7, 1), (0, 0, 5, 6, 2), (0, 0, 7, 8, 1)], [0]),
    # ``/`` at the wrong level: a grandchild, and a child two levels down
    ([(0, 0, 1, 12, 1)], [(0, 0, 2, 9, 2), (0, 0, 3, 4, 3), (0, 0, 10, 11, 3)], [0]),
    # ``.//``'s end test: a start inside [start, end] but an end past it
    ([(0, 0, 4, 7, 1)], [(0, 0, 5, 9, 2), (0, 0, 7, 7, 2), (0, 0, 7, 9, 2)], [0]),
    # duplicate outer rows, out of order, and an outer row with nothing below
    (
        [(0, 0, 1, 10, 1), (0, 0, 2, 5, 2), (0, 0, 20, 21, 1)],
        [(0, 0, 2, 5, 2), (0, 0, 3, 4, 3), (0, 0, 6, 7, 2)],
        [0, 0, 2, 1, 1, 0],
    ),
)


def _expand_cases(rng):
    """The hand-made edges, then random ones: few documents so that rows
    nest, some rows repeated."""
    yield from _EXPAND_EDGES
    for _ in range(60):
        outer = random_rows(rng, rng.randrange(1, 50), peer_max=2, doc_max=3, pos_max=60)
        inner = random_rows(rng, rng.randrange(1, 50), peer_max=2, doc_max=3, pos_max=60)
        n = len(set(outer))
        yield outer, inner, sorted(rng.choices(range(n), k=rng.randrange(2 * n)))


def _expand_reference(cols, inner_cols, axis, rows):
    """``expand_below`` by brute force over ``Axis.admits``."""
    admits = Axis(axis).admits
    outer = [Posting(*row) for row in zip(*cols)]
    inner = [Posting(*row) for row in zip(*inner_cols)]
    owner, found = [], []
    for k, r in enumerate(rows):
        for j, row in enumerate(inner):
            if row.doc_id == outer[r].doc_id and admits(outer[r], row):
                owner.append(k)
                found.append(j)
    return owner, found


class TestMergeConcatEquivalence:
    @requires_numpy
    def test_merge_matches_pure(self):
        rng = random.Random(901)
        for case in range(60):
            rows_a = case_rows(rng, case)
            # force overlaps and duplicate keys between the two inputs
            rows_b = case_rows(rng, case + 2) + rows_a[::3]
            a, b = arrays_of(rows_a), arrays_of(rows_b)
            assert npk.merge(a, b) == pure.merge(a, b), case

    @requires_numpy
    def test_concat_matches_pure(self):
        rng = random.Random(902)
        for case in range(40):
            chunks = [
                arrays_of(case_rows(rng, case + j))
                for j in range(rng.randrange(2, 6))
            ]
            assert npk.concat_sorted(chunks) == pure.concat_sorted(chunks), case

    @requires_numpy
    def test_facade_merge_identical_across_backends(self, restore_backend):
        rng = random.Random(903)
        rows_a = random_rows(rng, 200)
        rows_b = random_rows(rng, 150) + rows_a[::4]
        a = PostingList(rows_a)
        b = PostingList(rows_b)
        kernels.use_backend("pure")
        merged_pure = a.merge(b)
        kernels.use_backend("numpy")
        assert a.merge(b) == merged_pure


def codec_rows(rng, case):
    """Encodable adversarial rows: negative levels are unencodable by
    design (the wire format is unsigned), so skip that variant here."""
    kind = (0, 1, 2, 4)[case % 4]
    return case_rows(rng, kind)


class TestCodecEquivalence:
    @requires_numpy
    def test_encode_decode_size_match_pure(self):
        rng = random.Random(904)
        for case in range(50):
            cols = arrays_of(codec_rows(rng, case))
            data = pure.encode(cols)
            assert npk.encode(cols) == data, case
            assert npk.encoded_size(cols) == len(data) == pure.encoded_size(cols)
            assert npk.wire_values(cols) == pure.wire_values(cols)
            # decode with a prefix offset, both backends
            blob = b"\xAA\xBB" + data + b"tail"
            got_np, pos_np = npk.decode(blob, 2)
            got_pure, pos_pure = pure.decode(blob, 2)
            assert got_np == got_pure and pos_np == pos_pure == 2 + len(data)

    @requires_numpy
    def test_truncated_stream_same_error(self):
        rng = random.Random(905)
        data = pure.encode(arrays_of(random_rows(rng, 30)))
        for cut in (0, 1, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError) as err_pure:
                pure.decode(data[:cut])
            with pytest.raises(ValueError) as err_np:
                npk.decode(data[:cut])
            assert str(err_np.value) == str(err_pure.value), cut

    @requires_numpy
    def test_negative_values_same_error(self):
        # end < start yields a negative wire value, unencodable as uvarint;
        # both backends must raise ValueError
        from array import array

        cols = tuple(
            array("q", values) for values in ([0], [0], [5], [2], [1])
        )
        with pytest.raises(ValueError):
            pure.encode(cols)
        with pytest.raises(ValueError):
            npk.encode(cols)
        # same for a negative level
        cols = tuple(
            array("q", values) for values in ([0], [0], [2], [5], [-1])
        )
        with pytest.raises(ValueError):
            pure.encode(cols)
        with pytest.raises(ValueError):
            npk.encode(cols)

    @requires_numpy
    def test_big_value_roundtrip(self):
        rng = random.Random(906)
        cols = arrays_of(big_rows(rng, 10))
        data = pure.encode(cols)
        assert npk.encode(cols) == data
        assert npk.decode(data) == pure.decode(data)


def _row(peer, doc, start, span, level):
    return (peer, doc, start, start + span, level)


#: sorted segments with peer and doc changes inside a segment, and one-
#: and two-byte starts (a start delta that fails to restart at a segment
#: boundary changes the size)
_small_rows = st.builds(
    _row, st.integers(0, 1), st.integers(0, 2), st.integers(0, 2000),
    st.integers(0, 40), st.integers(0, 9),
)
#: sorted segments of nine-byte varints (no int64 overflow: all >= 0)
_big_rows = st.builds(
    _row, st.integers(0, 3), st.integers(BIG - 4, BIG), st.integers(BIG - 2000, BIG - 1000),
    st.integers(0, 999), st.integers(0, 9),
)
#: unsorted segments with negative deltas, spans and levels: the numpy
#: kernel falls back to pure on these
_raw_rows = st.tuples(*[st.integers(-50, 300)] * 5)


@st.composite
def _segments(draw):
    rows, order = draw(st.sampled_from([
        (_small_rows, "each"), (_small_rows, "all"), (_big_rows, "each"), (_raw_rows, None),
    ]))
    # up to 320 rows: counts past 127 take two bytes
    segments = draw(st.lists(st.lists(rows, max_size=8), max_size=40))
    if order == "each":
        return [sorted(seg) for seg in segments]
    if order == "all":
        # sorted across segments too: no negative delta sends numpy to pure
        flat = iter(sorted(row for seg in segments for row in seg))
        return [[next(flat) for _ in seg] for seg in segments]
    return segments


class TestSegmentedSizeKernel:
    BACKENDS = [pure] + ([npk] if HAVE_NUMPY else [])

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.NAME)
    @settings(max_examples=150, deadline=None)
    @given(segments=_segments())
    def test_sum_of_segment_sizes(self, backend, segments):
        rows = [row for seg in segments for row in seg]
        offsets = list(itertools.accumulate(len(seg) for seg in segments))
        cols = pure._transpose(rows)
        each = [backend.encoded_size(pure._transpose(seg)) for seg in segments]
        got = backend.encoded_sizes(cols, offsets)
        assert got == sum(each) == pure.encoded_sizes(cols, offsets)
        # one segment is the one-list case
        assert backend.encoded_sizes(cols, [len(rows)]) == backend.encoded_size(cols)

    @requires_numpy
    def test_negative_values_fall_back_to_pure(self, monkeypatch):
        calls = []
        reference = pure.encoded_sizes

        def spy(cols, offsets):
            calls.append(offsets)
            return reference(cols, offsets)

        monkeypatch.setattr(pure, "encoded_sizes", spy)
        # the second segment's level is negative
        cols = pure._transpose([(0, 1, 5, 6, 1), (2, 0, 3, 9, -1)])
        assert npk.encoded_sizes(cols, [1, 2]) == reference(cols, [1, 2])
        assert calls == [[1, 2]]


class TestSearchKernelEquivalence:
    @requires_numpy
    def test_batch_bisect_matches_pure(self):
        rng = random.Random(907)
        for case in range(30):
            rows = case_rows(rng, case + 2)
            cols = PostingList(rows)
            raw = cols.arrays()
            keys = [
                (
                    rng.randrange(4),
                    rng.randrange(40),
                    rng.randrange(400),
                    rng.randrange(450),
                    rng.randrange(9),
                )
                for _ in range(40)
            ]
            # exact hits, sentinel overflow keys, and extremes
            keys += [cols.key(i) for i in range(0, len(cols), 7)]
            keys += [(0, 0, -1, -1, -1), (5, 50, 2**63, 2**63, 2**63)]
            for side in ("left", "right"):
                got = npk.batch_bisect(raw, keys, side)
                want = pure.batch_bisect(raw, keys, side)
                assert got == want, (case, side)
                # the pure kernel must itself agree with the scalar bisect
                scalar = (
                    cols.bisect_left if side == "left" else cols.bisect_right
                )
                assert want == [scalar(k) for k in keys]

    @pytest.mark.parametrize("axis", ["/", "//", ".//"])
    def test_expand_below_admits_exactly(self, axis, monkeypatch):
        """Each backend lists, for every outer row asked about, exactly the
        inner rows ``Axis.admits`` below it in the same document, in order;
        the numpy one with its cut-over lowered to one row, so that the
        vector code, not the pure loop it hands small inputs to, answers."""
        backends = [pure]
        if HAVE_NUMPY:
            monkeypatch.setattr(npk, "_SEARCH_MIN_ROWS", 1)
            backends.append(npk)
        for case, (outer, inner, rows) in enumerate(_expand_cases(random.Random(911))):
            cols, inner_cols = arrays_of(outer), arrays_of(inner)
            want = _expand_reference(cols, inner_cols, axis, rows)
            for backend in backends:
                got = backend.expand_below(cols, inner_cols, axis, rows)
                assert got == want, (backend.NAME, case)

    @requires_numpy
    @pytest.mark.parametrize("axis", ["/", "//", ".//"])
    def test_expand_below_matches_pure(self, axis, monkeypatch):
        """Both sides of the cut-over and the fallback past 64 key bits
        give the pure kernel's lists."""
        fallbacks = []
        fallback = pure.expand_below
        monkeypatch.setattr(
            pure, "expand_below", lambda *args: fallbacks.append(args) or fallback(*args)
        )
        rng = random.Random(912)
        for case in range(40):
            outer = case_rows(rng, case)
            inner = case_rows(rng, case + 1 + case // 5)
            cols, inner_cols = arrays_of(outer), arrays_of(inner)
            n = len(cols[0])
            rows = sorted(rng.choices(range(n), k=rng.randrange(2 * n + 1))) if n else []
            want = fallback(cols, inner_cols, axis, rows)
            assert npk.expand_below(cols, inner_cols, axis, rows) == want, case
        # every big case (case % 5 == 4) packs too wide; small ones sit
        # below the cut-over
        assert any(args[0][2] and max(args[0][2]) > 2**62 for args in fallbacks)
        assert any(0 < len(args[3]) < npk._SEARCH_MIN_ROWS for args in fallbacks)
        monkeypatch.setattr(npk, "_SEARCH_MIN_ROWS", 1)
        fallbacks.clear()
        # documents spanning the whole int64 range on two peers: 65 key bits
        cols = arrays_of([(0, 0, 0, BIG, 0), (1, 0, 0, BIG, 0)])
        inner_cols = arrays_of([(0, 0, 5, 6, 1), (0, 0, BIG - 3, BIG - 2, 1), (1, 0, 7, 8, 1)])
        want = fallback(cols, inner_cols, axis, [0, 1])
        assert npk.expand_below(cols, inner_cols, axis, [0, 1]) == want
        assert want[0] and len(fallbacks) == 1  # the packing refused, not the cut-over

    @requires_numpy
    @pytest.mark.parametrize("axis", ["/", "//", ".//"])
    def test_semijoin_below_matches_pure(self, axis, monkeypatch):
        rng = random.Random(910)
        monkeypatch.setattr(npk, "_SEARCH_MIN_ROWS", 1)  # the vector code answers
        fallbacks = []
        fallback = pure.semijoin_below
        monkeypatch.setattr(
            pure, "semijoin_below",
            lambda *args: fallbacks.append(args) or fallback(*args),
        )
        for case in range(40):
            # every 7th case: few documents, so rows often nest; big rows
            # need more than 64 key bits (the pure fallback), and empty
            # inputs come on either side
            outer = case_rows(rng, case)
            inner = case_rows(rng, case + 1 + case // 5)
            if case % 7 == 3:
                outer = random_rows(rng, 80, peer_max=2, doc_max=3, pos_max=60)
                inner = random_rows(rng, 80, peer_max=2, doc_max=3, pos_max=60)
            cols, inner_cols = arrays_of(outer), arrays_of(inner)
            want = fallback(cols, inner_cols, axis)
            assert npk.semijoin_below(cols, inner_cols, axis) == want, case
            # the reference: an inner row of the same document admitted below
            low = (lambda s, t: s <= t) if axis == ".//" else (lambda s, t: s < t)
            expected = [
                row for row in sorted(set(outer))
                if any(
                    (i[0], i[1]) == (row[0], row[1]) and low(row[2], i[2])
                    and (i[2] <= row[3] if axis == ".//" else i[2] < row[3])
                    and (axis != "/" or i[4] == row[4] + 1)
                    for i in inner
                )
            ]
            assert list(zip(*want)) == expected, case
        kinds = {(len(a[0][0]) > 0, len(a[1][0]) > 0) for a in fallbacks}
        assert {(True, False), (False, True)} <= kinds
        assert any(a[0][2] and max(a[0][2]) > 2**62 for a in fallbacks)

    @requires_numpy
    def test_doc_ids_matches_pure(self):
        rng = random.Random(909)
        for case in range(10):
            peer, doc, *_rest = arrays_of(case_rows(rng, case))
            assert npk.doc_ids(peer, doc) == pure.doc_ids(peer, doc)


class TestBloomKernelEquivalence:
    @requires_numpy
    def test_set_and_test_match_pure(self):
        rng = random.Random(910)
        for bits, hashes in ((64, 1), (1009, 3), (20011, 7)):
            datas = [
                b"(i%d,i%d,i%d,i%d,i%d)"
                % (rng.randrange(4), rng.randrange(40), rng.randrange(500),
                   rng.randrange(500), rng.randrange(3))
                for _ in range(300)
            ]
            f_pure = BloomFilter(bits, hashes, seed=7)
            f_np = BloomFilter(bits, hashes, seed=7)
            pure.bloom_set_batch(
                f_pure._vector, bits, hashes, f_pure._salt1, f_pure._salt2, datas
            )
            npk.bloom_set_batch(
                f_np._vector, bits, hashes, f_np._salt1, f_np._salt2, datas
            )
            assert f_np._vector == f_pure._vector
            probes = datas[::3] + [b"(i9,i9,i9,i9,i9)", b"missing"]
            assert npk.bloom_test_batch(
                f_np._vector, bits, hashes, f_np._salt1, f_np._salt2, probes
            ) == pure.bloom_test_batch(
                f_pure._vector, bits, hashes, f_pure._salt1, f_pure._salt2, probes
            )

    @staticmethod
    def _interval_rows(rng, n, stretch=0):
        """Random rows inside the dyadic domain (positions from 1)."""
        return [
            (p, d, s + 1, e + 1 + stretch, v)
            for p, d, s, e, v in random_rows(rng, n)
        ]

    def _probe_args(self, rng, probe_rows, l=None, interior=1):
        """``descendant_probe`` arguments: a random source list's filter
        over the given probe rows."""
        source = PostingList(self._interval_rows(rng, rng.randrange(1, 30)))
        dbf = DescendantBloomFilter(source, l=l, fp_rate=0.1, seed=3)
        f = dbf.filter
        return (
            arrays_of(probe_rows), interior, dbf.l,
            f._vector, f.bits, f.hashes, f._salt1, f._salt2,
        )

    @requires_numpy
    def test_descendant_probe_matches_pure(self, monkeypatch):
        rng = random.Random(912)
        cases = []
        for case in range(60):
            rows = self._interval_rows(
                rng, rng.choice((1, 2, 30, 400)), stretch=(case % 3) * 40
            )
            args = self._probe_args(
                rng, rows, l=(None, 9, 12)[case % 3], interior=case % 2
            )
            cases.append((args, pure.descendant_probe(*args)))
        # starts at the int64 boundary: every interior is empty, no wrap
        args = self._probe_args(rng, big_rows(rng, 10) + [(3, 0, BIG, BIG, 1)] + rows, l=9)
        cases.append((args, pure.descendant_probe(*args)))
        assert any(want for _args, want in cases)
        assert any(len(want) < len(args[0][0]) for args, want in cases)

        def no_fallback(*args):
            raise AssertionError("vector path expected")

        monkeypatch.setattr(pure, "descendant_probe", no_fallback)
        for case, (args, want) in enumerate(cases):
            assert npk.descendant_probe(*args) == want, case

    @requires_numpy
    def test_descendant_probe_fallbacks(self):
        rng = random.Random(913)
        rows = self._interval_rows(rng, 50)
        # empty input, and a level count past what one int64 key can hold
        for args in (self._probe_args(rng, []), self._probe_args(rng, rows, l=61)):
            assert npk.descendant_probe(*args) == pure.descendant_probe(*args)
        # or-self from position 0 is outside the dyadic domain in both
        args = self._probe_args(rng, [(0, 0, 0, 5, 1)] + rows, interior=0)
        with pytest.raises(ValueError) as err_pure:
            pure.descendant_probe(*args)
        with pytest.raises(ValueError) as err_np:
            npk.descendant_probe(*args)
        assert str(err_np.value) == str(err_pure.value)

    @staticmethod
    def _build(backend, rows, l):
        """``descendant_build`` into a fresh filter: its bits and load."""
        f = BloomFilter.for_items(max(1, len(rows)) * (l + 1), 0.05, seed=5)
        inserted = backend.descendant_build(
            arrays_of(rows), l, f._vector, f.bits, f.hashes, f._salt1, f._salt2
        )
        return bytes(f._vector), inserted

    @requires_numpy
    def test_descendant_build_matches_pure(self, monkeypatch):
        rng = random.Random(914)
        one_doc = [(0, 3, s, s + 1, 1) for s in rng.sample(range(1, 600), 40)]
        cases = []
        for l in (0, 1, 9, 20):
            cases.append((one_doc, l))
            for n in (1, 2, 28, 300):
                # many peers and documents; starts past 2**l are clamped
                # for every l below 9
                cases.append((self._interval_rows(rng, n), l))
        want = [self._build(pure, rows, l) for rows, l in cases]
        assert [inserted for _bits, inserted in want] == [
            len(rows) * (l + 1) for rows, l in cases
        ]

        def no_fallback(*args):
            raise AssertionError("vector path expected")

        monkeypatch.setattr(pure, "descendant_build", no_fallback)
        for case, ((rows, l), expected) in enumerate(zip(cases, want)):
            assert self._build(npk, rows, l) == expected, case

    @requires_numpy
    def test_descendant_build_fallbacks(self):
        rng = random.Random(915)
        rows = self._interval_rows(rng, 50)
        # empty input, and a level count past what one int64 key can hold
        for rows_l in (([], 9), ([], 0), (rows, 61)):
            assert self._build(npk, *rows_l) == self._build(pure, *rows_l)
        assert self._build(pure, [], 9)[1] == 0
        # a start at position 0 is outside the dyadic domain in both
        with pytest.raises(ValueError) as err_pure:
            self._build(pure, [(0, 0, 0, 5, 1)] + rows, 9)
        with pytest.raises(ValueError) as err_np:
            self._build(npk, [(0, 0, 0, 5, 1)] + rows, 9)
        assert str(err_np.value) == str(err_pure.value)

    def _memo_calls(self):
        """A sequence of numpy Bloom kernel calls whose keys repeat: within
        one batch, across calls, and as the same bytes under two salt
        pairs.  Each call is ``run(backend) -> result`` on fresh vectors."""
        rng = random.Random(916)
        keys = [
            b"(i%d,i%d,i%d,i%d)"
            % (rng.randrange(3), rng.randrange(6), rng.randrange(1, 80), rng.randrange(1, 80))
            for _ in range(120)
        ]
        calls = []

        def batch(seed, datas, probes):
            def run(backend):
                f = BloomFilter(4099, 4, seed=seed)
                args = (f.bits, f.hashes, f._salt1, f._salt2)
                backend.bloom_set_batch(f._vector, *args, datas)
                return bytes(f._vector), backend.bloom_test_batch(f._vector, *args, probes)

            return run

        # duplicate keys in one batch; then the same bytes under seeds 7 and 8
        calls.append(batch(7, keys[:60] + keys[10:30], keys[::2] + keys[:5]))
        calls.append(batch(8, keys[:60], keys[40:] + keys[40:50]))
        calls.append(batch(7, keys[30:], keys))
        rows = self._interval_rows(rng, 40)
        for l in (9, 12):
            calls.append(lambda backend, l=l: self._build(backend, rows, l))
            calls.append(lambda backend, l=l: self._build(backend, rows[:25], l))
        for case in range(6):
            args = self._probe_args(rng, rows, l=(9, 12)[case % 2], interior=case % 3 // 2)
            calls.append(lambda backend, args=args: backend.descendant_probe(*args))
        calls.append(batch(8, keys[::3], keys[:60]))
        return calls

    @requires_numpy
    @pytest.mark.parametrize("state", ["cold", "warm", "ceiling"])
    def test_digest_memo_matches_pure(self, state, monkeypatch):
        """The numpy kernels memoise key digests per salt pair; bits and
        results equal ``pure``'s with the memo empty before every call,
        filled by an earlier pass, or cleared by its ceiling mid-sequence."""

        class CountingMemos(dict):
            clears = 0

            def clear(self):
                CountingMemos.clears += 1
                super().clear()

        monkeypatch.setattr(npk, "_MEMOS", CountingMemos())
        if state == "ceiling":
            monkeypatch.setattr(npk, "_MEMO_CEILING", 150)
        calls = self._memo_calls()
        want = [run(pure) for run in calls]
        for _pass in range(2):
            for i, (run, expected) in enumerate(zip(calls, want)):
                if state == "cold":
                    npk._MEMOS.clear()
                assert run(npk) == expected, (state, i)
                if state == "ceiling":
                    assert sum(map(len, npk._MEMOS.values())) <= 150
        if state == "warm":
            assert CountingMemos.clears == 0
        elif state == "ceiling":
            assert CountingMemos.clears >= 4


class TestBackendSelection:
    @requires_numpy
    def test_backends_export_the_same_functions(self):
        """A kernel added to one backend only, or with other arguments,
        fails here by name instead of as an AttributeError under
        ``REPRO_KERNELS=pure``."""

        def public(module):
            return {
                name: str(inspect.signature(function))
                for name, function in vars(module).items()
                if not name.startswith("_")
                and inspect.isfunction(function)
                and function.__module__ == module.__name__
            }

        assert public(npk) == public(pure)
        # the Descendant-filter kernels, build and probe, take the columns first
        for name in ("descendant_build", "descendant_probe"):
            assert public(pure)[name].startswith("(cols, ")

    def test_env_override_wins(self, restore_backend, monkeypatch):
        # the backend is resolved on first use: REPRO_KERNELS, else auto
        monkeypatch.setenv("REPRO_KERNELS", "pure")
        monkeypatch.setattr(kernels, "_active", None)
        assert kernels.backend_name() == "pure"

    def test_auto_resolution(self, restore_backend, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        monkeypatch.setattr(kernels, "_active", None)
        expected = "numpy" if HAVE_NUMPY else "pure"
        assert kernels.backend_name() == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            kernels.resolve("polars")

    @requires_numpy
    def test_building_a_network_keeps_the_backend(self, restore_backend):
        """The backend is a per-process choice: a network neither picks
        nor resets it, whatever ``REPRO_KERNELS`` says."""
        from repro.kadop.system import KadopNetwork

        default = kernels.resolve(os.environ.get("REPRO_KERNELS") or "auto").NAME
        chosen = "pure" if default == "numpy" else "numpy"
        kernels.use_backend(chosen)
        KadopNetwork.create(num_peers=4, seed=3)
        assert kernels.backend_name() == chosen

    def test_checkpoint_with_kernel_backend_loads(self, tmp_path):
        """``kernel_backend`` was a config field: old checkpoints still load,
        and the key they carry selects nothing."""
        from repro.kadop.system import KadopNetwork

        net = KadopNetwork.create(num_peers=2, seed=3)
        net.peers[0].publish("<a><b>x</b></a>", uri="u:1")
        path = tmp_path / "old.json"
        net.save(str(path))
        state = json.loads(path.read_text())
        state["config"]["kernel_backend"] = "pure"
        path.write_text(json.dumps(state))
        active = kernels.backend_name()
        restored = KadopNetwork.load(str(path))
        assert kernels.backend_name() == active
        assert not hasattr(restored.config, "kernel_backend")
        assert [a.doc_id for a in restored.query("//a//b")] == [(0, 0)]

    def test_use_backend_returns_previous(self, restore_backend):
        before = kernels.backend_name()
        previous = kernels.use_backend("pure")
        assert previous == before
        assert kernels.backend_name() == "pure"

    def test_stats_report_backend(self, restore_backend):
        from repro.kadop.stats import network_stats
        from repro.kadop.system import KadopNetwork

        kernels.use_backend("pure")
        net = KadopNetwork.create(num_peers=4, seed=3)
        stats = network_stats(net)
        assert stats.kernel_backend == "pure"
        assert "kernel backend: pure" in stats.format()
        assert stats.to_dict()["kernel_backend"] == "pure"


def _random_doc(rng, max_nodes=30):
    labels = ["a", "b", "c", "d", "e"]
    words = ["red", "green", "blue", "cyan"]
    parts = []

    def build(depth, budget):
        label = rng.choice(labels)
        parts.append("<%s>" % label)
        if rng.random() < 0.5:
            parts.append(" %s " % rng.choice(words))
        for _ in range(0 if depth > 4 else rng.randint(0, 3)):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            build(depth + 1, budget)
        parts.append("</%s>" % label)

    build(0, [max_nodes])
    return "".join(parts)


@requires_numpy
class TestBackendDifferentialEndToEnd:
    """Same corpus, same queries, both backends, Pastry AND Chord:
    answers and metered traffic must be byte-identical."""

    QUERIES = [
        ("//a//b", ()),
        ("//a/b", ()),
        ("//a[//b]//c", ()),
        ('//a[. contains "red"]', ()),
        ("//a//b//red", ("red",)),
    ]

    def _run(self, overlay, backend):
        from repro.kadop.system import KadopNetwork

        previous = kernels.backend_name()
        try:
            rng = random.Random(2008)
            corpus = [_random_doc(rng) for _ in range(8)]
            config = KadopConfig(
                replication=1,
                overlay=overlay,
                use_dpp=True,
                dpp_block_entries=12,
                filter_strategy="auto",
            )
            kernels.use_backend(backend)
            net = KadopNetwork.create(num_peers=6, config=config, seed=1)
            assert kernels.backend_name() == backend
            for i, text in enumerate(corpus):
                net.peers[i % 3].publish(text, uri="u:%d" % i)
            results = []
            for query, keywords in self.QUERIES:
                answers = net.query(query, keyword_steps=keywords)
                results.append({a.bindings for a in answers})
            return results, net.net.meter.snapshot()
        finally:
            kernels.use_backend(previous)

    @pytest.mark.parametrize("overlay", ["pastry", "chord"])
    def test_answers_and_traffic_identical(self, overlay):
        answers_pure, meter_pure = self._run(overlay, "pure")
        answers_np, meter_np = self._run(overlay, "numpy")
        assert answers_np == answers_pure
        assert meter_np == meter_pure
