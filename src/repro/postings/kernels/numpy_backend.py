"""The numpy kernel backend: vectorized posting and Bloom kernels.

Same interface and byte-identical results as
:mod:`repro.postings.kernels.pure`; every case the vector code cannot
reproduce exactly (value ranges past the packing or accumulator bounds,
negative wire values, malformed varint streams) falls back to the pure
kernel so error messages and edge behaviour match too.

The union kernel hinges on *adaptive bit-packing*: the five columns'
value ranges are measured, shifted to non-negative, and packed
high-to-low into one ``uint64`` key per row, which preserves the
lexicographic ``(p, d, start, end, level)`` order.  The ordered union of
any number of lists is then one stable (radix) sort of the concatenated
keys, and dedup an adjacent-difference mask.

The codec kernels split each varint stream on its terminator bytes
(``< 0x80``) with ``flatnonzero``, accumulate the payload bits per byte
position, and rebuild the document/start deltas with a cumulative-sum +
segment-base trick (valid because the cumulative sums are monotone for
any correctly delta-encoded sorted list).

The Bloom kernels memoise each key's BLAKE2 digests per salt pair, hash
a batch's misses through one prototype-copy loop, reduce ``h1``/``h2``
modulo ``bits`` *before* the double-hashing expansion (exact by modular
arithmetic, and keeps every intermediate in ``uint64``), and apply the
positions through one ``unpackbits``/``packbits`` round trip.
"""

from array import array
from hashlib import blake2b
from itertools import accumulate, compress, filterfalse
from operator import add

import numpy as np

from repro.postings.kernels import pure as _pure

NAME = "numpy"

_I64 = np.int64
_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _views(cols):
    return [np.frombuffer(col, dtype=_I64) for col in cols]


def _to_arrays(views):
    return tuple(array("q", np.ascontiguousarray(v, dtype=_I64).tobytes()) for v in views)


# -- adaptive bit-packing ----------------------------------------------------


def _pack(chunk_views):
    """Pack each chunk's five columns into one ``uint64`` key per row.

    Returns ``(packed_chunks, mins, shifts, widths)``, or ``None`` when
    the combined field widths exceed 64 bits (the caller then falls back
    to the pure kernel).  Field order peer > doc > start > end > level is
    kept by assigning high bits to more significant fields, so unsigned
    comparison of packed keys equals lexicographic row comparison."""
    mins = []
    widths = []
    for i in range(5):
        lo = min(int(v[i].min()) for v in chunk_views)
        hi = max(int(v[i].max()) for v in chunk_views)
        mins.append(lo)
        widths.append(max(1, (hi - lo).bit_length()))
    if sum(widths) > 64:
        return None
    shifts = [0] * 5
    shift = 0
    for i in range(4, -1, -1):
        shifts[i] = shift
        shift += widths[i]
    packed = []
    for views in chunk_views:
        acc = np.zeros(len(views[0]), dtype=_U64)
        for i in range(5):
            # uint64 wrap-around subtraction is exact mod 2**64, and the
            # shifted value is < 2**widths[i] by construction
            col = views[i].astype(_U64) - _U64(mins[i] & _MASK64)
            acc |= col << _U64(shifts[i])
        packed.append(acc)
    return packed, mins, shifts, widths


def _unpack(packed, mins, shifts, widths):
    cols = []
    for i in range(5):
        field = (packed >> _U64(shifts[i])) & _U64((1 << widths[i]) - 1)
        cols.append(field.astype(_I64) + _I64(mins[i]))
    return cols


def _dedup_sorted(keys):
    if len(keys) < 2:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


# -- union kernel ------------------------------------------------------------


def concat_sorted(chunks):
    chunks = [part for part in chunks if len(part[0])]
    if not chunks:
        return _pure._empty_columns()
    if len(chunks) == 1:
        return tuple(col[:] for col in chunks[0])
    packed = _pack([_views(part) for part in chunks])
    if packed is None:
        return _pure.concat_sorted(chunks)
    parts, mins, shifts, widths = packed
    keys = np.concatenate(parts)
    keys.sort(kind="stable")  # radix sort on integer keys
    return _to_arrays(_unpack(_dedup_sorted(keys), mins, shifts, widths))


# -- search kernels ----------------------------------------------------------


def batch_bisect(cols, keys, side):
    m = len(keys)
    n = len(cols[0])
    # small batches (the DPP routing case) lose to conversion overhead
    if m < 32 or n < 64:
        return _pure.batch_bisect(cols, keys, side)
    try:
        karr = np.array(keys, dtype=_I64)
    except (OverflowError, ValueError):
        # sentinel keys like 2**63 exceed int64: keep exact semantics
        return _pure.batch_bisect(cols, keys, side)
    if karr.ndim != 2 or karr.shape[1] != 5:
        return _pure.batch_bisect(cols, keys, side)
    peer, doc, start, end, level = _views(cols)
    k0, k1, k2, k3, k4 = (karr[:, i] for i in range(5))
    if side == "left":
        last_lt = np.less  # advance while row < key
    else:
        last_lt = np.less_equal  # advance while row <= key
    lo = np.zeros(m, dtype=_I64)
    hi = np.full(m, n, dtype=_I64)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        idx = np.minimum(mid, n - 1)  # clamp settled lanes only
        p = peer[idx]
        d = doc[idx]
        s = start[idx]
        e = end[idx]
        v = level[idx]
        adv = (
            (p < k0)
            | ((p == k0) & ((d < k1)
            | ((d == k1) & ((s < k2)
            | ((s == k2) & ((e < k3)
            | ((e == k3) & last_lt(v, k4))))))))
        ) & active
        lo = np.where(adv, mid + 1, lo)
        hi = np.where(active & ~adv, mid, hi)
    return lo.tolist()


def _search_keys(inner, outer, adds):
    """Pack range-search keys into one ``uint64`` per row, or None past 64
    bits.

    ``inner`` holds the inner rows' fields, one array row per field, most
    significant first; ``outer`` the outer rows' same fields plus one more:
    its last two rows are the low and the high end of the range in the last
    field.  ``adds`` (one per outer row) is added to the outer values,
    exactly.  Each field is shifted to non-negative and packed high to low,
    so unsigned order is the fields' lexicographic order.  Returns ``(inner
    keys, low bounds, high bounds)``."""
    low, high = np.minimum.reduce, np.maximum.reduce  # no _methods frames
    omin = list(map(add, low(outer, axis=1).tolist(), adds))
    omax = list(map(add, high(outer, axis=1).tolist(), adds))
    omin[-2:] = [min(omin[-2:])]  # the range's two ends are one field
    omax[-2:] = [max(omax[-2:])]
    lows = list(map(min, low(inner, axis=1).tolist(), omin))
    highs = map(max, high(inner, axis=1).tolist(), omax)
    widths = [max(1, (hi - lo).bit_length()) for lo, hi in zip(lows, highs)]
    shifts = [64 - used for used in accumulate(widths)]
    if shifts[-1] < 0:
        return None
    at = np.array(shifts + shifts[-1:], dtype=_U64)[:, None]
    # uint64 wrap-around is exact mod 2**64, as in _pack
    base = np.array([lo & _MASK64 for lo in lows], dtype=_U64)[:, None]
    keys = np.bitwise_or.reduce((inner.astype(_U64) - base) << at[:-1], axis=0)
    lows.append(lows[-1])
    base = np.array([(lo - a) & _MASK64 for lo, a in zip(lows, adds)], dtype=_U64)[:, None]
    bounds = (outer.astype(_U64) - base) << at
    prefix = np.bitwise_or.reduce(bounds[:-2], axis=0)
    return keys, prefix | bounds[-2], prefix | bounds[-1]


#: below this many outer rows the pure loops of semijoin_below and
#: expand_below cost less host time than the vector setup (see
#: BENCH_micro.json's test_kernel_expand_below and
#: test_kernel_semijoin_below rows)
_SEARCH_MIN_ROWS = 32


def semijoin_below(cols, inner_cols, axis):
    if len(cols[0]) < _SEARCH_MIN_ROWS or not len(inner_cols[0]):
        return _pure.semijoin_below(cols, inner_cols, axis)
    peer, doc, start, end, level = cols
    ipeer, idoc, istart, _iend, ilevel = inner_cols
    if axis == "/":  # by (peer, doc, level, start), one level deeper
        inner = np.array((ipeer, idoc, ilevel, istart))
        packed = _search_keys(inner, np.array((peer, doc, level, start, end)), (0, 0, 1, 0, 0))
    else:
        inner = np.array((ipeer, idoc, istart))
        packed = _search_keys(inner, np.array((peer, doc, start, end)), (0, 0, 0, 0))
    if packed is None:
        return _pure.semijoin_below(cols, inner_cols, axis)
    keys, lo_keys, hi_keys = packed
    if axis == "/":
        keys.sort()
    lo_side, hi_side = ("left", "right") if axis == ".//" else ("right", "left")
    keep = (keys.searchsorted(lo_keys, lo_side) < keys.searchsorted(hi_keys, hi_side)).tolist()
    return tuple(array("q", compress(col, keep)) for col in cols)


def expand_below(cols, inner_cols, axis, rows):
    m = len(rows)
    if m < _SEARCH_MIN_ROWS or not len(inner_cols[0]):
        return _pure.expand_below(cols, inner_cols, axis, rows)
    peer, doc, start, end, level = cols
    ipeer, idoc, istart, iend, ilevel = inner_cols
    packed = _search_keys(
        np.array((ipeer, idoc, istart)), np.array((peer, doc, start, end)), (0, 0, 0, 0)
    )
    if packed is None:
        return _pure.expand_below(cols, inner_cols, axis, rows)
    keys, lo_keys, hi_keys = packed
    lo_side, hi_side = ("left", "right") if axis == ".//" else ("right", "left")
    at = np.array(rows, dtype=_I64)
    lo = keys.searchsorted(lo_keys, lo_side)[at]
    counts = keys.searchsorted(hi_keys, hi_side)[at] - lo
    np.maximum(counts, 0, out=counts)
    # row k's inner rows are lo[k], lo[k] + 1, ...: one run per row
    owner = np.arange(m, dtype=_I64).repeat(counts)
    inner = np.arange(len(owner), dtype=_I64) + (lo - (counts.cumsum() - counts)).repeat(counts)
    if axis == "/":
        below = np.frombuffer(level, dtype=_I64)[at] + 1
        keep = np.frombuffer(ilevel, dtype=_I64)[inner] == below.repeat(counts)
    elif axis == ".//":
        ends = np.frombuffer(end, dtype=_I64)[at]
        keep = np.frombuffer(iend, dtype=_I64)[inner] <= ends.repeat(counts)
    else:
        return owner.tolist(), inner.tolist()
    return owner[keep].tolist(), inner[keep].tolist()


# -- derived views -----------------------------------------------------------


def doc_ids(peer, doc):
    n = len(peer)
    if n == 0:
        return []
    p = np.frombuffer(peer, dtype=_I64)
    d = np.frombuffer(doc, dtype=_I64)
    if n == 1:
        return [(int(p[0]), int(d[0]))]
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = (p[1:] != p[:-1]) | (d[1:] != d[:-1])
    return list(zip(p[keep].tolist(), d[keep].tolist()))


# -- wire format kernels -----------------------------------------------------


def wire_values(cols):
    vals = _delta_values(cols)
    if vals is None:
        return _pure.wire_values(cols)
    return vals.tolist()


def _delta_values(cols, firsts=0):
    """The wire-value sequence as one int64 array, or None on negatives.

    ``firsts`` (a row index, or an index array holding 0) are the rows
    that start a segment: there the peer, doc and start deltas begin
    again from zero.  The leading count is always the total row count.

    A negative element means either genuinely invalid input (negative
    delta / span / level, where the pure encoder raises) or an int64
    subtraction overflow; both route the caller to the pure kernel."""
    n = len(cols[0])
    vals = np.empty(5 * n + 1, dtype=_I64)
    vals[0] = n
    if n == 0:
        return vals
    peer, doc, start, end, level = _views(cols)
    rows = vals[1:].reshape(n, 5)
    dpeer, ddoc, dstart = rows[:, 0], rows[:, 1], rows[:, 2]
    np.subtract(peer[1:], peer[:-1], out=dpeer[1:])
    np.subtract(doc[1:], doc[:-1], out=ddoc[1:])
    np.subtract(start[1:], start[:-1], out=dstart[1:])
    dpeer[firsts] = peer[firsts]
    # doc restarts from zero at a segment start or where the peer moved,
    # start also where the doc moved
    reset = dpeer != 0
    reset[firsts] = True
    ddoc[reset] = doc[reset]
    reset |= ddoc != 0
    dstart[reset] = start[reset]
    np.subtract(end, start, out=rows[:, 3])
    rows[:, 4] = level
    if np.minimum.reduce(vals) < 0:
        return None
    return vals


#: a uvarint takes one byte more at each of these values
_VARINT_STEPS = np.array([1 << (7 * k) for k in range(1, 9)], dtype=_I64)


def _varint_widths(vals):
    """Bytes of each non-negative value's uvarint."""
    return _VARINT_STEPS.searchsorted(vals, side="right") + 1


def encode(cols):
    vals = _delta_values(cols)
    if vals is None:
        return _pure.encode(cols)
    u = vals.astype(_U64)
    nbytes = _varint_widths(vals)
    offsets = np.zeros(len(u), dtype=_I64)
    np.cumsum(nbytes[:-1], out=offsets[1:])
    out = np.zeros(int(offsets[-1] + nbytes[-1]), dtype=np.uint8)
    for j in range(int(nbytes.max())):
        mask = nbytes > j
        byte = ((u[mask] >> _U64(7 * j)) & _U64(0x7F)).astype(np.uint8)
        cont = (nbytes[mask] - 1) > j
        out[offsets[mask] + j] = byte | (cont.astype(np.uint8) << 7)
    return out.tobytes()


def _total_size(cols, offsets=None):
    """Wire bytes of ``cols`` as one list, or of its segments ending at
    ``offsets`` (see ``pure.encoded_sizes``); None on negatives.

    One segment is the one-list case: its count is the row count."""
    if offsets is None or len(offsets) == 1:
        vals = _delta_values(cols)
        return None if vals is None else int(np.add.reduce(_varint_widths(vals)))
    ends = np.array(offsets, dtype=_I64)
    counts = ends.copy()
    counts[1:] -= ends[:-1]
    starts = ends - counts
    # a trailing empty segment starts past the last row
    vals = _delta_values(cols, starts[starts < len(cols[0])])
    if vals is None:
        return None
    # each segment's own count replaces the one-list count in vals[0]
    return int(
        np.add.reduce(_varint_widths(vals[1:])) + np.add.reduce(_varint_widths(counts))
    )


def encoded_size(cols):
    # an empty or one-row list goes to the pure kernel, which sizes one row
    # in closed form, in fewer steps and far less host time than the array
    # set-up; testing a slice rather than len() adds no step to the calls
    # that keep the array path
    size = _total_size(cols) if cols[0][1:2] else None
    return _pure.encoded_size(cols) if size is None else size


def encoded_sizes(cols, offsets):
    size = _total_size(cols, offsets)
    return _pure.encoded_sizes(cols, offsets) if size is None else size


def decode(data, offset=0):
    pos = offset
    try:
        v = data[pos]
        pos += 1
        if v & 0x80:
            v &= 0x7F
            shift = 7
            while True:
                b = data[pos]
                pos += 1
                v |= (b & 0x7F) << shift
                if not b & 0x80:
                    break
                shift += 7
        count = v
    except IndexError:
        raise ValueError("truncated uvarint at offset %d" % pos) from None
    if count == 0:
        return _pure._empty_columns(), pos
    nvals = count * 5
    # delta magnitudes < 2**28 (4 varint bytes) and counts < 2**31 keep
    # every cumulative sum below 2**59: no int64 accumulator overflow.
    # Bigger values are legal but rare — the pure kernel handles them.
    if count > (1 << 31):
        return _pure.decode(data, offset)
    window = min(len(data), pos + nvals * 9)
    stream = np.frombuffer(data, dtype=np.uint8, count=window - pos, offset=pos)
    term = np.flatnonzero(stream < 0x80)
    if len(term) < nvals:
        # truncated stream, or varints longer than the scan window —
        # the pure parser reproduces the exact error (or result)
        return _pure.decode(data, offset)
    ends = term[:nvals]
    starts = np.empty(nvals, dtype=_I64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    maxlen = int(lengths.max())
    if maxlen > 4:
        return _pure.decode(data, offset)
    vals = (stream[starts] & 0x7F).astype(_I64)
    for j in range(1, maxlen):
        mask = lengths > j
        vals[mask] |= (stream[starts[mask] + j].astype(_I64) & 0x7F) << (7 * j)
    vals = vals.reshape(count, 5)
    dpeer = vals[:, 0]
    ddoc = vals[:, 1]
    dstart = vals[:, 2]
    span = vals[:, 3]
    level = vals[:, 4]
    peer = np.cumsum(dpeer)
    # segmented cumulative sums: doc resets where dpeer != 0, start
    # resets where dpeer != 0 or ddoc != 0.  The running maximum of the
    # reset bases is exact because the cumulative sums are monotone.
    reset_doc = dpeer != 0
    csum_doc = np.cumsum(ddoc)
    base_doc = np.maximum.accumulate(np.where(reset_doc, csum_doc - ddoc, 0))
    doc = csum_doc - base_doc
    reset_start = reset_doc | (ddoc != 0)
    csum_start = np.cumsum(dstart)
    base_start = np.maximum.accumulate(
        np.where(reset_start, csum_start - dstart, 0)
    )
    start = csum_start - base_start
    end = start + span
    return (
        _to_arrays((peer, doc, start, end, np.ascontiguousarray(level))),
        pos + int(ends[-1]) + 1,
    )


# -- Bloom filter bit kernels ------------------------------------------------


#: the most key digests the memos below hold together; serve_churn's
#: seed-0 window hashes 16,368 distinct (salt pair, key) pairs
_MEMO_CEILING = 1 << 15
#: (salt1, salt2) -> {key bytes: its two 8-byte digests}
_MEMOS = {}


def _positions(bits, hashes, salt1, salt2, datas):
    """The (len(datas), hashes) matrix of bit positions.

    A key's two 64-bit digests are a pure function of its bytes and the
    salt pair, and the reducers hash the same keys query after query, so
    they are memoised per salt pair: only a batch's misses are hashed,
    through prototype ``copy()`` (cheaper than re-running the blake2b
    constructor).  When the misses would take the memos past
    ``_MEMO_CEILING`` entries, every memo is dropped first and the whole
    batch is hashed into a fresh one, kept only if it fits.  The digests
    are reduced mod ``bits`` before the ``h1 + i*h2`` expansion — exact by
    modular arithmetic, and every intermediate stays below 2**64."""
    memo = _MEMOS.get((salt1, salt2))
    if memo is None:
        memo = _MEMOS[salt1, salt2] = {}
    misses = list(filterfalse(memo.__contains__, datas))
    if misses:
        if sum(map(len, _MEMOS.values())) + len(misses) > _MEMO_CEILING:
            _MEMOS.clear()
            memo = {}
            if len(datas) <= _MEMO_CEILING:
                _MEMOS[salt1, salt2] = memo
            misses = datas
        copy1 = blake2b(digest_size=8, salt=salt1).copy
        copy2 = blake2b(digest_size=8, salt=salt2).copy
        for data in misses:
            h = copy1()
            h.update(data)
            g = copy2()
            g.update(data)
            memo[data] = h.digest() + g.digest()
    digests = np.frombuffer(
        b"".join(map(memo.__getitem__, datas)), dtype="<u8"
    ).reshape(-1, 2)
    nbits = _U64(bits)
    h1 = digests[:, 0] % nbits
    h2 = (digests[:, 1] | _U64(1)) % nbits
    ks = np.arange(hashes, dtype=_U64)
    return (h1[:, None] + ks[None, :] * h2[:, None]) % nbits


def bloom_set_batch(vector, bits, hashes, salt1, salt2, datas):
    if not datas:
        return
    if bits * hashes >= (1 << 62):
        _pure.bloom_set_batch(vector, bits, hashes, salt1, salt2, datas)
        return
    positions = _positions(bits, hashes, salt1, salt2, datas)
    bitarr = np.unpackbits(
        np.frombuffer(vector, dtype=np.uint8), bitorder="little"
    )
    bitarr[positions.reshape(-1)] = 1
    vector[:] = np.packbits(bitarr, bitorder="little").tobytes()


def bloom_test_batch(vector, bits, hashes, salt1, salt2, datas):
    if not datas:
        return []
    if bits * hashes >= (1 << 62):
        return _pure.bloom_test_batch(vector, bits, hashes, salt1, salt2, datas)
    positions = _positions(bits, hashes, salt1, salt2, datas)
    bitarr = np.unpackbits(
        np.frombuffer(vector, dtype=np.uint8), bitorder="little"
    )
    return bitarr[positions].all(axis=1).tolist()


def descendant_build(cols, l, vector, bits, hashes, salt1, salt2):
    n = len(cols[0])
    peer, doc, start, _end, _level = _views(cols)
    # the (document, level, node) encoding of descendant_probe
    node_bits = max(1, l)
    level_bits = (l + 1).bit_length()
    if (
        not n
        or n.bit_length() + level_bits + node_bits > 62
        or int(start.min()) < 1  # the pure kernel's ValueError
    ):
        return _pure.descendant_build(cols, l, vector, bits, hashes, salt1, salt2)
    base = np.zeros(n, dtype=_I64)
    np.cumsum((peer[1:] != peer[:-1]) | (doc[1:] != doc[:-1]), out=base[1:])
    base <<= level_bits + node_bits
    # a start point's level-j container is node (start - 1) >> j; one row
    # of l + 1 keys per posting, of which only the distinct are formatted
    levels = np.arange(l + 1, dtype=_I64)
    node = np.minimum(start, 1 << l) - 1
    keys = (base[:, None] | (levels << node_bits)) | (node[:, None] >> levels)
    distinct, first = np.unique(keys.reshape(-1), return_index=True)
    owner = first // (l + 1)
    level = (distinct >> node_bits) & ((1 << level_bits) - 1)
    lo = ((distinct & ((1 << node_bits) - 1)) << level) + 1
    intervals = zip(
        peer[owner].tolist(), doc[owner].tolist(), lo.tolist(), (lo + (1 << level) - 1).tolist()
    )
    bloom_set_batch(
        vector, bits, hashes, salt1, salt2, list(map(b"(i%d,i%d,i%d,i%d)".__mod__, intervals))
    )
    return n * (l + 1)


def descendant_probe(cols, interior, l, vector, bits, hashes, salt1, salt2):
    n = len(cols[0])
    peer, doc, start, end, _level = _views(cols)
    # one int64 (document, level, node) names a filter key; documents are
    # numbered along the sorted columns
    node_bits = max(1, l)
    level_bits = (l + 1).bit_length()
    if (
        not n
        or n.bit_length() + level_bits + node_bits > 62
        or int(start.min()) + interior < 1  # the pure kernel's ValueError
    ):
        return _pure.descendant_probe(cols, interior, l, vector, bits, hashes, salt1, salt2)
    base = np.zeros(n, dtype=_I64)
    np.cumsum((peer[1:] != peer[:-1]) | (doc[1:] != doc[:-1]), out=base[1:])
    base <<= level_bits + node_bits
    # the interior as the half-open node range [x, y) at level 0, where
    # node k of level j is the interval [(k << j) + 1, (k + 1) << j]; an
    # empty interior is x == y, which also keeps x + 1 inside int64
    y = np.minimum(end - interior, 1 << l)
    x = np.minimum(start + (interior - 1), y)
    # level-synchronous minimal cover: an odd left end emits its node and
    # steps right, an odd right end steps left and emits; both halve
    keys = []
    owners = []
    for level in range(max(1, int((y - x).max())).bit_length()):
        live = x < y
        odd = (live & ((x & 1) != 0)).nonzero()[0]
        keys.append(base[odd] | (level << node_bits) | x[odd])
        owners.append(odd)
        x = (x + 1) >> 1
        odd = (live & ((y & 1) != 0)).nonzero()[0]
        keys.append(base[odd] | (level << node_bits) | (y[odd] - 1))
        owners.append(odd)
        y >>= 1
    owners = np.concatenate(owners)
    distinct, first, inverse = np.unique(
        np.concatenate(keys), return_index=True, return_inverse=True
    )
    level = (distinct >> node_bits) & ((1 << level_bits) - 1)
    lo = ((distinct & ((1 << node_bits) - 1)) << level) + 1
    first = owners[first]
    intervals = zip(
        peer[first].tolist(), doc[first].tolist(), lo.tolist(), (lo + (1 << level) - 1).tolist()
    )
    hits = bloom_test_batch(
        vector, bits, hashes, salt1, salt2, list(map(b"(i%d,i%d,i%d,i%d)".__mod__, intervals))
    )
    return sorted(set(owners[np.array(hits, dtype=bool)[inverse]].tolist()))
