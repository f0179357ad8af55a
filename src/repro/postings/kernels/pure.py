"""The pure-Python kernel backend: the original loop implementations.

Every function operates on raw data — column 5-tuples of ``array('q')``
(``peer, doc, start, end, level``), byte strings, plain tuples — and is
the reference semantics the numpy backend must reproduce byte-for-byte.
These bodies are the loops that previously lived inline in the posting
list and ``BloomFilter`` classes; they moved here unchanged so both
backends sit behind one interface.
"""

from array import array
from bisect import bisect_left, bisect_right
from hashlib import blake2b
from itertools import compress, repeat
from operator import le, lt

NAME = "pure"


def _empty_columns():
    return (array("q"), array("q"), array("q"), array("q"), array("q"))


def _transpose(rows):
    """Sorted, duplicate-free row list -> column 5-tuple."""
    if not rows:
        return _empty_columns()
    peer, doc, start, end, level = zip(*rows)
    return (
        array("q", peer),
        array("q", doc),
        array("q", start),
        array("q", end),
        array("q", level),
    )


# -- union kernel ------------------------------------------------------------


def concat_sorted(chunks):
    """Ordered union of many column tuples: collect + sort + dedup."""
    rows = []
    for part in chunks:
        rows.extend(zip(*part))
    rows.sort()
    deduped = []
    push = deduped.append
    prev = None
    for row in rows:
        if row != prev:
            push(row)
            prev = row
    return _transpose(deduped)


# -- search kernels ----------------------------------------------------------


def batch_bisect(cols, keys, side):
    """``bisect_left``/``bisect_right`` of many 5-tuple keys in one call."""
    peer, doc, start, end, level = cols
    n = len(peer)
    out = []
    push = out.append
    if side == "left":
        for key in keys:
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi) >> 1
                if (peer[mid], doc[mid], start[mid], end[mid], level[mid]) < key:
                    lo = mid + 1
                else:
                    hi = mid
            push(lo)
    else:
        for key in keys:
            lo, hi = 0, n
            while lo < hi:
                mid = (lo + hi) >> 1
                if key < (peer[mid], doc[mid], start[mid], end[mid], level[mid]):
                    hi = mid
                else:
                    lo = mid + 1
            push(lo)
    return out


def semijoin_below(cols, inner_cols, axis):
    """The rows of ``cols`` with an ``inner_cols`` row below them.

    A row qualifies when some inner row of its ``(peer, doc)`` starts
    strictly inside ``(start, end)`` (``axis`` ``"//"``), inside
    ``[start, end]`` (``".//"``), or strictly inside and one level deeper
    (``"/"``).  Each row is one bisect into the inner rows keyed by
    ``(peer, doc, start)``, or ``(peer, doc, level, start)`` for ``/``:
    the first key past the row's lower bound qualifies iff it sorts before
    its upper bound, which shares the key's prefix."""
    ipeer, idoc, istart, _iend, ilevel = inner_cols
    if axis == "/":
        keys = sorted(zip(ipeer, idoc, ilevel, istart))
        bounds = [((p, d, l + 1, s), (p, d, l + 1, e)) for p, d, s, e, l in zip(*cols)]
    else:
        keys = list(zip(ipeer, idoc, istart))
        bounds = [((p, d, s), (p, d, e)) for p, d, s, e, _l in zip(*cols)]
    n = len(keys)
    if axis == ".//":
        seek, before = bisect_left, le
    else:
        seek, before = bisect_right, lt
    mask = []
    push = mask.append
    for lo, hi in bounds:
        j = seek(keys, lo)
        push(j < n and before(keys[j], hi))
    return tuple(array("q", compress(col, mask)) for col in cols)


def expand_below(cols, inner_cols, axis, rows):
    """The ``inner_cols`` rows below each of ``rows``, as two lists.

    ``rows`` are row indexes into ``cols``, repeats allowed.  For the
    ``k``-th of them, every inner row of its ``(peer, doc)`` that ``axis``
    admits below it adds ``k`` to the first list and the inner row's index
    to the second, ``k`` and then the inner index increasing.  The test is
    ``Axis.admits`` exactly: a start strictly inside ``(start, end)``
    (``"//"``), that and one level deeper (``"/"``), or a start inside
    ``[start, end]`` and an end at most ``end`` (``".//"``).  Each row is
    two bisects into the inner rows keyed by ``(peer, doc, start)``."""
    peer, doc, start, end, level = cols
    ipeer, idoc, istart, iend, ilevel = inner_cols
    keys = list(zip(ipeer, idoc, istart))
    if axis == ".//":
        seek_lo, seek_hi = bisect_left, bisect_right
    else:
        seek_lo, seek_hi = bisect_right, bisect_left
    owner = []
    inner = []
    for k, r in enumerate(rows):
        p, d, e = peer[r], doc[r], end[r]
        lo = seek_lo(keys, (p, d, start[r]))
        hi = seek_hi(keys, (p, d, e), lo)
        if axis == "/":
            below = level[r] + 1
            found = [j for j in range(lo, hi) if ilevel[j] == below]
        elif axis == ".//":
            found = [j for j in range(lo, hi) if iend[j] <= e]
        else:
            found = range(lo, hi)
        owner.extend(repeat(k, len(found)))
        inner.extend(found)
    return owner, inner


# -- derived views -----------------------------------------------------------


def doc_ids(peer, doc):
    """Ordered, duplicate-free ``(peer, doc)`` pairs from two columns."""
    out = []
    push = out.append
    prev = None
    for pd in zip(peer, doc):
        if pd != prev:
            push(pd)
            prev = pd
    return out


# -- wire format kernels -----------------------------------------------------


def wire_values(cols):
    """The flat integer sequence of the wire format, deltas applied."""
    peer, doc, start, end, level = cols
    vals = [len(peer)]
    push = vals.append
    prev_peer = prev_doc = prev_start = 0
    for p, d, s, e, l in zip(peer, doc, start, end, level):
        dpeer = p - prev_peer
        push(dpeer)
        if dpeer:
            prev_doc = prev_start = 0
        ddoc = d - prev_doc
        push(ddoc)
        if ddoc:
            prev_start = 0
        push(s - prev_start)
        push(e - s)
        push(l)
        prev_peer = p
        prev_doc = d
        prev_start = s
    return vals


def encode(cols):
    """Serialize columns to the delta-varint wire bytes."""
    out = bytearray()
    push = out.append
    for v in wire_values(cols):
        if v < 0x80:
            push(v)
        else:
            while v >= 0x80:
                push((v & 0x7F) | 0x80)
                v >>= 7
            push(v)
    return bytes(out)


#: uvarint bytes by the bit length of the value (0 takes one byte); int64
#: columns keep every wire value, ``end - start`` included, within 64 bits
_VARINT_BYTES = tuple(((bits + 6) // 7) or 1 for bits in range(65))


def encoded_size(cols):
    """Exact ``len(encode(cols))`` without building the bytes.

    A one-row list is sized in closed form: every delta starts from zero,
    so its wire values are ``(1, p, d, s, e - s, l)``."""
    if len(cols[0]) == 1:
        (p,), (d,), (s,), (e,), (l,) = cols
        return sum(map(_VARINT_BYTES.__getitem__, map(int.bit_length, (1, p, d, s, e - s, l))))
    return sum(((v.bit_length() + 6) // 7) or 1 for v in wire_values(cols))


def encoded_sizes(cols, offsets):
    """``sum(encoded_size(segment))`` over the segments of ``cols``.

    Segment ``i`` is rows ``[offsets[i - 1], offsets[i])``, the first one
    starting at row 0; ``offsets`` is non-decreasing and its last entry is
    the row count.  Each segment is sized as its own list: its own count,
    and deltas starting again from zero."""
    total = 0
    lo = 0
    for hi in offsets:
        total += encoded_size(tuple(col[lo:hi] for col in cols))
        lo = hi
    return total


def decode(data, offset=0):
    """Parse the wire format into a column 5-tuple.

    Returns ``((peer, doc, start, end, level), next_offset)``."""
    peer = array("q")
    doc = array("q")
    start = array("q")
    end = array("q")
    level = array("q")
    push_peer = peer.append
    push_doc = doc.append
    push_start = start.append
    push_end = end.append
    push_level = level.append
    pos = offset
    try:
        # count
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
        cur_peer = cur_doc = cur_start = 0
        for _ in range(count):
            # delta(peer)
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
            if v:
                cur_peer += v
                cur_doc = cur_start = 0
            # delta-or-abs(doc)
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
            if v:
                cur_doc += v
                cur_start = 0
            # delta-or-abs(start)
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
            cur_start += v
            # end - start
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
            span = v
            # level
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
            push_peer(cur_peer)
            push_doc(cur_doc)
            push_start(cur_start)
            push_end(cur_start + span)
            push_level(v)
    except IndexError:
        # report the position reached, like the per-varint decoder did
        raise ValueError("truncated uvarint at offset %d" % pos) from None
    return (peer, doc, start, end, level), pos


# -- Bloom filter bit kernels ------------------------------------------------


def _digest_pairs(datas, salt1, salt2):
    """``(h1, h2)`` per key: its two salted 8-byte BLAKE2 digests, ``h2``
    made odd.  A key's ``k`` bit positions are ``(h1 + i * h2) % bits``
    for ``i < k`` (double hashing)."""
    h1s = [int.from_bytes(blake2b(d, digest_size=8, salt=salt1).digest(), "little") for d in datas]
    h2s = [
        int.from_bytes(blake2b(d, digest_size=8, salt=salt2).digest(), "little") | 1
        for d in datas
    ]
    return zip(h1s, h2s)


def bloom_set_batch(vector, bits, hashes, salt1, salt2, datas):
    """Set the bit positions of every serialized item in ``datas``."""
    for h1, h2 in _digest_pairs(datas, salt1, salt2):
        for i in range(hashes):
            pos = (h1 + i * h2) % bits
            vector[pos >> 3] |= 1 << (pos & 7)


def bloom_test_batch(vector, bits, hashes, salt1, salt2, datas):
    """Membership test for every serialized item; one bool per item."""
    out = []
    push = out.append
    for h1, h2 in _digest_pairs(datas, salt1, salt2):
        ok = True
        for i in range(hashes):
            pos = (h1 + i * h2) % bits
            if not vector[pos >> 3] & (1 << (pos & 7)):
                ok = False
                break
        push(ok)
    return out


def descendant_build(cols, l, vector, bits, hashes, salt1, salt2):
    """Insert a Descendant Bloom Filter's keys; returns its load.

    Row ``i`` inserts the key ``(peer, doc, lo, hi)`` of each of the
    ``l + 1`` dyadic intervals that contain its start point, clamped to
    ``2**l``.  Keys shared between rows (the wide containers) are hashed
    once, which leaves the bit vector unchanged; the returned load counts
    ``l + 1`` keys per row all the same."""
    # imported here: repro.bloom's package import needs this package first
    from repro.bloom.dyadic import point_chain

    peer, doc, start, _end, _level = cols
    limit = 1 << l
    chains = {}  # start point -> its container chain (shared across docs)
    seen = set()
    add_seen = seen.add
    unique = []
    push = unique.append
    for p, d, s in zip(peer, doc, start):
        if s > limit:
            s = limit
        chain = chains.get(s)
        if chain is None:
            chain = chains[s] = point_chain(s, l)
        for lo, hi in chain:
            item = (p, d, lo, hi)
            if item not in seen:
                add_seen(item)
                push(b"(i%d,i%d,i%d,i%d)" % item)
    bloom_set_batch(vector, bits, hashes, salt1, salt2, unique)
    return len(peer) * (l + 1)


def descendant_probe(cols, interior, l, vector, bits, hashes, salt1, salt2):
    """Row indexes, increasing, that pass a Descendant Bloom Filter.

    Row ``i`` passes when some interval of the dyadic cover of
    ``[start + interior, min(end - interior, 2**l)]`` is in the filter
    under the key ``(peer, doc, lo, hi)``.  Staged: memberships shared
    between rows are decided once, and each cover-interval round is one
    batched probe over the rows still undecided — a row exits at its first
    present interval (the scalar ``any()`` short-circuit, batched)."""
    # imported here: repro.bloom's package import needs this package first
    from repro.bloom.dyadic import dyadic_cover

    peer, doc, start, end, _level = cols
    limit = 1 << l
    cover_cache = {}
    rows = []
    push_row = rows.append
    for i, p, d, lo, hi in zip(range(len(peer)), peer, doc, start, end):
        lo += interior
        hi -= interior
        if hi > limit:
            hi = limit
        if lo > hi:
            continue
        span = (lo, hi)
        cover = cover_cache.get(span)
        if cover is None:
            cover = cover_cache[span] = tuple(dyadic_cover(lo, hi, l))
        push_row((i, p, d, cover))
    member = {}
    keep = []
    push = keep.append
    depth = 0
    pending = rows
    while pending:
        probes = []
        for _i, p, d, cover in pending:
            if depth < len(cover):
                ilo, ihi = cover[depth]
                key = (p, d, ilo, ihi)
                if key not in member:
                    member[key] = False
                    probes.append(key)
        if probes:
            hits = bloom_test_batch(
                vector, bits, hashes, salt1, salt2,
                [b"(i%d,i%d,i%d,i%d)" % key for key in probes],
            )
            for key, hit in zip(probes, hits):
                member[key] = hit
        still = []
        for row in pending:
            i, p, d, cover = row
            if depth >= len(cover):
                continue  # every interval missed: drop
            ilo, ihi = cover[depth]
            if member[(p, d, ilo, ihi)]:
                push(i)
            else:
                still.append(row)
        pending = still
        depth += 1
    keep.sort()
    return keep
