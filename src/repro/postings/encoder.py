"""Binary encoding of posting lists.

Posting lists travel between peers in a delta-compressed varint format so
that the traffic meter (Section 4.3) and the normalized-data-volume metric
(Section 5.4) account realistic byte counts.  The format is also what the
local stores persist.

Layout::

    count: uvarint
    for each posting (sorted):
        delta(peer), delta-or-abs(doc), delta-or-abs(start), end-start, level

Fields are delta-encoded against the previous posting while the more
significant fields are unchanged, which is where the compression comes
from: within one document, consecutive postings differ mostly in ``start``.

:func:`encode_postings`, :func:`encoded_size` and :func:`encoded_size_sum`
run the active kernel backend straight on the columns of a
:class:`PostingList`; every backend derives the bytes and the sizes from
one delta kernel (``wire_values``), so the accounted size can never drift
from the actual encoding.  Decoding streams the bytes straight into
columns without materializing a single :class:`Posting`.

Anything else these functions are given is a sequence of postings already
in wire order (the answers of a document peer, say): it is encoded as it
is, neither re-sorted nor deduplicated.
"""

from itertools import accumulate, chain

from repro.postings import kernels
from repro.postings.plist import PostingList


def encode_postings(postings):
    """Encode a posting list, or a sequence of sorted postings, to bytes."""
    if not isinstance(postings, PostingList):
        postings = PostingList.from_sorted(postings)
    return kernels.active().encode(postings.arrays())


def decode_postings(data, offset=0):
    """Decode bytes produced by :func:`encode_postings`.

    Returns ``(PostingList, next_offset)``.
    """
    cols, pos = kernels.active().decode(data, offset)
    return PostingList.from_columns(*cols), pos


def encoded_size(postings):
    """Byte size of :func:`encode_postings` output, without building it.

    Used on hot accounting paths; must agree exactly with the encoder —
    guaranteed structurally, since both walk the same wire-value kernel.
    """
    if not isinstance(postings, PostingList):
        postings = PostingList.from_sorted(postings)
    return kernels.active().encoded_size(postings.arrays())


def encoded_size_sum(parts):
    """``sum(encoded_size(part) for part in parts)`` in one kernel call.

    ``parts`` (any iterable) are lists of sorted postings (rows); each is
    sized as its own list.  This is how a document peer meters all of its
    answers at once.
    """
    parts = list(parts)
    offsets = list(accumulate(map(len, parts)))
    # a plain transpose: only each part on its own is sorted
    cols = PostingList.from_sorted(chain.from_iterable(parts))
    return kernels.active().encoded_sizes(cols.arrays(), offsets)
