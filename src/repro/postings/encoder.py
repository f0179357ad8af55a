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
are derived from the single delta kernel in :mod:`repro.postings.columnar`
(:meth:`~repro.postings.columnar.PostingColumns.wire_values`), so the
accounted size can never drift from the actual encoding; decoding streams
the bytes straight into columns without materializing a single
:class:`Posting`.
"""

from repro.postings import kernels
from repro.postings.columnar import PostingColumns
from repro.postings.plist import PostingList


def _columns_of(postings):
    if isinstance(postings, PostingList):
        return postings.columns()
    if isinstance(postings, PostingColumns):
        return postings
    # raw iterables arrive sorted on this path (wire contract); trust the
    # order like the previous encoder did rather than re-sorting
    return PostingColumns._from_sorted_unique(
        postings if isinstance(postings, list) else list(postings)
    )


def encode_postings(postings):
    """Encode an iterable of sorted postings to bytes."""
    return _columns_of(postings).encode()


def decode_postings(data, offset=0):
    """Decode bytes produced by :func:`encode_postings`.

    Returns ``(PostingList, next_offset)``.
    """
    cols, pos = PostingColumns.decode(data, offset)
    return PostingList._adopt(cols), pos


def encoded_size(postings):
    """Byte size of :func:`encode_postings` output, without building it.

    Used on hot accounting paths; must agree exactly with the encoder —
    guaranteed structurally, since both walk the same wire-value kernel.
    """
    return _columns_of(postings).encoded_size()


def encoded_size_sum(parts):
    """``sum(encoded_size(part) for part in parts)`` in one kernel call.

    ``parts`` are lists of sorted postings (rows); each is sized as its own
    list.  This is how a document peer meters all of its answers at once.
    """
    rows = []
    offsets = []
    for part in parts:
        rows += part
        offsets.append(len(rows))
    # a plain transpose: only each part on its own is sorted
    cols = PostingColumns._from_sorted_unique(rows)
    return kernels.active().encoded_sizes(cols.arrays(), offsets)
