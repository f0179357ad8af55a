"""The PAST-style baseline store (Section 3, "Improving indexing time").

PAST kept each key's value as a gzipped XML file.  Every ``put`` of a new
posting (1) reads and decompresses the old value, (2) reconciles it with
the new entries, and (3) recompresses and rewrites the whole result —
linear work per insert, hence quadratic publishing cost overall.  That
``put`` is this store's one write, :meth:`NaiveGzipStore.append`.

The in-memory payload here is kept in the library's compact binary format
(so tests and experiments run fast), but the *accounted* I/O and CPU
reproduce the PAST representation:

* each read/write is charged ``XML_ENTRY_BYTES`` per posting — the size of
  one ``<posting p=".." d=".." .../>`` element after gzip;
* each reconcile is charged one store op per entry touched (decompress,
  XML-parse, merge, re-serialize are all linear in the value length).

This is what makes the Section 3 store ablation reproduce the paper's
two-to-three orders of magnitude publishing gap at realistic list sizes.
"""

import zlib

from repro.postings.encoder import decode_postings, encode_postings
from repro.postings.plist import PostingList
from repro.storage.api import EMPTY_SUMMARY, Store, summarise

#: gzipped size of one posting in PAST's XML value format
XML_ENTRY_BYTES = 16

#: zlib level of the in-memory blobs; the charged I/O is ``XML_ENTRY_BYTES``
#: per posting at any level
COMPRESSION_LEVEL = 1


class NaiveGzipStore(Store):
    """Read-modify-write compressed blob per term."""

    def __init__(self):
        super().__init__()
        self._blobs = {}
        self._counts = {}

    def _read(self, term):
        blob = self._blobs.get(term)
        if blob is None:
            return PostingList()
        count = self._counts[term]
        self.stats.bytes_read += XML_ENTRY_BYTES * count
        self.stats.num_ops += 1 + count  # decompress + parse each entry
        plist, _ = decode_postings(zlib.decompress(blob))
        return plist

    def _write(self, term, plist):
        self._blobs[term] = zlib.compress(encode_postings(plist), COMPRESSION_LEVEL)
        self._counts[term] = len(plist)
        if term in self._summaries:
            self._summaries[term] = summarise(plist)
        self.stats.bytes_written += XML_ENTRY_BYTES * len(plist)
        self.stats.num_ops += 1 + len(plist)  # serialize + compress

    def append(self, term, postings):
        """PAST has no append: every write is the read-modify-write ``put``."""
        existing = self._read(term)
        existing.extend(postings)
        if len(existing) or term in self._blobs:  # an empty write stores nothing
            self._write(term, existing)

    def get(self, term):
        return self._read(term)

    def delete(self, term, postings=None):
        """PAST has no batched delete either: each posting of the run is
        one read-modify-write of the whole value."""
        if term not in self._blobs:
            return False if postings is None else 0
        if postings is None:
            self._blobs.pop(term)
            count = self._counts.pop(term)
            if term in self._summaries:
                self._summaries[term] = EMPTY_SUMMARY
            self.stats.num_ops += 1
            self.stats.bytes_read += XML_ENTRY_BYTES * count
            return True
        removed = 0
        for posting in PostingList.of(postings):
            if term not in self._blobs:
                break
            existing = self._read(term)
            if not existing.remove(posting):
                continue
            removed += 1
            if len(existing):
                self._write(term, existing)
            else:  # the last posting: drop the term, like the other stores
                del self._blobs[term], self._counts[term]
                if term in self._summaries:
                    self._summaries[term] = EMPTY_SUMMARY
                self.stats.num_ops += 1
        return removed

    def terms(self):
        return iter(sorted(self._blobs))

    def count(self, term):
        return self._counts.get(term, 0)

    def stored_bytes(self):
        """Total compressed bytes currently held (store footprint)."""
        return sum(len(b) for b in self._blobs.values())
